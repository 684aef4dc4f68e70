(* Rendezvous pairing pools as flat sorted arrays.

   Sheds are kept sorted by load descending and light slots by deficit
   ascending; equal keys stay in insertion order, so array position is
   the tie-break the original Set.Make pools drew from a per-pool
   sequence number.  Every observable order (iteration heaviest-first,
   smallest-sufficient-deficit probing, merges, leftover re-adds)
   reproduces the Set semantics exactly — test/pairing_reference.ml
   retains a port of the original implementation and test_prop checks
   agreement. *)

type pool = {
  (* shed VSs, sorted by load desc; arrays are exact-size *)
  s_load : floatarray;
  s_rec : Types.shed_vs array;
  (* light slots, sorted by deficit asc *)
  l_def : floatarray;
  l_node : int array;
  (* The leftover of [pair], not merged with a non-empty pool since:
     pairing it again makes no assignment (see [pair]). *)
  settled : bool;
}

let empty =
  {
    s_load = Float.Array.create 0;
    s_rec = [||];
    l_def = Float.Array.create 0;
    l_node = [||];
    settled = false;
  }

let n_shed p = Array.length p.s_rec
let n_lights p = Array.length p.l_node
let size p = n_shed p + n_lights p
let is_empty p = n_shed p = 0 && n_lights p = 0

(* Sort a fresh index permutation of [0, n) with [cmp], used to order
   entries by (key, insertion index) — a total order, so Array.sort
   suffices. *)
let sorted_perm n cmp =
  let perm = Array.init n (fun i -> i) in
  Array.sort cmp perm;
  perm

(* Build the shed side from [n] entries in insertion order. *)
let build_sheds n ~load ~entry =
  if n = 0 then (Float.Array.create 0, [||])
  else begin
    let perm =
      sorted_perm n (fun i j ->
          match Float.compare (load j) (load i) with
          | 0 -> Int.compare i j
          | c -> c)
    in
    let s_load = Float.Array.create n in
    let s_rec = Array.make n (entry perm.(0)) in
    for k = 0 to n - 1 do
      let i = perm.(k) in
      Float.Array.set s_load k (load i);
      s_rec.(k) <- entry i
    done;
    (s_load, s_rec)
  end

let build_lights n ~deficit ~node =
  if n = 0 then (Float.Array.create 0, [||])
  else begin
    let perm =
      sorted_perm n (fun i j ->
          match Float.compare (deficit i) (deficit j) with
          | 0 -> Int.compare i j
          | c -> c)
    in
    let l_def = Float.Array.create n in
    let l_node = Array.make n 0 in
    for k = 0 to n - 1 do
      let i = perm.(k) in
      Float.Array.set l_def k (deficit i);
      l_node.(k) <- node i
    done;
    (l_def, l_node)
  end

let of_slices sheds ns lights nl =
  let s_load, s_rec =
    build_sheds ns
      ~load:(fun i -> sheds.(i).Types.vs_load)
      ~entry:(fun i -> sheds.(i))
  in
  let l_def, l_node =
    build_lights nl
      ~deficit:(fun i -> lights.(i).Types.deficit)
      ~node:(fun i -> lights.(i).Types.light_node)
  in
  { s_load; s_rec; l_def; l_node; settled = false }

let of_entries sheds lights =
  let sheds = Array.of_list sheds and lights = Array.of_list lights in
  of_slices sheds (Array.length sheds) lights (Array.length lights)

(* Merge the sorted runs; on equal keys [a]'s entry precedes, as if
   [b]'s entries were added after [a]'s in sorted order.  Merging with
   an empty pool returns the other one unchanged. *)
let merge a b =
  if is_empty b then a
  else if is_empty a then b
  else begin
    let as_ = n_shed a and al = n_lights a in
    let bs = n_shed b and bl = n_lights b in
    let ns = as_ + bs and nl = al + bl in
    let s_load = Float.Array.create ns in
    let s_rec =
      if ns = 0 then [||]
      else Array.make ns (if as_ > 0 then a.s_rec.(0) else b.s_rec.(0))
    in
    let i = ref 0 and j = ref 0 in
    for k = 0 to ns - 1 do
      let take_a =
        if !i >= as_ then false
        else if !j >= bs then true
        else Float.compare (Float.Array.get a.s_load !i)
               (Float.Array.get b.s_load !j)
             >= 0
      in
      if take_a then begin
        Float.Array.set s_load k (Float.Array.get a.s_load !i);
        s_rec.(k) <- a.s_rec.(!i);
        incr i
      end
      else begin
        Float.Array.set s_load k (Float.Array.get b.s_load !j);
        s_rec.(k) <- b.s_rec.(!j);
        incr j
      end
    done;
    let l_def = Float.Array.create nl in
    let l_node = Array.make nl 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to nl - 1 do
      let take_a =
        if !i >= al then false
        else if !j >= bl then true
        else Float.compare (Float.Array.get a.l_def !i)
               (Float.Array.get b.l_def !j)
             <= 0
      in
      if take_a then begin
        Float.Array.set l_def k (Float.Array.get a.l_def !i);
        l_node.(k) <- a.l_node.(!i);
        incr i
      end
      else begin
        Float.Array.set l_def k (Float.Array.get b.l_def !j);
        l_node.(k) <- b.l_node.(!j);
        incr j
      end
    done;
    { s_load; s_rec; l_def; l_node; settled = false }
  end

let shed_entries p = Array.to_list p.s_rec

let light_entries p =
  List.init (n_lights p) (fun i ->
      Types.
        { deficit = Float.Array.get p.l_def i; light_node = p.l_node.(i) })

(* [p] with each run of equal-load sheds reversed. *)
let reverse_ties p =
  let n = n_shed p in
  let s_load = Float.Array.copy p.s_load and s_rec = Array.copy p.s_rec in
  let i = ref 0 in
  while !i < n do
    let l = Float.Array.get s_load !i in
    let j = ref (!i + 1) in
    while !j < n && Float.compare (Float.Array.get s_load !j) l = 0 do
      incr j
    done;
    for a = 0 to ((!j - !i) / 2) - 1 do
      let x = !i + a and y = !j - 1 - a in
      let lx = Float.Array.get s_load x and rx = s_rec.(x) in
      Float.Array.set s_load x (Float.Array.get s_load y);
      s_rec.(x) <- s_rec.(y);
      Float.Array.set s_load y lx;
      s_rec.(y) <- rx
    done;
    i := !j
  done;
  { p with s_load; s_rec }

(* A settled pool pairs nothing.  Each shed [s] left unpaired found
   only slots of its own node [h] at deficit >= its load [L], and every
   later slot at deficit >= [L] is the residual of a slot at least as
   large (loads are >= 0), so also [h]'s: when the pass ends, every
   slot that fits [s] is [h]'s, and a second pass skips them all.  So
   that pass makes no assignment, keeps the lights and re-adds the
   sheds in reverse, as the leftover below does: its equal-load runs
   come back reversed, which [reverse_ties] does without the pass. *)
let pair ?(depth = 0) ~l_min p =
  let sn = n_shed p in
  if sn = 0 then ([], p)
  else if p.settled then ([], reverse_ties p)
  else begin
    (* Mutable working copy of the light side; each assignment removes
       one slot and re-inserts at most one residual, so capacity never
       exceeds the initial count. *)
    let ln = ref (n_lights p) in
    let w_def = Float.Array.create !ln in
    Float.Array.blit p.l_def 0 w_def 0 !ln;
    let w_node = Array.sub p.l_node 0 !ln in
    (* First working slot with deficit >= [x] ([upper]: > [x]). *)
    let lower_bound x =
      let lo = ref 0 and hi = ref !ln in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if Float.compare (Float.Array.get w_def mid) x >= 0 then hi := mid
        else lo := mid + 1
      done;
      !lo
    in
    let upper_bound x =
      let lo = ref 0 and hi = ref !ln in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if Float.compare (Float.Array.get w_def mid) x > 0 then hi := mid
        else lo := mid + 1
      done;
      !lo
    in
    let remove_at i =
      let tail = !ln - i - 1 in
      Float.Array.blit w_def (i + 1) w_def i tail;
      Array.blit w_node (i + 1) w_node i tail;
      decr ln
    in
    let insert_at i d node =
      let tail = !ln - i in
      Float.Array.blit w_def i w_def (i + 1) tail;
      Array.blit w_node i w_node (i + 1) tail;
      Float.Array.set w_def i d;
      w_node.(i) <- node;
      incr ln
    in
    let assignments = ref [] in
    let unpaired = Array.make sn p.s_rec.(0) in
    let n_unpaired = ref 0 in
    (* Heaviest-first over the shed VSs. *)
    for si = 0 to sn - 1 do
      let load = Float.Array.get p.s_load si in
      let s = p.s_rec.(si) in
      (* Smallest light deficit that still fits this VS, skipping slots
         of the shedding node itself (the Set implementation re-probes
         past each skipped slot, which is exactly a forward scan in
         (deficit, position) order). *)
      let i = ref (lower_bound load) in
      while !i < !ln && w_node.(!i) = s.Types.heavy_node do
        incr i
      done;
      if !i < !ln then begin
        let deficit = Float.Array.get w_def !i in
        let light_node = w_node.(!i) in
        assignments :=
          Types.
            {
              a_vs = s.vs;
              a_load = s.vs_load;
              a_from = s.heavy_node;
              a_to = light_node;
              a_depth = depth;
            }
          :: !assignments;
        remove_at !i;
        let residual = deficit -. load in
        (* The residual is the newest entry, so it goes after every
           equal deficit: the strict upper bound of [residual]. *)
        if residual >= l_min then
          insert_at (upper_bound residual) residual light_node
      end
      else begin
        unpaired.(!n_unpaired) <- s;
        incr n_unpaired
      end
    done;
    (* Leftover pool: surviving lights plus the unpaired sheds re-added
       in reverse encounter order (the Set implementation folds over the
       prepend-accumulated list), which reverses equal-load ties. *)
    let u = !n_unpaired in
    let s_load, s_rec =
      build_sheds u
        ~load:(fun i -> unpaired.(u - 1 - i).Types.vs_load)
        ~entry:(fun i -> unpaired.(u - 1 - i))
    in
    let l_def = Float.Array.create !ln in
    Float.Array.blit w_def 0 l_def 0 !ln;
    let leftover =
      { s_load; s_rec; l_def; l_node = Array.sub w_node 0 !ln; settled = true }
    in
    (List.rev !assignments, leftover)
  end
