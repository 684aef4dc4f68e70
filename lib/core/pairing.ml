(* Rendezvous pairing pools as flat sorted arrays.

   Sheds are kept sorted by load descending and light slots by deficit
   ascending; equal keys stay in insertion order, so array position is
   the tie-break.  A pool is built by one stable merge sort of its
   keys, unboxed in a floatarray, that carries an index permutation
   along: stability gives the insertion-index tie-break, so keys are
   the only comparison.  [pair]'s leftover needs no sort at all (see
   there).  Every order is stable: iteration heaviest-first,
   smallest-sufficient-deficit probing, merges ([a]'s entries before
   [b]'s on equal keys) and the leftover (unpaired sheds in the order
   the pass met them).  test/pairing_reference.ml keeps a Set-based
   model of the same rule and test_prop checks agreement. *)

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

(* Sort [k] stably, ascending when [sign] is 1 and descending when it
   is -1, moving [v] alongside: insertion sort up to [cutoff] entries,
   otherwise two sorted halves merged through the scratch [tk]/[tv],
   which hold the left half.  Keys compare by [Float.compare] alone;
   stability keeps equal keys in insertion order, which is the
   (key, insertion index) order the pools are defined by. *)
let cutoff = 8

let rec sort_run sign k (v : int array) tk (tv : int array) lo hi =
  if hi - lo <= cutoff then
    for i = lo + 1 to hi - 1 do
      let x = Float.Array.get k i and y = v.(i) in
      let j = ref (i - 1) in
      while !j >= lo && sign * Float.compare (Float.Array.get k !j) x > 0 do
        Float.Array.set k (!j + 1) (Float.Array.get k !j);
        v.(!j + 1) <- v.(!j);
        decr j
      done;
      Float.Array.set k (!j + 1) x;
      v.(!j + 1) <- y
    done
  else begin
    let mid = (lo + hi) lsr 1 in
    sort_run sign k v tk tv lo mid;
    sort_run sign k v tk tv mid hi;
    (* Halves already in order need no merge. *)
    if
      sign * Float.compare (Float.Array.get k (mid - 1)) (Float.Array.get k mid)
      > 0
    then begin
      let nl = mid - lo in
      Float.Array.blit k lo tk 0 nl;
      Array.blit v lo tv 0 nl;
      (* Take from the left half unless the right key sorts strictly
         first; the right half's tail is already in place. *)
      let i = ref 0 and j = ref mid and o = ref lo in
      while !i < nl do
        if
          !j < hi
          && sign * Float.compare (Float.Array.get tk !i) (Float.Array.get k !j)
             > 0
        then begin
          Float.Array.set k !o (Float.Array.get k !j);
          v.(!o) <- v.(!j);
          incr j
        end
        else begin
          Float.Array.set k !o (Float.Array.get tk !i);
          v.(!o) <- tv.(!i);
          incr i
        end;
        incr o
      done
    end
  end

(* The keys [key 0 .. key (n - 1)] in sorted order (see [sort_run]),
   and the insertion index of each. *)
let sorted_perm sign n key =
  let k = Float.Array.init n key and v = Array.init n (fun i -> i) in
  let half = if n > cutoff then n / 2 else 0 in
  sort_run sign k v (Float.Array.create half) (Array.make half 0) 0 n;
  (k, v)

(* Sheds by load descending, lights by deficit ascending. *)
let of_slices sheds ns lights nl =
  let s_load, s_perm =
    sorted_perm (-1) ns (fun i -> sheds.(i).Types.vs_load)
  in
  let l_def, l_node = sorted_perm 1 nl (fun i -> lights.(i).Types.deficit) in
  for k = 0 to nl - 1 do
    l_node.(k) <- lights.(l_node.(k)).Types.light_node
  done;
  let s_rec = Array.map (fun i -> sheds.(i)) s_perm in
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

(* A settled pool pairs nothing.  Each shed [s] left unpaired found
   only slots of its own node [h] at deficit >= its load [L], and every
   later slot at deficit >= [L] is the residual of a slot at least as
   large (loads are >= 0), so also [h]'s: when the pass ends, every
   slot that fits [s] is [h]'s, and a second pass skips them all.  So
   that pass makes no assignment, keeps the lights and leaves the
   sheds in the order it met them, the pool's own: it returns the pool
   unchanged. *)
let pair ?(depth = 0) ~l_min p =
  let sn = n_shed p in
  if sn = 0 || p.settled then ([], p)
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
    (* Leftover pool: surviving lights plus the unpaired sheds in
       encounter order.  The loop meets the sheds heaviest-first, so
       they are already sorted, equal loads in pool order. *)
    let u = !n_unpaired in
    let s_load = Float.Array.init u (fun i -> unpaired.(i).Types.vs_load) in
    let s_rec = Array.sub unpaired 0 u in
    let l_def = Float.Array.create !ln in
    Float.Array.blit w_def 0 l_def 0 !ln;
    let leftover =
      { s_load; s_rec; l_def; l_node = Array.sub w_node 0 !ln; settled = true }
    in
    (List.rev !assignments, leftover)
  end
