let exact_threshold = 16

let shed_total l = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 l

let check_loads loads =
  Array.iter
    (fun (_, l) -> if l < 0.0 then invalid_arg "Excess.choose_shed: negative load")
    loads

let sort_desc loads =
  let sorted = Array.copy loads in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) sorted;
  sorted

(* Largest [allowed] loads — the best-effort answer when [need] cannot
   be covered.  Takes the descending copy so callers can share one
   sort. *)
let top_loads sorted allowed = Array.to_list (Array.sub sorted 0 allowed)

let exact loads ~need ~allowed =
  let n = Array.length loads in
  let best_sum = ref infinity and best_set = ref None in
  for mask = 1 to (1 lsl n) - 1 do
    let count = ref 0 and sum = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        incr count;
        sum := !sum +. snd loads.(i)
      end
    done;
    if !count <= allowed && !sum >= need then
      if
        !sum < !best_sum
        || (!sum = !best_sum
           &&
           match !best_set with
           | Some (c, _) -> !count < c
           | None -> true)
      then begin
        best_sum := !sum;
        best_set := Some (!count, mask)
      end
  done;
  match !best_set with
  | None -> None
  | Some (_, mask) ->
    let chosen = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then chosen := loads.(i) :: !chosen
    done;
    Some !chosen

(* Greedy candidate: accumulate ascending until covered, then trim any
   member whose removal keeps the cover. *)
let ascending_cover loads ~need ~allowed =
  let sorted = Array.copy loads in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) sorted;
  let chosen = ref [] and sum = ref 0.0 and count = ref 0 in
  (* take from the largest end only as needed: ascending accumulation
     of the *largest* remaining would overshoot; take smallest-first. *)
  let i = ref 0 in
  while !sum < need && !count < allowed && !i < Array.length sorted do
    chosen := sorted.(!i) :: !chosen;
    sum := !sum +. snd sorted.(!i);
    incr count;
    incr i
  done;
  if !sum < need then None
  else begin
    (* Trim: drop members (largest first) that are not needed. *)
    let members = List.sort (fun (_, a) (_, b) -> Float.compare b a) !chosen in
    let kept =
      List.filter
        (fun (_, l) ->
          if !sum -. l >= need then begin
            sum := !sum -. l;
            false
          end
          else true)
        members
    in
    Some kept
  end

(* Greedy candidate: single cheapest VS covering the need alone. *)
let single_cover loads ~need =
  let best = ref None in
  Array.iter
    (fun (id, l) ->
      if l >= need then
        match !best with
        | Some (_, bl) when bl <= l -> ()
        | _ -> best := Some (id, l))
    loads;
  match !best with Some x -> Some [ x ] | None -> None

(* Greedy candidate: keep the largest VSs that fit under the residual
   budget, shed the rest. *)
let keep_side loads ~sorted ~need ~allowed =
  let total = Array.fold_left (fun acc (_, l) -> acc +. l) 0.0 loads in
  let budget = total -. need in
  let kept_sum = ref 0.0 in
  let shed = ref [] and n_shed = ref 0 in
  Array.iter
    (fun (id, l) ->
      if !kept_sum +. l <= budget then kept_sum := !kept_sum +. l
      else begin
        shed := (id, l) :: !shed;
        incr n_shed
      end)
    sorted;
  if !n_shed <= allowed && total -. !kept_sum >= need then Some !shed
  else None

let choose_shed ?(keep_at_least = 1) ~loads need =
  check_loads loads;
  if keep_at_least < 0 then invalid_arg "Excess.choose_shed: keep_at_least < 0";
  let n = Array.length loads in
  let allowed = n - keep_at_least in
  if need <= 0.0 || allowed <= 0 then []
  else if n < exact_threshold then begin
    match exact loads ~need ~allowed with
    | Some s -> s
    | None -> top_loads (sort_desc loads) allowed
  end
  else begin
    (* One descending copy shared by keep_side and the best-effort
       fallback. *)
    let sorted = sort_desc loads in
    let candidates =
      List.filter_map
        (fun c -> c)
        [
          single_cover loads ~need;
          ascending_cover loads ~need ~allowed;
          keep_side loads ~sorted ~need ~allowed;
        ]
    in
    match candidates with
    | [] -> top_loads sorted allowed
    | _ :: _ ->
      List.fold_left
        (fun best c ->
          match best with
          | None -> Some c
          | Some b -> if shed_total c < shed_total b then Some c else best)
        None candidates
      |> Option.get
  end
