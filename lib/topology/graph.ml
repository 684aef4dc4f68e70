type builder = {
  bn : int;
  adj : (int * int) list array; (* neighbor, weight *)
  edges : (int * int, unit) Hashtbl.t; (* canonical (min, max) pairs *)
  mutable m : int;
}

type t = {
  n : int;
  nbr : (int * int) array array;
  m_frozen : int;
}

let create_builder ~n =
  if n < 0 then invalid_arg "Graph.create_builder: n < 0";
  { bn = n; adj = Array.make n []; edges = Hashtbl.create (4 * n); m = 0 }

let canon u v = if u < v then (u, v) else (v, u)

let has_edge b u v = Hashtbl.mem b.edges (canon u v)

let add_edge b u v ~weight =
  if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
    invalid_arg "Graph.add_edge: vertex out of range";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if weight < 0 then invalid_arg "Graph.add_edge: negative weight";
  if not (has_edge b u v) then begin
    Hashtbl.add b.edges (canon u v) ();
    b.adj.(u) <- (v, weight) :: b.adj.(u);
    b.adj.(v) <- (u, weight) :: b.adj.(v);
    b.m <- b.m + 1
  end

let freeze b =
  { n = b.bn; nbr = Array.map Array.of_list b.adj; m_frozen = b.m }

let n_vertices g = g.n
let n_edges g = g.m_frozen
let neighbors g v = g.nbr.(v)
let degree g v = Array.length g.nbr.(v)

(* Binary min-heap of (dist, vertex), array-based. *)
module Heap = struct
  type t = {
    mutable a : (int * int) array;
    mutable size : int;
  }

  let create () = { a = Array.make 64 (0, 0); size = 0 }

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let push h x =
    if h.size = Array.length h.a then begin
      let bigger = Array.make (2 * h.size) (0, 0) in
      Array.blit h.a 0 bigger 0 h.size;
      h.a <- bigger
    end;
    h.a.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.a.(0) in
    h.size <- h.size - 1;
    h.a.(0) <- h.a.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && fst h.a.(l) < fst h.a.(!smallest) then smallest := l;
      if r < h.size && fst h.a.(r) < fst h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top

  let is_empty h = h.size = 0
end

(* Dijkstra from [src] over the vertices [v] with [comp.(v) = c] only;
   the result is indexed by [local.(v)] and has [size] entries.
   [dijkstra] below does not delegate to it: on a whole ts5k-large
   graph the membership test and index indirection double the cost of
   a run (1.6 ms -> 3.2 ms), and landmark vectors pay one whole-graph
   run per landmark. *)
let dijkstra_within g ~comp ~c ~local ~size ~src =
  let dist = Array.make size max_int in
  dist.(local.(src)) <- 0;
  let heap = Heap.create () in
  Heap.push heap (0, src);
  while not (Heap.is_empty heap) do
    let d, u = Heap.pop heap in
    if d = dist.(local.(u)) then
      Array.iter
        (fun (v, w) ->
          if comp.(v) = c then begin
            let nd = d + w in
            if nd < dist.(local.(v)) then begin
              dist.(local.(v)) <- nd;
              Heap.push heap (nd, v)
            end
          end)
        g.nbr.(u)
  done;
  dist

let dijkstra g ~src =
  if src < 0 || src >= g.n then invalid_arg "Graph.dijkstra: bad src";
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  let heap = Heap.create () in
  Heap.push heap (0, src);
  while not (Heap.is_empty heap) do
    let d, u = Heap.pop heap in
    if d = dist.(u) then
      Array.iter
        (fun (v, w) ->
          let nd = d + w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            Heap.push heap (nd, v)
          end)
        g.nbr.(u)
  done;
  dist

let distance g ~src ~dst = (dijkstra g ~src).(dst)

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let count = ref 1 in
    let rec walk () =
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        Array.iter
          (fun (v, _) ->
            if not seen.(v) then begin
              seen.(v) <- true;
              incr count;
              stack := v :: !stack
            end)
          g.nbr.(u);
        walk ()
    in
    walk ();
    !count = g.n
  end

module Oracle = struct
  type graph = t

  (* The bridge decomposition.  Comps (2-edge-connected components) are
     numbered in the order Tarjan's pass closes them, so a comp's
     parent in the bridge forest always has a higher id than the comp
     itself.  Vertex [v] sits in comp [comp.(v)] at local index
     [local.(v)], which indexes restricted-Dijkstra results.  Comp
     [c]'s parent bridge lands on vertex [att.(c)] of comp
     [parent.(c)]; both are [-1] for the root comp of a tree. *)
  type decomposition = {
    comp : int array;
    local : int array;
    up : int array;  (** distance from the vertex up to its root comp *)
    size : int array;
    att : int array;
    parent : int array;
    depth : int array;
  }

  type t = {
    g : graph;
    dec : decomposition Lazy.t;
    rows : int array option array;
        (** memoised [d_L] rows, keyed by entry vertex [x_u], indexed
            by local index within the comp of [x_u] *)
    mutable probes : int;
  }

  let decompose g =
    let n = g.n in
    let disc = Array.make n (-1) and low = Array.make n 0 in
    let tree_parent = Array.make n (-1) and tree_w = Array.make n 0 in
    let next = Array.make n 0 in
    let calls = Array.make n 0 and n_calls = ref 0 in
    let unassigned = Array.make n 0 and n_unassigned = ref 0 in
    let comp = Array.make n (-1) and local = Array.make n 0 in
    let order = Array.make n 0 and n_ordered = ref 0 in
    let start = Array.make n 0 and size = Array.make n 0 in
    let down = Array.make n 0 in
    let n_comps = ref 0 and time = ref 0 in
    let visit v =
      disc.(v) <- !time;
      low.(v) <- !time;
      incr time;
      unassigned.(!n_unassigned) <- v;
      incr n_unassigned;
      calls.(!n_calls) <- v;
      incr n_calls
    in
    (* Pops the unassigned vertices down to [v] into a new comp, whose
       parent bridge (if any) is the tree edge above [v]. *)
    let close v =
      let c = !n_comps in
      incr n_comps;
      start.(c) <- !n_ordered;
      down.(c) <- v;
      let stop = ref false in
      while not !stop do
        decr n_unassigned;
        let x = unassigned.(!n_unassigned) in
        comp.(x) <- c;
        local.(x) <- size.(c);
        size.(c) <- size.(c) + 1;
        order.(!n_ordered) <- x;
        incr n_ordered;
        stop := x = v
      done
    in
    (* Iterative Tarjan: [calls] is the DFS path, [next.(u)] the next
       neighbour of [u] to scan.  Graphs have no parallel edges, so
       skipping the tree parent skips exactly the tree edge. *)
    for s = 0 to n - 1 do
      if disc.(s) < 0 then begin
        visit s;
        while !n_calls > 0 do
          let u = calls.(!n_calls - 1) in
          if next.(u) < Array.length g.nbr.(u) then begin
            let v, w = g.nbr.(u).(next.(u)) in
            next.(u) <- next.(u) + 1;
            if disc.(v) < 0 then begin
              tree_parent.(v) <- u;
              tree_w.(v) <- w;
              visit v
            end
            else if v <> tree_parent.(u) then
              low.(u) <- Int.min low.(u) disc.(v)
          end
          else begin
            decr n_calls;
            let p = tree_parent.(u) in
            if p < 0 then close u
            else begin
              low.(p) <- Int.min low.(p) low.(u);
              if low.(u) > disc.(p) then close u
            end
          end
        done
      end
    done;
    (* Parents first: fill depth and [up] from each comp's parent
       bridge, one Dijkstra restricted to each non-root comp. *)
    let nc = !n_comps in
    let att = Array.init nc (fun c -> tree_parent.(down.(c))) in
    let parent = Array.make nc (-1) and depth = Array.make nc 0 in
    let up = Array.make n 0 in
    for c = nc - 1 downto 0 do
      if att.(c) >= 0 then begin
        let p = comp.(att.(c)) in
        parent.(c) <- p;
        depth.(c) <- depth.(p) + 1;
        let base = tree_w.(down.(c)) + up.(att.(c)) in
        let d =
          dijkstra_within g ~comp ~c ~local ~size:size.(c) ~src:down.(c)
        in
        for i = 0 to size.(c) - 1 do
          up.(order.(start.(c) + i)) <- base + d.(i)
        done
      end
    done;
    { comp; local; up; size; att; parent; depth }

  let create g =
    {
      g;
      dec = lazy (decompose g);
      rows = Array.make g.n None;
      probes = 0;
    }

  let row o d x =
    match o.rows.(x) with
    | Some r -> r
    | None ->
      o.probes <- o.probes + 1;
      let r =
        dijkstra_within o.g ~comp:d.comp ~c:d.comp.(x) ~local:d.local
          ~size:d.size.(d.comp.(x)) ~src:x
      in
      o.rows.(x) <- Some r;
      r

  let distance o ~src ~dst =
    if src < 0 || src >= o.g.n || dst < 0 || dst >= o.g.n then
      invalid_arg "Graph.Oracle.distance: vertex out of range";
    let d = Lazy.force o.dec in
    (* Climb the bridge forest from both comps to their lowest common
       ancestor, tracking where each root path enters the current comp. *)
    let rec meet a b xa xb =
      if a = b then
        d.up.(src) - d.up.(xa)
        + (row o d xa).(d.local.(xb))
        + (d.up.(dst) - d.up.(xb))
      else if d.depth.(a) >= d.depth.(b) then
        if d.parent.(a) < 0 then max_int (* two roots: different trees *)
        else meet d.parent.(a) b d.att.(a) xb
      else meet a d.parent.(b) xa d.att.(b)
    in
    meet d.comp.(src) d.comp.(dst) src dst

  let sources_computed o = o.probes
  let probes o = o.probes
end
