(* Compressed sparse rows: vertex [v]'s neighbours are [dst.(i)], at
   weight [wt.(i)], for [off.(v) <= i < off.(v + 1)].  Each undirected
   edge appears once in the row of each endpoint.  [dst] and [wt] are
   sized for every edge added, so a tail past [off.(n)] is unused: the
   dropped duplicates.  Graphs frozen from one builder share [off] and
   [dst]; each has its own [wt]. *)
type t = {
  n : int;
  m : int;
  off : int array;
  dst : int array;
  wt : int array;
  zero : zero option;
}

(* The zero-weight quotient.  Vertices joined by a path of weight-0
   edges form one component, and with non-negative weights every
   vertex of a component is at the same distance from any source.
   [comp.(v)] is [v]'s component, numbered in order of its lowest
   vertex, and [q] is the graph over the components: one edge per
   pair of components joined by an edge, at the least weight of those
   edges.  [None] when no edge has weight 0: the quotient is then the
   graph itself. *)
and zero = { comp : int array; q : t }

(* Edge records in insertion order, duplicates included: two ints,
   [(u lsl 31) lor v] and [(weight lsl 31) lor weight2], packed into
   chunks, so growing never copies and leaves no garbage behind.  [cur]
   is filled up to [fill]; [full] holds the earlier chunks, newest first. *)
type builder = {
  bn : int;
  mutable full : int array list;
  mutable cur : int array;
  mutable fill : int;
  mutable k : int;
}

let chunk_edges = 4096
let low31 = (1 lsl 31) - 1

let create_builder ~n =
  if n < 0 then invalid_arg "Graph.create_builder: n < 0";
  if n > low31 then invalid_arg "Graph.create_builder: n > 2^31 - 1";
  let first = Int.min chunk_edges (Int.max 16 n) in
  { bn = n; full = []; cur = Array.make (2 * first) 0; fill = 0; k = 0 }

let add_edge2 b u v ~weight ~weight2 =
  if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
    invalid_arg "Graph.add_edge: vertex out of range";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if weight < 0 || weight2 < 0 then invalid_arg "Graph.add_edge: negative weight";
  if weight > low31 || weight2 > low31 then
    invalid_arg "Graph.add_edge: weight > 2^31 - 1";
  if b.fill = Array.length b.cur then begin
    b.full <- b.cur :: b.full;
    b.cur <- Array.make (2 * chunk_edges) 0;
    b.fill <- 0
  end;
  b.cur.(b.fill) <- (u lsl 31) lor v;
  b.cur.(b.fill + 1) <- (weight lsl 31) lor weight2;
  b.fill <- b.fill + 2;
  b.k <- b.k + 1

let add_edge b u v ~weight = add_edge2 b u v ~weight ~weight2:weight

(* [f chunk len] for every chunk, oldest first: the chunk's first [len]
   ints are [len / 2] edge records, in insertion order. *)
let iter_chunks b f =
  List.iter (fun chunk -> f chunk (Array.length chunk)) (List.rev b.full);
  f b.cur b.fill

(* The zero-weight quotient of the CSR rows [off], [dst], [wt] over [n]
   vertices (see [zero]), in O(n + m). *)
let quotient ~n ~off ~dst ~wt =
  let len = off.(n) in
  let i = ref 0 in
  while !i < len && wt.(!i) > 0 do
    incr i
  done;
  if !i = len then None
  else begin
    (* Label components by a breadth-first walk over weight-0 edges,
       [queue] holding each component's vertices in turn.  Only a
       vertex with a positive-weight edge can have an edge that leaves
       its component: the walk lists those in [border], grouped by
       component ([bstart.(c)] is the first of component [c]), and
       counts their positive entries in [positive]. *)
    let comp = Array.make n (-1) and queue = Array.make n 0 in
    let border = Array.make n 0 and bstart = Array.make (n + 1) 0 in
    let nc = ref 0 and tail = ref 0 and n_border = ref 0 in
    let positive = ref 0 in
    for s = 0 to n - 1 do
      if comp.(s) < 0 then begin
        let c = !nc in
        incr nc;
        bstart.(c) <- !n_border;
        comp.(s) <- c;
        queue.(!tail) <- s;
        let head = ref !tail in
        incr tail;
        while !head < !tail do
          let u = queue.(!head) in
          incr head;
          let before = !positive in
          for i = off.(u) to off.(u + 1) - 1 do
            let v = dst.(i) in
            if wt.(i) > 0 then incr positive
            else if comp.(v) < 0 then begin
              comp.(v) <- c;
              queue.(!tail) <- v;
              incr tail
            end
          done;
          if !positive > before then begin
            border.(!n_border) <- u;
            incr n_border
          end
        done
      end
    done;
    let nc = !nc in
    bstart.(nc) <- !n_border;
    (* Row [c] gets one entry per neighbouring component, at the least
       weight: [at.(c')] is the slot of [c'] in row [c] when
       [mark.(c') = c]. *)
    let qoff = Array.make (nc + 1) 0 in
    let qdst = Array.make !positive 0 and qwt = Array.make !positive 0 in
    let mark = Array.make nc (-1) and at = Array.make nc 0 and j = ref 0 in
    for c = 0 to nc - 1 do
      qoff.(c) <- !j;
      for k = bstart.(c) to bstart.(c + 1) - 1 do
        let u = border.(k) in
        for i = off.(u) to off.(u + 1) - 1 do
          let c' = comp.(dst.(i)) in
          if c' <> c then
            if mark.(c') = c then begin
              let s = at.(c') in
              if wt.(i) < qwt.(s) then qwt.(s) <- wt.(i)
            end
            else begin
              mark.(c') <- c;
              at.(c') <- !j;
              qdst.(!j) <- c';
              qwt.(!j) <- wt.(i);
              incr j
            end
        done
      done
    done;
    qoff.(nc) <- !j;
    let q = { n = nc; m = !j / 2; off = qoff; dst = qdst; wt = qwt; zero = None } in
    Some { comp; q }
  end

(* The compacted rows of every edge added: [(m, off, dst, wt, wt2)]. *)
let rows b =
  let n = b.bn and k = b.k in
  (* Count each edge into the row of both endpoints, then place them in
     insertion order: every row lists its edges in the order they were
     added, repeats included. *)
  let off = Array.make (n + 1) 0 in
  iter_chunks b (fun chunk len ->
      for r = 0 to (len / 2) - 1 do
        let uv = chunk.(2 * r) in
        let u = uv lsr 31 and v = uv land low31 in
        off.(u + 1) <- off.(u + 1) + 1;
        off.(v + 1) <- off.(v + 1) + 1
      done);
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let next = Array.sub off 0 n in
  let dst = Array.make (2 * k) 0 in
  let wt = Array.make (2 * k) 0 and wt2 = Array.make (2 * k) 0 in
  iter_chunks b (fun chunk len ->
      for r = 0 to (len / 2) - 1 do
        let uv = chunk.(2 * r) and ww = chunk.((2 * r) + 1) in
        let u = uv lsr 31 and v = uv land low31 in
        let w = ww lsr 31 and w2 = ww land low31 in
        let i = next.(u) in
        dst.(i) <- v;
        wt.(i) <- w;
        wt2.(i) <- w2;
        next.(u) <- i + 1;
        let i = next.(v) in
        dst.(i) <- u;
        wt.(i) <- w;
        wt2.(i) <- w2;
        next.(v) <- i + 1
      done);
  (* Compact each row in place, keeping a neighbour's first entry only.
     Row [u] and row [v] both meet the pair's first-added edge first,
     so both directions keep its weights.  [seen.(v) = u] marks [v]
     already kept in row [u]. *)
  let seen = next in
  Array.fill seen 0 n (-1);
  let j = ref 0 and lo = ref 0 in
  for u = 0 to n - 1 do
    let hi = off.(u + 1) in
    off.(u) <- !j;
    for i = !lo to hi - 1 do
      let v = dst.(i) in
      if seen.(v) <> u then begin
        seen.(v) <- u;
        dst.(!j) <- v;
        wt.(!j) <- wt.(i);
        wt2.(!j) <- wt2.(i);
        incr j
      end
    done;
    lo := hi
  done;
  off.(n) <- !j;
  (!j / 2, off, dst, wt, wt2)

let graph b ~m ~off ~dst wt =
  { n = b.bn; m; off; dst; wt; zero = quotient ~n:b.bn ~off ~dst ~wt }

let freeze b =
  let m, off, dst, wt, _ = rows b in
  graph b ~m ~off ~dst wt

let freeze2 b =
  let m, off, dst, wt, wt2 = rows b in
  (graph b ~m ~off ~dst wt, graph b ~m ~off ~dst wt2)

let n_vertices g = g.n
let n_edges g = g.m
let degree g v = g.off.(v + 1) - g.off.(v)

let iter_neighbors g v f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.dst.(i) g.wt.(i)
  done

(* Binary min-heap of (key, vertex) entries held in two parallel int
   arrays, so a push allocates nothing until the arrays fill up (they
   then double).  Each Dijkstra run creates its own: Oracle rows are
   computed concurrently on several domains.  The arrays start small:
   sized to the graph, every run would put two vertex-count arrays
   straight on the major heap, which raised peak RSS by a few MB. *)
module Heap = struct
  type t = {
    mutable key : int array;
    mutable vtx : int array;
    mutable size : int;
  }

  let create () = { key = Array.make 64 0; vtx = Array.make 64 0; size = 0 }

  let push h k v =
    if h.size = Array.length h.key then begin
      let grow a =
        let bigger = Array.make (2 * h.size) 0 in
        Array.blit a 0 bigger 0 h.size;
        bigger
      in
      h.key <- grow h.key;
      h.vtx <- grow h.vtx
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.key.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      h.key.(!i) <- h.key.(p);
      h.vtx.(!i) <- h.vtx.(p);
      i := p
    done;
    h.key.(!i) <- k;
    h.vtx.(!i) <- v

  let is_empty h = h.size = 0
  let min_key h = h.key.(0)

  (* Removes the minimum entry and returns its vertex. *)
  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.vtx.(0) in
    h.size <- h.size - 1;
    let n = h.size in
    if n > 0 then begin
      let k = h.key.(n) and x = h.vtx.(n) in
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let c = if l + 1 < n && h.key.(l + 1) < h.key.(l) then l + 1 else l in
          if h.key.(c) < k then begin
            h.key.(!i) <- h.key.(c);
            h.vtx.(!i) <- h.vtx.(c);
            i := c
          end
          else sifting := false
        end
      done;
      h.key.(!i) <- k;
      h.vtx.(!i) <- x
    end;
    top
end

(* Dijkstra from [src] over the vertices [v] with [comp.(v) = c] only
   (one bridge comp of the Oracle below); the result is indexed by
   [local.(v)] and has [size] entries.  It runs on the graph itself,
   not on the zero-weight quotient: the Oracle prices the hop graph,
   where no edge has weight 0, so the quotient would be the graph. *)
let dijkstra_within g ~comp ~c ~local ~size ~src =
  let dist = Array.make size max_int in
  dist.(local.(src)) <- 0;
  let heap = Heap.create () in
  Heap.push heap 0 src;
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.pop heap in
    if d = dist.(local.(u)) then
      for i = g.off.(u) to g.off.(u + 1) - 1 do
        let v = g.dst.(i) in
        if comp.(v) = c then begin
          let nd = d + g.wt.(i) in
          if nd < dist.(local.(v)) then begin
            dist.(local.(v)) <- nd;
            Heap.push heap nd v
          end
        end
      done
  done;
  dist

(* Adjacency bitsets hold 63 vertices per word, one OCaml int: vertex
   [j] is bit [j mod 63] of word [j / 63]. *)
let word_bits = 63

(* Words in a bitset row of [size] vertices. *)
let row_words size = (size + word_bits - 1) / word_bits

(* [bit_index.(b mod 67)] is [k] for [b = 1 lsl k], [k < 62]: 2 has
   order 66 modulo the prime 67, so those residues are distinct.  Bit
   62 is the sign bit. *)
let bit_index =
  let t = Array.make 67 0 in
  for k = 0 to 61 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

(* The index of the lowest set bit of [x <> 0]. *)
let lowest_bit x =
  let b = x land -x in
  if b < 0 then 62 else bit_index.(b mod 67)

(* Breadth-first search from local vertex [src] over a comp (see
   [dijkstra_within]) whose internal arcs all weigh [weight], held as
   adjacency bitsets: [size] rows of [row_words size] words, bit [j]
   of row [i] set when local vertices [i] and [j] are adjacent.  Each
   level ORs the rows of the vertices it reaches into the next level's
   candidates, so a run reads each row once, and a vertex reached at
   level [l] is [l * weight] away.  The result is indexed by local
   vertex and has [size] entries. *)
let bfs_within bits ~size ~weight ~src =
  let words = row_words size in
  let dist = Array.make size max_int in
  let seen = Array.make words 0 in
  let next = ref (Array.make words 0) and spare = ref (Array.make words 0) in
  dist.(src) <- 0;
  seen.(src / word_bits) <- 1 lsl (src mod word_bits);
  Array.blit bits (src * words) !next 0 words;
  let d = ref weight and live = ref true in
  while !live do
    live := false;
    let cand = !next and acc = !spare in
    Array.fill acc 0 words 0;
    for k = 0 to words - 1 do
      let fresh = ref (cand.(k) land lnot seen.(k)) in
      seen.(k) <- seen.(k) lor !fresh;
      while !fresh <> 0 do
        live := true;
        let j = (k * word_bits) + lowest_bit !fresh in
        fresh := !fresh land (!fresh - 1);
        dist.(j) <- !d;
        let row = j * words in
        for l = 0 to words - 1 do
          acc.(l) <- acc.(l) lor bits.(row + l)
        done
      done
    done;
    next := acc;
    spare := cand;
    d := !d + weight
  done;
  dist

(* Dijkstra over all of [g] from [src]. *)
let shortest_paths g src =
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  let heap = Heap.create () in
  Heap.push heap 0 src;
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.pop heap in
    if d = dist.(u) then
      for i = g.off.(u) to g.off.(u + 1) - 1 do
        let v = g.dst.(i) in
        let nd = d + g.wt.(i) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          Heap.push heap nd v
        end
      done
  done;
  dist

(* The heap loop runs on the zero-weight quotient, and each vertex
   takes its component's distance.  A ts5k-large latency graph has
   thousands of vertices but only 90 components: one per stub domain
   and one per transit vertex. *)
let dijkstra g ~src =
  if src < 0 || src >= g.n then invalid_arg "Graph.dijkstra: bad src";
  match g.zero with
  | None -> shortest_paths g src
  | Some { comp; q } ->
    let dq = shortest_paths q comp.(src) in
    let dist = Array.make g.n 0 in
    for v = 0 to g.n - 1 do
      dist.(v) <- dq.(comp.(v))
    done;
    dist

let distance g ~src ~dst = (dijkstra g ~src).(dst)

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    (* Each vertex is pushed once; vertex 0 starts on the stack. *)
    let stack = Array.make g.n 0 and top = ref 1 in
    seen.(0) <- true;
    let count = ref 1 in
    while !top > 0 do
      decr top;
      let u = stack.(!top) in
      for i = g.off.(u) to g.off.(u + 1) - 1 do
        let v = g.dst.(i) in
        if not seen.(v) then begin
          seen.(v) <- true;
          incr count;
          stack.(!top) <- v;
          incr top
        end
      done
    done;
    !count = g.n
  end

module Oracle = struct
  type graph = t

  (* The bridge decomposition.  Comps (2-edge-connected components) are
     numbered in the order Tarjan's pass closes them, so a comp's
     parent in the bridge forest always has a higher id than the comp
     itself.  Vertex [v] sits in comp [comp.(v)] at local index
     [local.(v)], which indexes restricted-search results.  Comp
     [c]'s parent bridge lands on vertex [att.(c)] of comp
     [parent.(c)]; both are [-1] for the root comp of a tree.

     A comp whose adjacency bitsets (see [bfs_within]) take no more
     words than its internal arcs, and whose internal arcs all weigh
     one [weight.(c)], holds those bitsets in [bits.(c)]: breadth-first
     search answers it.  [bits.(c)] is empty for every other comp,
     which restricted Dijkstra answers.  The bitsets are bounded by
     the arcs, so by the CSR. *)
  type decomposition = {
    comp : int array;
    local : int array;
    up : int array;  (** distance from the vertex up to its root comp *)
    size : int array;
    att : int array;
    parent : int array;
    depth : int array;
    weight : int array;
    bits : int array array;
  }

  type t = {
    g : graph;
    dec : decomposition Lazy.t;
    rows : int array option array;
        (** memoised [d_L] rows, keyed by entry vertex [x_u], indexed
            by local index within the comp of [x_u] *)
    mutable probes : int;
  }

  (* Distances from [x] to every vertex of its comp, by local index. *)
  let within g d x =
    let c = d.comp.(x) in
    if Array.length d.bits.(c) = 0 then
      dijkstra_within g ~comp:d.comp ~c ~local:d.local ~size:d.size.(c) ~src:x
    else
      bfs_within d.bits.(c) ~size:d.size.(c) ~weight:d.weight.(c)
        ~src:d.local.(x)

  let decompose g =
    let n = g.n in
    let disc = Array.make n (-1) and low = Array.make n 0 in
    let tree_parent = Array.make n (-1) and tree_w = Array.make n 0 in
    let next = Array.sub g.off 0 n in
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
    (* Iterative Tarjan: [calls] is the DFS path, [next.(u)] the CSR
       index of the next neighbour of [u] to scan.  Graphs have no
       parallel edges, so skipping the tree parent skips exactly the
       tree edge. *)
    for s = 0 to n - 1 do
      if disc.(s) < 0 then begin
        visit s;
        while !n_calls > 0 do
          let u = calls.(!n_calls - 1) in
          if next.(u) < g.off.(u + 1) then begin
            let v = g.dst.(next.(u)) and w = g.wt.(next.(u)) in
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
    let nc = !n_comps in
    let d =
      {
        comp;
        local;
        up = Array.make n 0;
        size;
        att = Array.init nc (fun c -> tree_parent.(down.(c)));
        parent = Array.make nc (-1);
        depth = Array.make nc 0;
        weight = Array.make nc (-1);
        bits = Array.make nc [||];
      }
    in
    (* A comp's internal arcs are its vertices' arcs less one per
       bridge end in it: its parent bridge's and its children's. *)
    let arcs = Array.make nc 0 in
    for v = 0 to n - 1 do
      arcs.(comp.(v)) <- arcs.(comp.(v)) + degree g v
    done;
    Array.iteri
      (fun c a ->
        if a >= 0 then begin
          arcs.(c) <- arcs.(c) - 1;
          arcs.(comp.(a)) <- arcs.(comp.(a)) - 1
        end)
      d.att;
    (* Comp [c]'s bitsets, when they fit in its internal arcs, kept
       when those arcs share one weight. *)
    let fill_bits c =
      let words = row_words size.(c) in
      if size.(c) * words <= arcs.(c) then begin
        let bits = Array.make (size.(c) * words) 0 in
        let w = ref (-1) and uniform = ref true in
        for i = 0 to size.(c) - 1 do
          let u = order.(start.(c) + i) in
          for a = g.off.(u) to g.off.(u + 1) - 1 do
            let v = g.dst.(a) in
            if comp.(v) = c then begin
              if !w < 0 then w := g.wt.(a)
              else if g.wt.(a) <> !w then uniform := false;
              let j = local.(v) in
              let k = (i * words) + (j / word_bits) in
              bits.(k) <- bits.(k) lor (1 lsl (j mod word_bits))
            end
          done
        done;
        if !uniform then begin
          d.weight.(c) <- !w;
          d.bits.(c) <- bits
        end
      end
    in
    (* Parents first: each comp's bitsets, then, below a bridge, its
       depth and [up], one search within the comp. *)
    for c = nc - 1 downto 0 do
      fill_bits c;
      let a = d.att.(c) in
      if a >= 0 then begin
        let p = comp.(a) in
        d.parent.(c) <- p;
        d.depth.(c) <- d.depth.(p) + 1;
        let base = tree_w.(down.(c)) + d.up.(a) in
        let dist = within g d down.(c) in
        for i = 0 to size.(c) - 1 do
          d.up.(order.(start.(c) + i)) <- base + dist.(i)
        done
      end
    done;
    d

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
      let r = within o.g d x in
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
