(** Space-filling curves over an [m]-dimensional grid.

    The proximity-aware scheme (paper §4.2.1) divides the landmark
    space into [2{^n}] grid cells and numbers them along a Hilbert
    curve, so that cells close in space get close curve indices.

    We implement John Skilling's transpose algorithm ("Programming the
    Hilbert curve", AIP Conf. Proc. 707, 2004), which works for any
    dimension [dims >= 1] and per-axis resolution [order] bits.  A
    Morton (Z-order) curve is provided as a weaker-locality alternative
    used by the ablation benchmarks, plus the trivial row-major
    ("raw vector") numbering as a no-locality strawman.

    All indices fit in OCaml [int]: [dims * order <= 62] is enforced. *)

type curve = Hilbert | Morton | Row_major

val index_bits : dims:int -> order:int -> int
(** [dims * order], validating the bounds. *)

val encode : dims:int -> order:int -> int array -> int
(** [encode ~dims ~order coords] is the Hilbert index of the cell with
    the given coordinates.  [Array.length coords = dims]; each
    coordinate lies in [\[0, 2{^order})].  The result lies in
    [\[0, 2{^(dims * order)})]. *)

val decode : dims:int -> order:int -> int -> int array
(** Inverse of {!encode}. *)

val encode_curve : curve -> dims:int -> order:int -> int array -> int
(** Like {!encode} but along the chosen curve. *)

val decode_curve : curve -> dims:int -> order:int -> int -> int array

val morton_encode : dims:int -> order:int -> int array -> int

val curve_of_string : string -> curve option
val curve_to_string : curve -> string
