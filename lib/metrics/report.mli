(** Plain-text rendering of experiment outputs: aligned tables and a
    simple ASCII scatter/line plot, so each bench target can print the
    same rows/series the paper's figures show. *)

val table :
  ?title:string -> header:string list -> string list list -> string
(** [table ~header rows] renders an aligned, pipe-separated table.
    All rows must have the same arity as the header. *)

val float_cell : float -> string
(** Compact numeric formatting used across reports ("%.4g"). *)

val percent_cell : float -> string
(** Renders a fraction as a percentage with one decimal ("67.2%"). *)

val ascii_plot :
  ?title:string ->
  ?x_label:string ->
  ?y_label:string ->
  series:(string * (float * float) list) list ->
  unit ->
  string
(** Multi-series scatter plot on a 72 × 20 character grid.  Each
    series gets a distinct glyph; a legend, axis ranges and labels are
    included.  Intended for eyeballing the shape of the paper's
    figures in a terminal. *)
