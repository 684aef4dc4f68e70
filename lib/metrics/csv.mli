(** CSV export of experiment outputs, for external plotting.

    Minimal RFC-4180-style writer: fields containing commas, quotes or
    newlines are quoted; quotes are doubled.  Every experiment renderer
    has a CSV twin so `lb_sim --csv DIR` can dump machine-readable
    series next to the human-readable tables. *)

val escape_field : string -> string
(** Quotes the field if needed. *)

val line : string list -> string
(** One CSV record, newline-terminated. *)

val to_string : header:string list -> string list list -> string
(** Header plus rows.  All rows must match the header's arity. *)

val write_file : path:string -> header:string list -> string list list -> unit
(** Writes (truncating) a CSV file. *)

val of_histogram : Histogram.t -> string
(** Columns: bin, weight, fraction, cdf. *)
