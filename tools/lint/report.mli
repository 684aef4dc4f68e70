(** Finding IDs, JSON output, baseline workflow and [--explain] texts
    for the p2plint CLI. *)

type finding = { fd_id : string; fd_viol : Lint.violation }

val assign_ids : Lint.violation list -> finding list
(** Stable IDs in input order: [<rule>-<12 hex>], hashing the rule,
    file path, offending line's text and message (plus an occurrence
    index for exact duplicates) — line numbers are excluded so IDs
    survive edits that shift code. *)

val to_json : finding list -> string
(** Deterministic JSON document ([{"version":1,"findings":[...]}]);
    byte-identical for equal inputs. *)

val baseline_ids : string -> (string list, string) result
(** Extracts the finding IDs from a baseline file's contents (the
    shape [to_json] writes).  [Error] describes the malformation. *)

val is_new : baseline:string list -> finding -> bool

val stale : baseline:string list -> finding list -> string list
(** Baseline IDs no longer present in the current findings, sorted —
    entries that should be deleted from the baseline. *)

val explain : string -> string option
(** One-paragraph explanation of a rule ("R1".."R9", "PARSE"). *)

val all_rules : string list

val run_all : string list -> Lint.violation list
(** Per-file rules (R1–R6, via {!Lint.run}) plus the whole-program
    passes (R7 taint, R9 obs) over the same paths; sorted
    with {!Lint.compare_violation}. *)
