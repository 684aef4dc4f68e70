(** R9 — obs discipline (lib/ only): a function taking [?obs] must
    pass [?obs] to every callee that accepts it, and any [begin_span]
    in a function body must be matched by an [end_span] (or replaced
    by [with_span]).

    Suppression: [allow-obs] — reasoned, on the offending line or the
    line above. *)

val analyze : Callgraph.t -> Lint.violation list
(** Sorted R9 violations over the whole program. *)
