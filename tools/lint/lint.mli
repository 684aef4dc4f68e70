(** [p2plint] — determinism & robustness linter for the p2plb simulator.

    Bit-for-bit replayable runs are a core deliverable of this
    reproduction (fault plans, seeded experiments, digest-compared
    reports).  This linter enforces, syntactically, the project rules
    that make replayability hold:

    - [R1] no polymorphic [compare]/[min]/[max], no comparison
      operators applied to tuple/constructor/record/array literals,
      and no comparison operator passed around as a bare function
      value.  Use [Int.compare], [Float.compare], [String.equal], or a
      module-local typed compare instead: polymorphic compare is
      NaN-unsafe on floats and slow on the hot paths.
    - [R2] no [Hashtbl.iter]/[Hashtbl.fold]/[Hashtbl.to_seq] whose
      result escapes without a subsequent deterministic sort in the
      same top-level binding.  Suppressible per use with
      [(* p2plint: allow-unordered — <reason> *)] on the same or the
      preceding line; the reason is mandatory.
    - [R3] no ambient nondeterminism — [Stdlib.Random], [Sys.time],
      [Unix.gettimeofday]/[Unix.time], [Hashtbl.hash]-family — outside
      [lib/prng/] and [lib/sim/], the two places allowed to own
      seeded randomness and virtual time.
    - [R4] no catch-all [try ... with _ ->] exception swallowing.
    - [R5] every [.ml] in a [lib/*] library has a matching [.mli].
    - [R6] no direct stdout/stderr writes ([print_*], [prerr_*],
      [Printf.printf]/[Printf.eprintf], [Format.printf]/
      [Format.eprintf], including [Stdlib.]-qualified forms) in any
      file under [lib/].  Library output flows through [Report]/[Csv]
      return values or the [Trace] sink, never through ambient
      channels that would interleave with a report or a JSONL trace
      stream.  Suppressible per use with
      [(* p2plint: allow-r6 — <reason> *)].

    Suppression comments exist for every syntactic rule:
    [allow-polycompare] (R1), [allow-unordered] (R2), [allow-impure]
    (R3), [allow-catchall] (R4), [allow-r6] (R6); each must carry a
    reason after an [—], [-] or [:] separator. *)

type violation = {
  v_file : string;
  v_line : int;
  v_col : int;
  v_rule : string;  (** "R1".."R9", or "PARSE" for unparseable input *)
  v_msg : string;
}

val compare_violation : violation -> violation -> int
(** Order by file, line, column, then rule and message — the report
    order (total, so [List.sort_uniq] deduplicates exact repeats
    without collapsing distinct findings at one location). *)

val to_string : violation -> string
(** Renders ["file:line: [RULE] message"]. *)

(** {1 Shared infrastructure for the whole-program passes}

    [Callgraph], [Taint] and [Protocol] (rules R7-R9) reuse the
    per-file machinery below so both layers agree on walking, parsing,
    suppression comments and the ambient-nondeterminism source list. *)

type suppression = {
  s_line : int;
  s_rule : string;
  s_reason : bool;
  s_kw : string;
}

val scan_suppressions : string -> suppression list
(** All [(* p2plint: allow-... *)] comments in a source, in line
    order.  Keywords: [allow-polycompare] (R1), [allow-unordered]
    (R2), [allow-impure] (R3), [allow-catchall] (R4), [allow-r6] (R6),
    [allow-taint] (R7), [allow-obs] (R9), [allow-r10] (R10). *)

val filter_suppressed : source:string -> violation list -> violation list
(** Drops violations covered by a reasoned suppression for the same
    rule on the violation's line or the line above. *)

val find_sub : string -> string -> int option
(** [find_sub s sub] is the index of the first occurrence of [sub]. *)

val read_file : string -> string

val parse_source :
  file:string -> string -> (Parsetree.structure, violation) result
(** Parses one implementation; [Error] carries a single [PARSE]
    violation (syntax/lexer error with its location). *)

val parse_file : string -> (Parsetree.structure, violation) result

val files_of_path : string -> string list
(** The [.ml] files under a path (a file, or a directory walked
    recursively with [_build], [.git], [lint_fixtures] and [results]
    pruned), in no particular order. *)

val in_lib_file : string -> bool
(** Whether a path lies under a [lib/] component (scope of R6/R9). *)

val flatten_lid : Longident.t -> string list
(** ["P2plb_chord.Dht.transfer_vs"] as [["P2plb_chord"; "Dht";
    "transfer_vs"]]; functor applications keep only the head. *)

val ambient_source : string list -> string option
(** [Some display_name] when a flattened longident is an
    ambient-nondeterminism source (the R3/R7 list: [Stdlib.Random],
    [Sys.time], [Unix.gettimeofday]/[Unix.time], the [Hashtbl.hash]
    family). *)

val lint_file : string -> violation list
(** Rules R1–R4 and R6 (plus suppression-comment validation) on one
    [.ml] file; R6 only when the path contains [lib/].  Unparseable
    files yield a single [PARSE] violation. *)

val check_mli_dir : string -> violation list
(** Rule R5 on one library directory: every [x.ml] directly inside it
    must have a sibling [x.mli]. *)

val run : string list -> violation list
(** Walk each path (file or directory, recursively; [_build], [.git]
    and [lint_fixtures] pruned), apply [lint_file] to every [.ml]
    found, and apply [check_mli_dir] to each immediate subdirectory of
    any path whose basename is [lib].  Result is sorted with
    {!compare_violation}. *)
