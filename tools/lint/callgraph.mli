(** Whole-program loader & cross-module callgraph for p2plint v2.

    Parses every [.ml] under the given roots (same walker and pruning
    as {!Lint.files_of_path}), then resolves identifier paths at call
    sites into a callgraph: file-local module aliases are rewritten,
    dune [(library (name ...))] stanzas provide wrap-module names for
    fully qualified cross-library references, and unqualified module
    names fall back to same-library siblings or globally unique units.

    The analysis is syntactic (no type checking): value shadowing can
    produce a spurious edge, functor- or first-class-module-mediated
    calls produce none.  The rules built on top (R7 taint, R9 obs
    discipline) treat the graph as best-effort and
    offer per-line suppressions for the residue. *)

module SM : Map.S with type key = string

type func = {
  f_key : string;  (** unique node id: ["<lib>/<Unit>.<name>"] *)
  f_display : string;  (** ["Unit.name"], for path reporting *)
  f_unit : string;  (** owning unit key *)
  f_module : string;  (** unit (module) name, e.g. ["Controller"] *)
  f_name : string;  (** value name; dotted when inside a submodule *)
  f_file : string;
  f_line : int;
  f_col : int;
  f_params : string list;  (** ["~label"] / ["?label"] params, in order *)
  f_body : Parsetree.expression;
}

type call = {
  c_caller : string;  (** [f_key] *)
  c_callee : string;  (** [f_key] *)
  c_file : string;
  c_line : int;
  c_col : int;
  c_labels : string list;
      (** labelled/optional argument names present at the site *)
  c_applied : bool;  (** [false]: the ident floats as a value *)
}

type unit_info = {
  u_file : string;
  u_lib : string option;  (** dune library name, e.g. ["p2plb_chord"] *)
  u_name : string;  (** module name from the filename *)
  u_key : string;  (** ["<lib>/<Unit>"] *)
  u_source : string;
  u_ast : Parsetree.structure;
  u_aliases : (string * string list) list;
}

type t = {
  units : unit_info list;  (** sorted by [u_key] *)
  funcs : func list;  (** sorted by [f_key] *)
  calls : call list;  (** grouped by caller, in body order *)
  parse_errors : Lint.violation list;
}

val load : string list -> t

val func : t -> string -> func option
val unit_of : t -> string -> unit_info option
val callees : t -> string -> call list
val funcs_of_unit : t -> string -> func list

val reachable : t -> entries:string list -> (string * string list) list
(** Every function reachable (transitively, via call edges) from any
    function defined in a unit whose module name is in [entries],
    paired with the display-name path from that entry — e.g.
    [("p2plb/Vst.apply", ["Controller.run"; "Vst.apply"])].  Sorted by
    key; deterministic (BFS over sorted functions, edges in body
    order). *)
