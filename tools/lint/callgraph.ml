(* Whole-program loader & cross-module callgraph.

   [load] parses every [.ml] under the given roots with the same
   walker and parser as the per-file rules, then resolves identifier
   paths at call sites into a callgraph.  Resolution is syntactic but
   module-aware:

   - file-local aliases ([module Dht = P2plb_chord.Dht]) rewrite the
     head of a path before lookup;
   - a dune [(library (name p2plb_chord))] stanza next to a unit gives
     it a wrap module ([P2plb_chord]), so fully qualified
     [P2plb_chord.Dht.f] and in-library bare [Dht.f] both resolve;
   - an unqualified module name resolves to a sibling unit of the same
     library, else to a globally unique unit of that name (covers
     libraries without dune metadata, e.g. fixture programs).

   There is no type checking, so value-level shadowing of a top-level
   name inside a function body can produce a spurious edge, and calls
   through functors or first-class modules produce none.  Both are
   acceptable for the lint rules built on top (R7 taint, R9 obs
   discipline): edges feed path *reporting* and reachability,
   and every rule has a per-line suppression for the residue. *)

module SM = Map.Make (String)

type func = {
  f_key : string;  (* unique node id: "<lib>/<Unit>.<name>" *)
  f_display : string;  (* "Unit.name", for path reporting *)
  f_unit : string;  (* owning unit key *)
  f_module : string;  (* unit (module) name, e.g. "Controller" *)
  f_name : string;  (* value name; dotted when inside a submodule *)
  f_file : string;
  f_line : int;
  f_col : int;
  f_params : string list;  (* "~label" / "?label" parameters, in order *)
  f_body : Parsetree.expression;
}

type call = {
  c_caller : string;  (* f_key *)
  c_callee : string;  (* f_key *)
  c_file : string;
  c_line : int;
  c_col : int;
  c_labels : string list;  (* labelled/optional argument names at the site *)
  c_applied : bool;  (* false: the ident floats as a value *)
}

type unit_info = {
  u_file : string;
  u_lib : string option;  (* dune library name, e.g. "p2plb_chord" *)
  u_name : string;  (* module name from the filename, e.g. "Dht" *)
  u_key : string;  (* "<lib>/<Unit>" *)
  u_source : string;
  u_ast : Parsetree.structure;
  u_aliases : (string * string list) list;  (* module alias -> path *)
}

type t = {
  units : unit_info list;  (* sorted by u_key *)
  funcs : func list;  (* sorted by f_key *)
  calls : call list;  (* grouped by caller, in body order *)
  parse_errors : Lint.violation list;
}

(* ---- dune metadata ----------------------------------------------------- *)

(* The library name of the first [(library (name X))] stanza in a
   directory's [dune] file, if any.  A hand-rolled scan: dune's sexp
   surface here is regular enough, and tools/ must not grow opam
   dependencies. *)
let dune_library_name dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then None
  else
    let s = Lint.read_file dune in
    match Lint.find_sub s "(library" with
    | None -> None
    | Some i -> (
      let rest = String.sub s i (String.length s - i) in
      match Lint.find_sub rest "(name" with
      | None -> None
      | Some j ->
        let n = String.length rest in
        let k = ref (j + String.length "(name") in
        while
          !k < n && (rest.[!k] = ' ' || rest.[!k] = '\t' || rest.[!k] = '\n')
        do
          incr k
        done;
        let e = ref !k in
        while
          !e < n
          && (match rest.[!e] with
             | ')' | ' ' | '\t' | '\n' -> false
             | _ -> true)
        do
          incr e
        done;
        if !e > !k then Some (String.sub rest !k (!e - !k)) else None)

(* ---- per-unit collection ----------------------------------------------- *)

open Parsetree

let rec pat_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (inner, _) -> pat_var inner
  | _ -> None

let params_of expr =
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_fun (label, _, _, body) ->
      let acc =
        match label with
        | Asttypes.Labelled s -> ("~" ^ s) :: acc
        | Asttypes.Optional s -> ("?" ^ s) :: acc
        | Asttypes.Nolabel -> acc
      in
      go acc body
    | Pexp_newtype (_, body) -> go acc body
    | _ -> List.rev acc
  in
  go [] expr

let collect_aliases items =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          {
            pmb_name = { txt = Some m; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _;
          } ->
        Some (m, Lint.flatten_lid txt)
      | _ -> None)
    items

(* Top-level value bindings, descending one or more levels of inline
   [module M = struct ... end] with a dotted prefix ("Oracle.distance"). *)
let collect_funcs (u : unit_info) =
  let rec go prefix items acc =
    List.fold_left
      (fun acc item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb ->
              match pat_var vb.pvb_pat with
              | None -> acc
              | Some name ->
                let qname = prefix ^ name in
                let p = vb.pvb_loc.Location.loc_start in
                {
                  f_key = u.u_key ^ "." ^ qname;
                  f_display = u.u_name ^ "." ^ qname;
                  f_unit = u.u_key;
                  f_module = u.u_name;
                  f_name = qname;
                  f_file = u.u_file;
                  f_line = p.pos_lnum;
                  f_col = p.pos_cnum - p.pos_bol;
                  f_params = params_of vb.pvb_expr;
                  f_body = vb.pvb_expr;
                }
                :: acc)
            acc vbs
        | Pstr_module
            {
              pmb_name = { txt = Some m; _ };
              pmb_expr = { pmod_desc = Pmod_structure inner; _ };
              _;
            } ->
          go (prefix ^ m ^ ".") inner acc
        | _ -> acc)
      acc items
  in
  go "" u.u_ast []

(* ---- resolution -------------------------------------------------------- *)

type maps = {
  m_funcs_by_unit : func SM.t SM.t;  (* unit key -> name -> func *)
  m_units_by_name : string list SM.t;  (* module name -> unit keys *)
  m_wraps : string SM.t;  (* "P2plb_chord" -> "p2plb_chord" *)
}

let unit_key ~lib name =
  (match lib with Some l -> l ^ "/" | None -> "") ^ name

let lookup_in_unit maps ukey name =
  match SM.find_opt ukey maps.m_funcs_by_unit with
  | None -> None
  | Some funcs -> (
    match SM.find_opt name funcs with
    | Some f -> Some f
    | None ->
      (* bare reference from inside a submodule to a sibling: unique
         suffix match ("dist" -> "Oracle.dist") *)
      let suffix = "." ^ name in
      let cands =
        SM.fold
          (fun k f acc ->
            let lk = String.length k and ls = String.length suffix in
            if lk >= ls && String.equal (String.sub k (lk - ls) ls) suffix
            then f :: acc
            else acc)
          funcs []
      in
      (match cands with [ f ] -> Some f | _ -> None))

let resolve maps (u : unit_info) path =
  let path =
    match path with
    | head :: rest -> (
      match List.assoc_opt head u.u_aliases with
      | Some target -> target @ rest
      | None -> path)
    | [] -> []
  in
  match path with
  | [] -> None
  | [ name ] -> lookup_in_unit maps u.u_key name
  | head :: rest -> (
    let try_unit ukey comps =
      match comps with
      | [] -> None
      | _ -> lookup_in_unit maps ukey (String.concat "." comps)
    in
    let as_wrap =
      match SM.find_opt head maps.m_wraps with
      | Some lib -> (
        match rest with
        | m :: comps -> try_unit (unit_key ~lib:(Some lib) m) comps
        | [] -> None)
      | None -> None
    in
    match as_wrap with
    | Some f -> Some f
    | None -> (
      match try_unit (unit_key ~lib:u.u_lib head) rest with
      | Some f -> Some f
      | None -> (
        match SM.find_opt head maps.m_units_by_name with
        | Some [ ukey ] -> try_unit ukey rest
        | Some _ | None -> None)))

let calls_of maps (u : unit_info) (f : func) =
  let out = ref [] in
  let record ~applied ~labels (loc : Location.t) lid =
    match resolve maps u (Lint.flatten_lid lid) with
    | None -> ()
    | Some callee ->
      let p = loc.loc_start in
      out :=
        {
          c_caller = f.f_key;
          c_callee = callee.f_key;
          c_file = u.u_file;
          c_line = p.pos_lnum;
          c_col = p.pos_cnum - p.pos_bol;
          c_labels = labels;
          c_applied = applied;
        }
        :: !out
  in
  let super = Ast_iterator.default_iterator in
  let expr (iter : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      let labels =
        List.filter_map
          (fun (l, _) ->
            match l with
            | Asttypes.Labelled s | Asttypes.Optional s -> Some s
            | Asttypes.Nolabel -> None)
          args
      in
      record ~applied:true ~labels loc txt;
      List.iter (fun (_, a) -> iter.expr iter a) args
    | Pexp_ident { txt; loc } -> record ~applied:false ~labels:[] loc txt
    | _ -> super.expr iter e
  in
  let iter = { super with expr } in
  iter.expr iter f.f_body;
  List.rev !out

(* ---- loading ----------------------------------------------------------- *)

let load paths =
  let files =
    List.sort_uniq String.compare (List.concat_map Lint.files_of_path paths)
  in
  let lib_cache = ref SM.empty in
  let lib_of_dir dir =
    match SM.find_opt dir !lib_cache with
    | Some l -> l
    | None ->
      let l = dune_library_name dir in
      lib_cache := SM.add dir l !lib_cache;
      l
  in
  let units, parse_errors =
    List.fold_left
      (fun (units, errs) file ->
        let source = Lint.read_file file in
        match Lint.parse_source ~file source with
        | Error v -> (units, v :: errs)
        | Ok ast ->
          let name =
            String.capitalize_ascii
              (Filename.chop_suffix (Filename.basename file) ".ml")
          in
          let lib = lib_of_dir (Filename.dirname file) in
          let u =
            {
              u_file = file;
              u_lib = lib;
              u_name = name;
              u_key = unit_key ~lib name;
              u_source = source;
              u_ast = ast;
              u_aliases = collect_aliases ast;
            }
          in
          (u :: units, errs))
      ([], []) files
  in
  let units =
    List.sort (fun a b -> String.compare a.u_key b.u_key) units
  in
  let funcs =
    List.concat_map collect_funcs units
    |> List.sort (fun a b ->
           match String.compare a.f_key b.f_key with
           | 0 -> Int.compare a.f_line b.f_line
           | c -> c)
  in
  let maps =
    {
      m_funcs_by_unit =
        List.fold_left
          (fun m (f : func) ->
            let cur =
              match SM.find_opt f.f_unit m with Some u -> u | None -> SM.empty
            in
            SM.add f.f_unit (SM.add f.f_name f cur) m)
          SM.empty funcs;
      m_units_by_name =
        List.fold_left
          (fun m u ->
            let cur =
              match SM.find_opt u.u_name m with Some l -> l | None -> []
            in
            SM.add u.u_name (cur @ [ u.u_key ]) m)
          SM.empty units;
      m_wraps =
        List.fold_left
          (fun m u ->
            match u.u_lib with
            | Some l -> SM.add (String.capitalize_ascii l) l m
            | None -> m)
          SM.empty units;
    }
  in
  let unit_by_key =
    List.fold_left (fun m u -> SM.add u.u_key u m) SM.empty units
  in
  let calls =
    List.concat_map
      (fun (f : func) ->
        match SM.find_opt f.f_unit unit_by_key with
        | Some u -> calls_of maps u f
        | None -> [])
      funcs
  in
  { units; funcs; calls; parse_errors = List.rev parse_errors }

(* ---- queries ----------------------------------------------------------- *)

let func t key = List.find_opt (fun f -> String.equal f.f_key key) t.funcs

let unit_of t key =
  List.find_opt (fun u -> String.equal u.u_key key) t.units

let callees t key =
  List.filter (fun c -> String.equal c.c_caller key) t.calls

let funcs_of_unit t ukey =
  List.filter (fun f -> String.equal f.f_unit ukey) t.funcs

(* ---- reachability ------------------------------------------------------ *)

(* BFS from every function of the entry units, deterministic because
   [t.funcs] is sorted and per-caller edges come back in body order.
   Each reached function carries the display path from its entry. *)
let reachable t ~entries =
  let by_key =
    List.fold_left (fun m (f : func) -> SM.add f.f_key f m) SM.empty t.funcs
  in
  let adj =
    List.fold_left
      (fun m c ->
        let cur =
          match SM.find_opt c.c_caller m with Some l -> l | None -> []
        in
        SM.add c.c_caller (c.c_callee :: cur) m)
      SM.empty t.calls
    |> SM.map List.rev
  in
  let visited = ref SM.empty in
  let q = Queue.create () in
  List.iter
    (fun (f : func) ->
      if List.mem f.f_module entries && not (SM.mem f.f_key !visited) then begin
        visited := SM.add f.f_key [ f.f_display ] !visited;
        Queue.add f.f_key q
      end)
    t.funcs;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    let path =
      match SM.find_opt k !visited with Some p -> p | None -> []
    in
    List.iter
      (fun callee_key ->
        if not (SM.mem callee_key !visited) then
          match SM.find_opt callee_key by_key with
          | Some callee ->
            visited :=
              SM.add callee_key (path @ [ callee.f_display ]) !visited;
            Queue.add callee_key q
          | None -> ())
      (match SM.find_opt k adj with Some l -> l | None -> [])
  done;
  SM.bindings !visited
