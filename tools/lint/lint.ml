(* p2plint — determinism & robustness linter.  Parses every [.ml] with
   compiler-libs ([Parse.implementation]) and walks the Parsetree with
   [Ast_iterator]; no opam dependencies beyond the compiler itself.

   The checks are deliberately syntactic: we do not type-check, so a
   locally shadowed [compare] or a genuinely order-independent
   [Hashtbl.fold] may be flagged.  That is what the per-rule
   suppression comments are for — each carries a reason, so every
   exception to a determinism rule is documented at the use site. *)

type violation = {
  v_file : string;
  v_line : int;
  v_col : int;
  v_rule : string;
  v_msg : string;
}

let compare_violation a b =
  match String.compare a.v_file b.v_file with
  | 0 -> (
    match Int.compare a.v_line b.v_line with
    | 0 -> (
      match Int.compare a.v_col b.v_col with
      | 0 -> (
        match String.compare a.v_rule b.v_rule with
        | 0 -> String.compare a.v_msg b.v_msg
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let to_string v = Printf.sprintf "%s:%d: [%s] %s" v.v_file v.v_line v.v_rule v.v_msg

(* ---- suppression comments --------------------------------------------- *)

(* [(* p2plint: allow-<rule> — <reason> *)] on the line of the
   violation or the line just above it.  The reason is mandatory: a
   suppression without one does not suppress and is itself reported. *)

type suppression = { s_line : int; s_rule : string; s_reason : bool; s_kw : string }

let rule_of_keyword = function
  | "allow-polycompare" -> Some "R1"
  | "allow-unordered" -> Some "R2"
  | "allow-impure" -> Some "R3"
  | "allow-catchall" -> Some "R4"
  | "allow-r6" -> Some "R6"
  | "allow-taint" -> Some "R7"
  | "allow-obs" -> Some "R9"
  | "allow-r10" -> Some "R10"
  | _ -> None

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let parse_suppression ~line text =
  match find_sub text "p2plint:" with
  | None -> None
  | Some i ->
    let n = String.length text in
    let j = ref (i + String.length "p2plint:") in
    while !j < n && (text.[!j] = ' ' || text.[!j] = '\t') do
      incr j
    done;
    let k = ref !j in
    while
      !k < n && (is_alnum text.[!k] || text.[!k] = '-' || text.[!k] = '_')
    do
      incr k
    done;
    let kw = String.sub text !j (!k - !j) in
    (match rule_of_keyword kw with
    | None -> None
    | Some rule ->
      let rest = String.sub text !k (n - !k) in
      let rest =
        match find_sub rest "*)" with
        | Some p -> String.sub rest 0 p
        | None -> rest
      in
      (* Any alphanumeric content after the keyword (past the em-dash /
         colon separator) counts as a reason. *)
      let has_reason = String.exists is_alnum rest in
      Some { s_line = line; s_rule = rule; s_reason = has_reason; s_kw = kw })

let scan_suppressions source =
  let out = ref [] in
  let line = ref 0 in
  String.split_on_char '\n' source
  |> List.iter (fun text ->
         incr line;
         match parse_suppression ~line:!line text with
         | Some s -> out := s :: !out
         | None -> ());
  List.rev !out

(* Shared by the whole-program analyses (R7 and R9, tools/lint/taint.ml and
   protocol.ml), whose violations are produced outside [lint_source]
   and therefore filter themselves.  A violation is suppressed by a
   reasoned comment for the same rule on its own line or the line
   above. *)
let filter_suppressed ~source viols =
  let sups = scan_suppressions source in
  List.filter
    (fun v ->
      not
        (List.exists
           (fun s ->
             s.s_reason
             && String.equal s.s_rule v.v_rule
             && (s.s_line = v.v_line || s.s_line = v.v_line - 1))
           sups))
    viols

(* ---- AST checks (R1–R4) ----------------------------------------------- *)

open Parsetree

let rec flatten_lid lid =
  match lid with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (_, l) -> flatten_lid l

let poly_fns = [ "compare"; "min"; "max" ]
let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let sort_fns =
  [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

let hashtbl_unordered =
  [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values";
    "filter_map_inplace" ]

(* Ambient-nondeterminism sources — the R3 list, factored out so the
   interprocedural taint pass (R7, tools/lint/taint.ml) shares exactly
   the same source definition.  Returns the display name of the source
   when [path] (a flattened longident) is one. *)
let ambient_source path =
  let hash_fns = [ "hash"; "seeded_hash"; "hash_param"; "randomize" ] in
  match path with
  | "Random" :: _ :: _ | "Stdlib" :: "Random" :: _ :: _ ->
    Some (String.concat "." path)
  | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
    Some (String.concat "." path)
  | [ "Unix"; ("gettimeofday" | "time") ] -> Some (String.concat "." path)
  | [ "Hashtbl"; f ] when List.mem f hash_fns -> Some (String.concat "." path)
  | [ "Stdlib"; "Hashtbl"; f ] when List.mem f hash_fns ->
    Some (String.concat "." path)
  | _ -> None

(* R6: libraries must not write to stdout/stderr themselves — rendered
   output flows through [Report]/[Csv] return values and diagnostics
   through the [Trace] sink, so that a library call never interleaves
   stray text into a report or a JSONL trace stream. *)
let print_fns =
  [ "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_bytes"; "print_int"; "print_float";
    "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char";
    "prerr_bytes"; "prerr_int"; "prerr_float" ]

let printf_mods = [ "Printf"; "Format" ]
let printf_fns = [ "printf"; "eprintf" ]

(* A syntactically structural value: comparing one of these with a
   polymorphic operator is certainly a deep structural comparison
   (NaN-unsafe if a float hides inside, and never the typed fast
   path).  Constant constructors ([None], [[]], [true]) are excluded:
   equality against a constant constructor stops at the tag. *)
let rec is_structural e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (inner, _) -> is_structural inner
  | _ -> false

type ctx = {
  file : string;
  r3_exempt : bool;  (* lib/prng/ and lib/sim/ own randomness & time *)
  in_lib : bool;  (* R6 applies only under lib/ *)
  hashtbl_mods : string list;
      (* module names bound to [Hashtbl] (alias) or [Hashtbl.Make]/
         [MakeSeeded] instances in this file: their traversals are as
         unordered as the originals (R2) *)
  mutable viols : violation list;
  mutable open_depth : int;  (* inside [M.(...)] / [let open M in ...] *)
  mutable item_depth : int;  (* nesting of structure items *)
  mutable item_sorts : bool;  (* a deterministic sort call was seen *)
  mutable item_pending : violation list;  (* R2 candidates *)
}

(* Prepass for the R2 blind spots: a file-local [module H = Hashtbl]
   or [module T = Hashtbl.Make (...)] launders the unordered traversal
   behind a fresh module name; collect those names so [H.iter] /
   [T.fold] are held to the same rule. *)
let collect_hashtbl_mods ast =
  let out = ref [] in
  let is_hashtbl_path path =
    match path with
    | [ "Hashtbl" ] | [ "Stdlib"; "Hashtbl" ] | [ "MoreLabels"; "Hashtbl" ] ->
      true
    | _ -> false
  in
  let is_make_path path =
    match path with
    | [ "Hashtbl"; ("Make" | "MakeSeeded") ]
    | [ "Stdlib"; "Hashtbl"; ("Make" | "MakeSeeded") ]
    | [ "MoreLabels"; "Hashtbl"; ("Make" | "MakeSeeded") ] ->
      true
    | _ -> false
  in
  let binds_hashtbl (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> is_hashtbl_path (flatten_lid txt)
    | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
      is_make_path (flatten_lid txt)
    | _ -> false
  in
  let super = Ast_iterator.default_iterator in
  let module_binding (iter : Ast_iterator.iterator) mb =
    (match mb.pmb_name.txt with
    | Some name when binds_hashtbl mb.pmb_expr -> out := name :: !out
    | Some _ | None -> ());
    super.module_binding iter mb
  in
  let iter = { super with module_binding } in
  iter.structure iter ast;
  List.rev !out

let add ctx (loc : Location.t) rule msg =
  let p = loc.loc_start in
  ctx.viols <-
    {
      v_file = ctx.file;
      v_line = p.pos_lnum;
      v_col = p.pos_cnum - p.pos_bol;
      v_rule = rule;
      v_msg = msg;
    }
    :: ctx.viols

let pending_r2 ctx (loc : Location.t) msg =
  let p = loc.loc_start in
  let v =
    {
      v_file = ctx.file;
      v_line = p.pos_lnum;
      v_col = p.pos_cnum - p.pos_bol;
      v_rule = "R2";
      v_msg = msg;
    }
  in
  ctx.item_pending <- v :: ctx.item_pending

(* One longident use site.  [args] is [Some args] when the ident is the
   function of an application, [None] when it floats as a value. *)
let check_lid ctx (loc : Location.t) lid ~args =
  let path = flatten_lid lid in
  match path with
  | [ f ] when List.mem f poly_fns ->
    if ctx.open_depth = 0 then
      add ctx loc "R1"
        (Printf.sprintf
           "polymorphic '%s': use Int.%s/Float.%s or a module-local typed \
            comparator"
           f f f)
  | [ "Stdlib"; f ] when List.mem f poly_fns ->
    add ctx loc "R1"
      (Printf.sprintf
         "polymorphic 'Stdlib.%s': use Int.%s/Float.%s or a module-local \
          typed comparator"
         f f f)
  | [ op ] when List.mem op cmp_ops -> (
    match args with
    | Some (a :: b :: _) ->
      if is_structural a || is_structural b then
        add ctx loc "R1"
          (Printf.sprintf
             "comparison operator (%s) applied to a tuple/constructor/record \
              literal: write a typed comparator"
             op)
    | Some _ | None ->
      if ctx.open_depth = 0 then
        add ctx loc "R1"
          (Printf.sprintf
             "polymorphic (%s) used as a function value: use \
              Int.equal/Float.compare/String.equal"
             op))
  | [ "Hashtbl"; fn ] when List.mem fn hashtbl_unordered ->
    pending_r2 ctx loc
      (Printf.sprintf
         "Hashtbl.%s iterates in unspecified order: sort the result, or \
          annotate with (* p2plint: allow-unordered — <reason> *)"
         fn)
  | [ "Stdlib"; "Hashtbl"; fn ] | [ "MoreLabels"; "Hashtbl"; fn ]
    when List.mem fn hashtbl_unordered ->
    pending_r2 ctx loc
      (Printf.sprintf
         "%s.%s iterates in unspecified order: sort the result, or annotate \
          with (* p2plint: allow-unordered — <reason> *)"
         (String.concat "." (List.filteri (fun i _ -> i < 2) path))
         fn)
  | [ m; fn ] when List.mem m ctx.hashtbl_mods && List.mem fn hashtbl_unordered
    ->
    pending_r2 ctx loc
      (Printf.sprintf
         "%s.%s iterates in unspecified order (%s is a Hashtbl alias or \
          Hashtbl.Make instance): sort the result, or annotate with \
          (* p2plint: allow-unordered — <reason> *)"
         m fn m)
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param" | "randomize") ] ->
    if not ctx.r3_exempt then
      add ctx loc "R3"
        (Printf.sprintf "'%s' outside lib/prng//lib/sim: hash-derived state \
                         breaks replay; thread a Prng.t"
           (String.concat "." path))
  | "Random" :: _ | [ "Stdlib"; "Random" ] | "Stdlib" :: "Random" :: _ ->
    if not ctx.r3_exempt then
      add ctx loc "R3"
        (Printf.sprintf
           "'%s' outside lib/prng//lib/sim: use the seeded Prng.t threaded \
            through the scenario"
           (String.concat "." path))
  | [ "Sys"; "time" ] | [ "Unix"; ("gettimeofday" | "time") ] ->
    if not ctx.r3_exempt then
      add ctx loc "R3"
        (Printf.sprintf
           "'%s' outside lib/prng//lib/sim: wall-clock reads break replay; \
            use the simulator clock"
           (String.concat "." path))
  | [ ("List" | "Array" | "ListLabels" | "ArrayLabels"); fn ]
    when List.mem fn sort_fns ->
    ctx.item_sorts <- true
  | [ f ] when ctx.in_lib && List.mem f print_fns ->
    if ctx.open_depth = 0 then
      add ctx loc "R6"
        (Printf.sprintf
           "'%s' inside lib/: libraries must not write to stdout/stderr; \
            return the text (Report/Csv) or emit a Trace point"
           f)
  | [ "Stdlib"; f ] when ctx.in_lib && List.mem f print_fns ->
    add ctx loc "R6"
      (Printf.sprintf
         "'Stdlib.%s' inside lib/: libraries must not write to \
          stdout/stderr; return the text (Report/Csv) or emit a Trace point"
         f)
  | [ m; f ]
    when ctx.in_lib && List.mem m printf_mods && List.mem f printf_fns ->
    add ctx loc "R6"
      (Printf.sprintf
         "'%s.%s' inside lib/: libraries must not write to stdout/stderr; \
          build the string (sprintf/asprintf) and return it, or emit a \
          Trace point"
         m f)
  | [ "Stdlib"; m; f ]
    when ctx.in_lib && List.mem m printf_mods && List.mem f printf_fns ->
    add ctx loc "R6"
      (Printf.sprintf
         "'Stdlib.%s.%s' inside lib/: libraries must not write to \
          stdout/stderr; build the string (sprintf/asprintf) and return it, \
          or emit a Trace point"
         m f)
  | _ -> ()

let rec pattern_catches_all p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (inner, _) -> pattern_catches_all inner
  | Ppat_or (a, b) -> pattern_catches_all a || pattern_catches_all b
  | Ppat_constraint (inner, _) -> pattern_catches_all inner
  | _ -> false

let check_try ctx cases =
  List.iter
    (fun c ->
      if pattern_catches_all c.pc_lhs then
        add ctx c.pc_lhs.ppat_loc "R4"
          "catch-all exception handler ('try ... with _ ->') swallows \
           failures: match the specific exceptions instead")
    cases

(* ---- R10: domain discipline ------------------------------------------- *)

(* Task closures handed to [Par.run] execute on worker domains, so a
   ref cell, Hashtbl or mutable record field captured from the
   enclosing scope is mutated without synchronisation — a data race,
   or at best results that depend on domain scheduling.  The check is
   syntactic: inside a function literal that is an argument of a
   [Par.run] application we flag ref reads/writes ([!], [:=],
   [incr]/[decr]), [Hashtbl] mutators and mutable-field writes whose
   subject identifier is not bound anywhere inside the closure itself.
   Index-disjoint [Array] writes — the sanctioned way to return
   per-task results — are deliberately not flagged. *)

let hashtbl_mutators = [ "add"; "replace"; "remove"; "reset"; "clear" ]

let is_par_run path =
  match List.rev path with "run" :: "Par" :: _ -> true | _ -> false

let r10_scan ctx closure =
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let collect =
    let super = Ast_iterator.default_iterator in
    let pat (iter : Ast_iterator.iterator) p =
      (match p.ppat_desc with
      | Ppat_var { txt; _ } -> Hashtbl.replace locals txt ()
      | Ppat_alias (_, { txt; _ }) -> Hashtbl.replace locals txt ()
      | _ -> ());
      super.pat iter p
    in
    { super with pat }
  in
  collect.expr collect closure;
  let captured x = not (Hashtbl.mem locals x) in
  let flag loc what x =
    add ctx loc "R10"
      (Printf.sprintf
         "%s '%s' captured from outside a Par.run task closure: tasks run on \
          separate domains, so shared mutable state races; keep the state \
          inside the closure, return it from the task and merge after \
          Par.run, or annotate with (* p2plint: allow-r10 — <reason> *)"
         what x)
  in
  let super = Ast_iterator.default_iterator in
  let expr (iter : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; loc }; _ },
          (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ })
          :: _ )
      when captured x ->
      flag loc "assignment to ref" x
    | Pexp_apply
        ( {
            pexp_desc =
              Pexp_ident
                { txt = Longident.Lident (("incr" | "decr") as f); loc };
            _;
          },
          [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) ]
        )
      when captured x ->
      flag loc (Printf.sprintf "'%s' of ref" f) x
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "!"; loc }; _ },
          [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) ]
        )
      when captured x ->
      flag loc "read of ref" x
    | Pexp_setfield
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident x; loc }; _ }, _, _)
      when captured x ->
      flag loc "mutable-field write on" x
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt; loc }; _ },
          (_, { pexp_desc = Pexp_ident { txt = Longident.Lident h; _ }; _ })
          :: _ ) -> (
      match flatten_lid txt with
      | [ "Hashtbl"; fn ]
      | [ "Stdlib"; "Hashtbl"; fn ]
      | [ "MoreLabels"; "Hashtbl"; fn ]
        when List.mem fn hashtbl_mutators && captured h ->
        flag loc (Printf.sprintf "Hashtbl.%s on table" fn) h
      | _ -> ())
    | _ -> ());
    super.expr iter e
  in
  let it = { super with expr } in
  it.expr it closure

let make_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let expr (iter : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_open (_, body) ->
      ctx.open_depth <- ctx.open_depth + 1;
      iter.expr iter body;
      ctx.open_depth <- ctx.open_depth - 1
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      check_lid ctx loc txt ~args:(Some (List.map snd args));
      if is_par_run (flatten_lid txt) then
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> r10_scan ctx a
            | _ -> ())
          args;
      List.iter (fun (_, a) -> iter.expr iter a) args
    | Pexp_ident { txt; loc } -> check_lid ctx loc txt ~args:None
    | Pexp_try (body, cases) ->
      check_try ctx cases;
      iter.expr iter body;
      List.iter (iter.case iter) cases
    | _ -> super.expr iter e
  in
  let structure_item (iter : Ast_iterator.iterator) item =
    if ctx.item_depth > 0 then super.structure_item iter item
    else begin
      ctx.item_depth <- 1;
      ctx.item_sorts <- false;
      ctx.item_pending <- [];
      super.structure_item iter item;
      ctx.item_depth <- 0;
      (* R2 resolution: a deterministic sort in the same top-level
         binding redeems the unordered traversal. *)
      if not ctx.item_sorts then
        ctx.viols <- ctx.item_pending @ ctx.viols;
      ctx.item_sorts <- false;
      ctx.item_pending <- []
    end
  in
  { super with expr; structure_item }

(* ---- per-file driver --------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let r3_exempt_file path =
  let has sub =
    match find_sub path sub with Some _ -> true | None -> false
  in
  has "lib/prng/" || has "lib/sim/"

let in_lib_file path =
  match find_sub path "lib/" with Some _ -> true | None -> false

let parse_source ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error _ ->
    Error
      { v_file = file; v_line = lexbuf.lex_curr_p.pos_lnum; v_col = 0;
        v_rule = "PARSE"; v_msg = "syntax error" }
  | exception Lexer.Error (_, loc) ->
    Error
      { v_file = file; v_line = loc.loc_start.pos_lnum; v_col = 0;
        v_rule = "PARSE"; v_msg = "lexer error" }

let parse_file file = parse_source ~file (read_file file)

let lint_source ~file source =
  match parse_source ~file source with
  | Error v -> [ v ]
  | Ok ast ->
    let ctx =
      {
        file;
        r3_exempt = r3_exempt_file file;
        in_lib = in_lib_file file;
        hashtbl_mods = collect_hashtbl_mods ast;
        viols = [];
        open_depth = 0;
        item_depth = 0;
        item_sorts = false;
        item_pending = [];
      }
    in
    let iter = make_iterator ctx in
    iter.structure iter ast;
    let sups = scan_suppressions source in
    let suppressed v =
      List.exists
        (fun s ->
          s.s_reason && s.s_rule = v.v_rule
          && (s.s_line = v.v_line || s.s_line = v.v_line - 1))
        sups
    in
    let kept = List.filter (fun v -> not (suppressed v)) ctx.viols in
    let bad_sups =
      List.filter_map
        (fun s ->
          if s.s_reason then None
          else
            Some
              {
                v_file = file;
                v_line = s.s_line;
                v_col = 0;
                v_rule = s.s_rule;
                v_msg =
                  Printf.sprintf
                    "suppression '%s' is missing a reason: write (* p2plint: \
                     %s — <why this is deterministic/safe> *)"
                    s.s_kw s.s_kw;
              })
        sups
    in
    List.sort_uniq compare_violation (bad_sups @ kept)

let lint_file file = lint_source ~file (read_file file)

(* ---- R5: interface coverage ------------------------------------------- *)

let check_mli_dir dir =
  match Sys.is_directory dir with
  | false | (exception Sys_error _) -> []
  | true ->
    let entries = Sys.readdir dir in
    Array.sort String.compare entries;
    let names = Array.to_list entries in
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".ml" then
          let base = Filename.chop_suffix f ".ml" in
          if List.mem (base ^ ".mli") names then None
          else
            Some
              {
                v_file = Filename.concat dir f;
                v_line = 1;
                v_col = 0;
                v_rule = "R5";
                v_msg =
                  Printf.sprintf
                    "library module '%s' has no interface: add %s.mli" base
                    base;
              }
        else None)
      names

(* ---- walking ----------------------------------------------------------- *)

(* Pruning applies while descending, never to a path passed
   explicitly: `p2plint test` skips the deliberately-broken fixtures,
   `p2plint test/lint_fixtures` lints them. *)
let pruned = [ "_build"; ".git"; "lint_fixtures"; "results" ]

let rec walk_children dir acc =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc f ->
      let path = Filename.concat dir f in
      if Sys.is_directory path then
        if List.mem f pruned then acc else walk_children path acc
      else if Filename.check_suffix path ".ml" then path :: acc
      else acc)
    acc entries

let files_of_path p =
  if Sys.is_directory p then walk_children p []
  else if Filename.check_suffix p ".ml" then [ p ]
  else []

let run paths =
  let files =
    List.rev (List.fold_left (fun acc p -> files_of_path p @ acc) [] paths)
  in
  let ast_viols = List.concat_map lint_file files in
  let mli_viols =
    List.concat_map
      (fun p ->
        if Sys.is_directory p && Filename.basename p = "lib" then begin
          let entries = Sys.readdir p in
          Array.sort String.compare entries;
          Array.to_list entries
          |> List.map (Filename.concat p)
          |> List.filter Sys.is_directory
          |> List.concat_map check_mli_dir
        end
        else [])
      paths
  in
  List.sort compare_violation (ast_viols @ mli_viols)
