(* R7 — interprocedural nondeterminism taint.

   The per-file R3 rule flags *direct* uses of ambient randomness,
   wall clocks and hash-derived state, and exempts lib/prng/ and
   lib/sim/ (the owners of seeded randomness and virtual time).  That
   leaves two holes once invariants span modules:

   - a source buried in an exempt directory still poisons replay the
     moment a balancing-path function can reach it;
   - a per-file diagnostic cannot say *how* a source reaches the hot
     path, which is what a reviewer needs to judge the leak.

   This pass closes both: every ambient source site (same list as R3,
   {!Lint.ambient_source}, no directory exemption) whose enclosing
   function is reachable from the balancing entry units —
   Controller/Multiround/Vst/Chaos by default — is reported with the
   full call path from the entry down to the source.

   Suppression: a reasoned [allow-impure] (shared with R3) or
   [allow-taint] comment at the source line kills the taint at its
   origin, so one annotation documents both the local use and every
   path through it. *)

module SM = Callgraph.SM

let default_entries = [ "Controller"; "Multiround"; "Vst"; "Chaos" ]

(* Ambient source sites in one function body, in traversal order. *)
let source_sites (f : Callgraph.func) =
  let out = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr (iter : Ast_iterator.iterator) e =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> (
      match Lint.ambient_source (Lint.flatten_lid txt) with
      | Some name -> out := (loc, name) :: !out
      | None -> ())
    | _ -> ());
    super.expr iter e
  in
  let iter = { super with expr } in
  iter.expr iter f.f_body;
  List.rev !out

let analyze ?(entries = default_entries) (prog : Callgraph.t) =
  let reach =
    List.fold_left
      (fun m (k, path) -> SM.add k path m)
      SM.empty
      (Callgraph.reachable prog ~entries)
  in
  (* A reasoned allow-impure (R3, shared) or allow-taint (R7) on the
     source line — or the line above — kills the taint at its origin. *)
  let sups_by_unit =
    List.fold_left
      (fun m (u : Callgraph.unit_info) ->
        SM.add u.u_key (Lint.scan_suppressions u.u_source) m)
      SM.empty prog.units
  in
  let suppressed_at ~unit line =
    match SM.find_opt unit sups_by_unit with
    | None -> false
    | Some sups ->
      List.exists
        (fun (s : Lint.suppression) ->
          s.s_reason
          && (String.equal s.s_rule "R3" || String.equal s.s_rule "R7")
          && (s.s_line = line || s.s_line = line - 1))
        sups
  in
  List.concat_map
    (fun (f : Callgraph.func) ->
      match SM.find_opt f.f_key reach with
      | None -> []
      | Some path ->
        List.filter_map
          (fun ((loc : Location.t), name) ->
            let p = loc.loc_start in
            if suppressed_at ~unit:f.f_unit p.pos_lnum then None
            else
              Some
                {
                  Lint.v_file = f.f_file;
                  v_line = p.pos_lnum;
                  v_col = p.pos_cnum - p.pos_bol;
                  v_rule = "R7";
                  v_msg =
                    Printf.sprintf
                      "ambient '%s' taints the balancing path: %s; thread a \
                       seeded Prng.t / the simulated clock, or suppress at \
                       source with (* p2plint: allow-impure — <reason> *)"
                      name
                      (String.concat " -> " path);
                })
          (source_sites f))
    prog.funcs
  |> List.sort_uniq Lint.compare_violation
