(* R9 — obs discipline.

   R9 keeps observability lossless in lib/: a function taking [?obs]
   must pass [?obs] (or [~obs]) to every callee that accepts it, and
   a [Trace.begin_span] in a function body must be matched by at
   least one [Trace.end_span] (or replaced by [Trace.with_span]).

   Suppression: [allow-obs]. *)

module SM = Callgraph.SM
open Parsetree

let add_viol acc ~file (loc : Location.t) rule msg =
  let p = loc.loc_start in
  {
    Lint.v_file = file;
    v_line = p.pos_lnum;
    v_col = p.pos_cnum - p.pos_bol;
    v_rule = rule;
    v_msg = msg;
  }
  :: acc

(* ---- R9: obs discipline ------------------------------------------------ *)

let has_obs_param (f : Callgraph.func) = List.mem "?obs" f.f_params

(* Span open/close sites in one body, by trailing path component. *)
let span_sites body =
  let begins = ref [] and ends = ref 0 in
  let super = Ast_iterator.default_iterator in
  let expr (iter : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      match List.rev (Lint.flatten_lid txt) with
      | "begin_span" :: _ -> begins := loc :: !begins
      | "end_span" :: _ -> incr ends
      | _ -> ())
    | _ -> ());
    super.expr iter e
  in
  let iter = { super with expr } in
  iter.expr iter body;
  (List.rev !begins, !ends)

let analyze_obs (prog : Callgraph.t) (u : Callgraph.unit_info) acc =
  let by_key =
    List.fold_left
      (fun m (f : Callgraph.func) -> SM.add f.f_key f m)
      SM.empty prog.funcs
  in
  List.fold_left
    (fun acc (f : Callgraph.func) ->
      (* ?obs threading to every obs-accepting callee *)
      let acc =
        if not (has_obs_param f) then acc
        else
          List.fold_left
            (fun acc (c : Callgraph.call) ->
              match SM.find_opt c.c_callee by_key with
              | Some g
                when has_obs_param g && c.c_applied
                     && not (List.mem "obs" c.c_labels) ->
                add_viol acc ~file:c.c_file
                  {
                    Location.loc_start =
                      {
                        Lexing.pos_fname = c.c_file;
                        pos_lnum = c.c_line;
                        pos_bol = 0;
                        pos_cnum = c.c_col;
                      };
                    loc_end =
                      {
                        Lexing.pos_fname = c.c_file;
                        pos_lnum = c.c_line;
                        pos_bol = 0;
                        pos_cnum = c.c_col;
                      };
                    loc_ghost = false;
                  }
                  "R9"
                  (Printf.sprintf
                     "'%s' takes ?obs but calls '%s' without threading it: \
                      pass ?obs (or ~obs) so traces and metrics stay complete"
                     f.f_display g.f_display)
              | _ -> acc)
            acc
            (Callgraph.callees prog f.f_key)
      in
      (* span pairing *)
      let begins, ends = span_sites f.f_body in
      match begins with
      | first :: _ when ends = 0 ->
        add_viol acc ~file:u.u_file first "R9"
          (Printf.sprintf
             "'%s' opens a trace span (begin_span) but never closes one: \
              close it on every path or use Trace.with_span"
             f.f_display)
      | _ -> acc)
    acc
    (Callgraph.funcs_of_unit prog u.u_key)

(* ---- driver ------------------------------------------------------------ *)

let analyze (prog : Callgraph.t) =
  List.concat_map
    (fun (u : Callgraph.unit_info) ->
      let viols =
        if Lint.in_lib_file u.u_file then analyze_obs prog u [] else []
      in
      Lint.filter_suppressed ~source:u.u_source (List.rev viols))
    prog.units
  |> List.sort_uniq Lint.compare_violation
