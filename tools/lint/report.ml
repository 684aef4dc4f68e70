(* Finding IDs, JSON rendering, baseline workflow and rule
   explanations for the p2plint CLI.

   A finding ID is [<rule>-<12 hex chars>]: the hex is an MD5 over the
   rule, the file path, the *text* of the offending line and the
   message — not the line number — so IDs survive unrelated edits that
   shift code up or down.  Identical (rule, file, line-text, message)
   tuples are disambiguated with an occurrence index before hashing,
   keeping IDs unique and stable in report order. *)

module SM = Map.Make (String)

type finding = { fd_id : string; fd_viol : Lint.violation }

(* ---- ids --------------------------------------------------------------- *)

let split_lines s =
  let out = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if Char.equal c '\n' then begin
        out := String.sub s !start (i - !start) :: !out;
        start := i + 1
      end)
    s;
  if !start <= String.length s - 1 then
    out := String.sub s !start (String.length s - !start) :: !out;
  Array.of_list (List.rev !out)

let assign_ids viols =
  let sources = ref SM.empty in
  let lines_of file =
    match SM.find_opt file !sources with
    | Some lines -> lines
    | None ->
      let lines =
        if Sys.file_exists file then split_lines (Lint.read_file file)
        else [||]
      in
      sources := SM.add file lines !sources;
      lines
  in
  let counts = ref SM.empty in
  List.map
    (fun (v : Lint.violation) ->
      let lines = lines_of v.v_file in
      let text =
        if v.v_line >= 1 && v.v_line <= Array.length lines then
          String.trim lines.(v.v_line - 1)
        else ""
      in
      let base =
        String.concat "\x00" [ v.v_rule; v.v_file; text; v.v_msg ]
      in
      let n = Option.value ~default:0 (SM.find_opt base !counts) in
      counts := SM.add base (n + 1) !counts;
      let keyed = if n = 0 then base else Printf.sprintf "%s#%d" base n in
      let hex = Digest.to_hex (Digest.string keyed) in
      { fd_id = Printf.sprintf "%s-%s" v.v_rule (String.sub hex 0 12);
        fd_viol = v })
    viols

(* ---- json -------------------------------------------------------------- *)

let escape_json s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json findings =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"version\":1,\"findings\":[";
  List.iteri
    (fun i f ->
      let v = f.fd_viol in
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n  \
            {\"id\":\"%s\",\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\
            \"col\":%d,\"msg\":\"%s\"}"
           (escape_json f.fd_id) (escape_json v.v_rule)
           (escape_json v.v_file) v.v_line v.v_col (escape_json v.v_msg)))
    findings;
  if not (List.is_empty findings) then Buffer.add_char b '\n';
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ---- baseline ---------------------------------------------------------- *)

(* Minimal extraction of the ["id"] string values.  The baseline is
   machine-written by [--write-baseline] in the exact shape [to_json]
   emits, so a full JSON parser would be dead weight; malformed input
   is an error, not a guess. *)
let baseline_ids content =
  match Lint.find_sub content "\"findings\"" with
  | None -> Error "malformed baseline: no \"findings\" key"
  | Some _ ->
    let ids = ref [] in
    let len = String.length content in
    let i = ref 0 in
    let key = "\"id\"" in
    let ok = ref true in
    while !ok && !i < len do
      match Lint.find_sub (String.sub content !i (len - !i)) key with
      | None -> i := len
      | Some off ->
        let j = ref (!i + off + String.length key) in
        while
          !j < len && (Char.equal content.[!j] ' ' || Char.equal content.[!j] ':')
        do
          incr j
        done;
        if !j >= len || not (Char.equal content.[!j] '"') then ok := false
        else begin
          incr j;
          let start = !j in
          while !j < len && not (Char.equal content.[!j] '"') do
            incr j
          done;
          if !j >= len then ok := false
          else begin
            ids := String.sub content start (!j - start) :: !ids;
            i := !j + 1
          end
        end
    done;
    if !ok then Ok (List.rev !ids)
    else Error "malformed baseline: unterminated \"id\" value"

let is_new ~baseline f = not (List.mem f.fd_id baseline)

let stale ~baseline findings =
  List.filter
    (fun id -> not (List.exists (fun f -> String.equal f.fd_id id) findings))
    baseline
  |> List.sort_uniq String.compare

(* ---- explanations ------------------------------------------------------ *)

let explain rule =
  match rule with
  | "R1" ->
    Some
      "R1 — no polymorphic compare.  Structural compare/min/max and \
       comparison operators on tuple/constructor/record/array literals \
       are NaN-unsafe on floats and slow on hot paths; use Int.compare, \
       Float.compare, String.equal, or a module-local typed compare.  \
       Suppress: (* p2plint: allow-polycompare — <reason> *)."
  | "R2" ->
    Some
      "R2 — no unordered Hashtbl traversal escaping.  \
       iter/fold/to_seq(+_keys/_values)/filter_map_inplace visit \
       bindings in memory-layout order; results that escape a binding \
       without a deterministic sort make output depend on insertion \
       history.  Covers Stdlib./MoreLabels.-qualified forms, \
       Hashtbl.Make instances and module aliases.  Sort in the same \
       top-level binding, or suppress: \
       (* p2plint: allow-unordered — <reason> *)."
  | "R3" ->
    Some
      "R3 — no ambient nondeterminism (per-file).  Stdlib.Random, \
       Sys.time, Unix.gettimeofday/time and the Hashtbl.hash family \
       break bit-for-bit replay; only lib/prng/ and lib/sim/ may own \
       them.  Thread a seeded Prng.t or the simulated clock instead.  \
       Suppress: (* p2plint: allow-impure — <reason> *)."
  | "R4" ->
    Some
      "R4 — no catch-all exception handlers.  'try ... with _ ->' \
       swallows assertion failures and programming errors alike; match \
       the exceptions you mean to handle.  Suppress: (* p2plint: \
       allow-catchall — <reason> *)."
  | "R5" ->
    Some
      "R5 — every .ml directly inside a lib/* library needs a matching \
       .mli, so the public surface of each module is explicit and \
       reviewed."
  | "R6" ->
    Some
      "R6 — no direct stdout/stderr writes under lib/.  print_*/ \
       prerr_*/Printf.printf-style output interleaves with reports and \
       JSONL trace streams; return Report/Csv values or emit through \
       the Trace sink.  Suppress: (* p2plint: allow-r6 — <reason> *)."
  | "R7" ->
    Some
      "R7 — interprocedural nondeterminism taint.  An ambient source \
       (the R3 list, with NO directory exemption) whose enclosing \
       function is reachable from Controller/Multiround/Vst/Chaos \
       poisons replay of the balancing path; the finding carries the \
       full call path from the entry to the source.  Fix at the \
       source; a reasoned allow-impure (shared with R3) or allow-taint \
       comment there kills every path through it."
  | "R9" ->
    Some
      "R9 — obs discipline (lib/ only).  A function taking ?obs must \
       pass ?obs to every callee that accepts it (silent drops lose \
       trace spans and metrics), and a begin_span in a function body \
       must be matched by an end_span — or use Trace.with_span.  \
       Suppress: (* p2plint: allow-obs — <reason> *)."
  | "R10" ->
    Some
      "R10 — domain discipline.  A task closure passed to Par.run \
       executes on a worker domain; refs, Hashtbls and mutable record \
       fields captured from the enclosing scope are then shared across \
       domains without synchronisation — a data race, or results that \
       depend on scheduling.  Keep the state task-local, return it from \
       the task and merge after Par.run (index-disjoint Array writes \
       are fine and not flagged).  \
       Suppress: (* p2plint: allow-r10 — <reason> *)."
  | "PARSE" ->
    Some
      "PARSE — the file failed to parse; the linter cannot analyse it. \
       p2plint exits 2 on parse errors (internal/input error), \
       distinct from exit 1 (findings)."
  | _ -> None

let all_rules =
  [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R9"; "R10"; "PARSE" ]

(* ---- whole-program driver ---------------------------------------------- *)

let run_all paths =
  let per_file = Lint.run paths in
  let prog = Callgraph.load paths in
  let whole = Taint.analyze prog @ Protocol.analyze prog in
  List.sort_uniq Lint.compare_violation (per_file @ whole)
