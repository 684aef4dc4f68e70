type value = Bool of bool | Int of int | Float of float | Str of string

type kind = Point | Begin | End

type ev = {
  time : float;
  seq : int;
  kind : kind;
  name : string;
  span : int;
  parent : int;
  attrs : (string * value) list;
}

type span = { sp_id : int; sp_name : string }

type t = {
  mutable manual : float;
  mutable events : ev list; (* newest first *)
  mutable n : int;
  mutable next_span : int;
  mutable stack : span list; (* innermost open span first *)
}

let create () = { manual = 0.0; events = []; n = 0; next_span = 0; stack = [] }
let set_time t time = t.manual <- time
let now t = t.manual

let record t kind name span parent attrs =
  let ev = { time = now t; seq = t.n; kind; name; span; parent; attrs } in
  t.events <- ev :: t.events;
  t.n <- t.n + 1

let innermost t = match t.stack with [] -> -1 | s :: _ -> s.sp_id

let point t ?(attrs = []) name = record t Point name (innermost t) (-1) attrs

let begin_span t ?(attrs = []) name =
  let parent = innermost t in
  let sp = { sp_id = t.next_span; sp_name = name } in
  t.next_span <- t.next_span + 1;
  t.stack <- sp :: t.stack;
  record t Begin name sp.sp_id parent attrs;
  sp

let end_span t ?(attrs = []) sp =
  t.stack <- List.filter (fun s -> s.sp_id <> sp.sp_id) t.stack;
  record t End sp.sp_name sp.sp_id (-1) attrs

let with_span t ?attrs name f =
  let sp = begin_span t ?attrs name in
  Fun.protect ~finally:(fun () -> end_span t sp) f

let events t = List.rev t.events
let n_events t = t.n

(* Append a finished child trace as if its events had been recorded
   next on the parent: times are shifted by the parent's clock,
   sequence numbers by the parent's event count and span ids (own,
   enclosing-parent, and point attribution alike) by the parent's span
   count.  [-1] sentinels (point outside any span, root-span parent)
   are preserved.  The child must have no open spans: an open span
   could still attribute future parent events. *)
let merge ~into:parent child =
  (match child.stack with
  | [] -> ()
  | _ :: _ -> invalid_arg "Trace.merge: child trace has open spans");
  let p = parent.manual
  and seq_off = parent.n
  and span_off = parent.next_span in
  let shift ev =
    let span = if ev.span >= 0 then ev.span + span_off else ev.span in
    let par = if ev.parent >= 0 then ev.parent + span_off else ev.parent in
    { ev with time = p +. ev.time; seq = ev.seq + seq_off; span; parent = par }
  in
  parent.events <- List.map shift child.events @ parent.events;
  parent.n <- parent.n + child.n;
  parent.next_span <- parent.next_span + child.next_span;
  parent.manual <- p +. child.manual

(* ---- JSONL encoding ---------------------------------------------------- *)

(* Shortest decimal representation that round-trips the double, so the
   sink stays byte-stable across runs and [parse_jsonl] recovers the
   exact float the instrumentation recorded. *)
let float_to_string x =
  let s = Printf.sprintf "%.15g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_json_string buf s;
  Buffer.contents buf

let add_value buf v =
  match v with
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> add_json_string buf s

let kind_to_string = function
  | Point -> "point"
  | Begin -> "begin"
  | End -> "end"

let add_event buf e =
  Buffer.add_string buf "{\"t\":";
  Buffer.add_string buf (float_to_string e.time);
  Buffer.add_string buf ",\"seq\":";
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf (kind_to_string e.kind);
  Buffer.add_string buf "\",\"name\":";
  add_json_string buf e.name;
  Buffer.add_string buf ",\"span\":";
  Buffer.add_string buf (string_of_int e.span);
  (match e.kind with
  | Begin ->
    Buffer.add_string buf ",\"parent\":";
    Buffer.add_string buf (string_of_int e.parent)
  | Point | End -> ());
  Buffer.add_string buf ",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    e.attrs;
  Buffer.add_string buf "}}\n"

(* The schema header, the first line of every trace. *)
let header = "{\"v\":2}"

let jsonl_of_events evs =
  let buf = Buffer.create (256 * (List.length evs + 1)) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter (add_event buf) evs;
  Buffer.contents buf

let to_jsonl t = jsonl_of_events (events t)

let write_jsonl t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_jsonl t))

let digest t = Digest.to_hex (Digest.string (to_jsonl t))

(* ---- JSONL decoding ---------------------------------------------------- *)

(* A minimal parser for exactly the flat-object subset the sink emits:
   one object per line, string keys, values that are strings, numbers,
   booleans, or (for "attrs") one nested object. *)

exception Bad of string

type json =
  | J_num of string (* raw spelling, int/float decided by the reader *)
  | J_str of string
  | J_bool of bool
  | J_obj of (string * json) list

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at column %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && line.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          if !pos + 1 >= n then fail "trailing backslash";
          (match line.[!pos + 1] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if !pos + 5 >= n then fail "short unicode escape";
            let hex = String.sub line (!pos + 2) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
            | Some _ | None -> fail "unsupported unicode escape");
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          pos := !pos + 2;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' | 'n' | 'a' | 'i' | 'f' -> true
    | _ -> false
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' -> parse_object ()
    | Some 't' when !pos + 4 <= n && String.sub line !pos 4 = "true" ->
      pos := !pos + 4;
      J_bool true
    | Some 'f' when !pos + 5 <= n && String.sub line !pos 5 = "false" ->
      pos := !pos + 5;
      J_bool false
    | Some c when is_num_char c ->
      let start = !pos in
      while !pos < n && is_num_char line.[!pos] do
        incr pos
      done;
      J_num (String.sub line start (!pos - start))
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of line"
  and parse_object () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' ->
      incr pos;
      J_obj []
    | _ ->
      begin
      let fields = ref [] in
      let rec member () =
        skip_ws ();
        let k = parse_string () in
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          member ()
        | Some '}' -> incr pos
        | Some c -> fail (Printf.sprintf "unexpected '%c' in object" c)
        | None -> fail "unterminated object"
      in
        member ();
        J_obj (List.rev !fields)
      end
  in
  let v = parse_object () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let value_of_json = function
  | J_bool b -> Bool b
  | J_str s -> Str s
  | J_num raw -> (
    match int_of_string_opt raw with
    | Some i -> Int i
    | None -> Float (float_of_string raw))
  | J_obj _ -> raise (Bad "nested object where a scalar was expected")

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let num_of_json name = function
  | J_num raw -> float_of_string raw
  | _ -> raise (Bad (Printf.sprintf "field %S is not a number" name))

(* ---- generic flat-line view --------------------------------------------- *)

(* The same one-object-per-line subset, exposed for the other JSONL
   sinks built on this format (Timeseries samples, bench records):
   each field is a scalar or one level of nested object. *)

type flat = Scalar of value | Nested of (string * value) list

let flat_of_json = function
  | J_obj kvs -> Nested (List.map (fun (k, v) -> (k, value_of_json v)) kvs)
  | j -> Scalar (value_of_json j)

let parse_flat_line line =
  match parse_line line with
  | J_obj fields -> Ok (List.map (fun (k, v) -> (k, flat_of_json v)) fields)
  | J_num _ | J_str _ | J_bool _ -> Error "line is not an object"
  | exception Bad msg -> Error msg
  | exception Failure msg -> Error msg

let ev_of_json = function
  | J_obj fields ->
    let kind =
      match field fields "kind" with
      | J_str "point" -> Point
      | J_str "begin" -> Begin
      | J_str "end" -> End
      | J_str k -> raise (Bad (Printf.sprintf "unknown kind %S" k))
      | _ -> raise (Bad "field \"kind\" is not a string")
    in
    let name =
      match field fields "name" with
      | J_str s -> s
      | _ -> raise (Bad "field \"name\" is not a string")
    in
    let attrs =
      match field fields "attrs" with
      | J_obj kvs -> List.map (fun (k, v) -> (k, value_of_json v)) kvs
      | _ -> raise (Bad "field \"attrs\" is not an object")
    in
    let parent =
      match List.assoc_opt "parent" fields with
      | Some j -> int_of_float (num_of_json "parent" j)
      | None -> -1
    in
    {
      time = num_of_json "t" (field fields "t");
      seq = int_of_float (num_of_json "seq" (field fields "seq"));
      kind;
      name;
      span = int_of_float (num_of_json "span" (field fields "span"));
      parent;
      attrs;
    }
  | _ -> raise (Bad "line is not an object")

let parse_jsonl source =
  let lineno = ref 0 in
  let saw_header = ref false in
  match
    List.filter_map
      (fun line ->
        incr lineno;
        if String.length line = 0 then None
        else
          match parse_line line with
          | J_obj [ ("v", v) ] when not !saw_header ->
            let v = int_of_float (num_of_json "v" v) in
            if v <> 2 then
              raise
                (Bad
                   (Printf.sprintf "unsupported trace version %d (expected %s)"
                      v header));
            saw_header := true;
            None
          | _ when not !saw_header ->
            raise
              (Bad
                 (Printf.sprintf
                    "missing the %s header (v1 traces are no longer read)"
                    header))
          | j -> Some (ev_of_json j))
      (String.split_on_char '\n' source)
  with
  | evs -> Ok evs
  | exception Bad msg -> Error (Printf.sprintf "line %d: %s" !lineno msg)
  | exception Failure msg -> Error (Printf.sprintf "line %d: %s" !lineno msg)

let read_file path =
  match open_in_bin path with
  | ic ->
    Ok
      (Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic)))
  | exception Sys_error msg -> Error msg

let load_jsonl path = Result.bind (read_file path) parse_jsonl
