(* The JSON the benchmark writes: its result line and BENCHMARK.json. *)

type t =
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Whole numbers print without a fraction; others with the fewest
   digits that read back as the same float, so no measured digit is
   lost. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
    in
    shortest 15

let rec inline = function
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> quote s
  | Arr xs -> "[" ^ String.concat ", " (List.map inline xs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ inline v) kvs)
    ^ "}"

(* One top-level key per line, and one line per element of an array of
   objects: the layout of BENCHMARK.json. *)
let pretty = function
  | Obj kvs ->
    let field (k, v) =
      let v =
        match v with
        | Arr (Obj _ :: _ as xs) ->
          "[\n"
          ^ String.concat ",\n" (List.map (fun x -> "    " ^ inline x) xs)
          ^ "\n  ]"
        | v -> inline v
      in
      "  " ^ quote k ^ ": " ^ v
    in
    "{\n" ^ String.concat ",\n" (List.map field kvs) ^ "\n}\n"
  | v -> inline v ^ "\n"
