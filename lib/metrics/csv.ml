let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let line fields =
  String.concat "," (List.map escape_field fields) ^ "\n"

let to_string ~header rows =
  List.iter
    (fun r ->
      if List.length r <> List.length header then
        invalid_arg "Csv.to_string: row arity mismatch")
    rows;
  String.concat "" (line header :: List.map line rows)

let write_file ~path ~header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~header rows))

let of_histogram h =
  let rows =
    List.map
      (fun (bin, weight) ->
        [
          string_of_int bin;
          Printf.sprintf "%.6g" weight;
          Printf.sprintf "%.6f" (Histogram.fraction_at h bin);
          Printf.sprintf "%.6f" (Histogram.cumulative_fraction h bin);
        ])
      (Histogram.bins h)
  in
  to_string ~header:[ "bin"; "weight"; "fraction"; "cdf" ] rows
