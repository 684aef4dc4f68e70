let float_cell x = Printf.sprintf "%.4g" x
let percent_cell f = Printf.sprintf "%.1f%%" (100.0 *. f)

let table ?title ~header rows =
  List.iter
    (fun r ->
      if List.length r <> List.length header then
        invalid_arg "Report.table: row arity mismatch")
    rows;
  let all = header :: rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- Int.max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf '\n'
  | None -> ());
  let render_row r =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      r;
    Buffer.add_char buf '\n'
  in
  render_row header;
  let rule_len =
    Array.fold_left ( + ) 0 widths + (3 * (ncols - 1))
  in
  Buffer.add_string buf (String.make rule_len '-');
  Buffer.add_char buf '\n';
  List.iter render_row rows;
  Buffer.contents buf

let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

(* Plot grid, in characters. *)
let width = 72
let height = 20

let ascii_plot ?title ?(x_label = "x") ?(y_label = "y") ~series () =
  let points = List.concat_map snd series in
  match points with
  | [] -> "(empty plot)\n"
  | (x0, y0) :: _ ->
    let fold f init sel = List.fold_left (fun a p -> f a (sel p)) init points in
    let xmin = fold Float.min x0 fst and xmax = fold Float.max x0 fst in
    let ymin = fold Float.min y0 snd and ymax = fold Float.max y0 snd in
    let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
    let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, pts) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        List.iter
          (fun (x, y) ->
            let cx =
              int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
            in
            let cy =
              height - 1
              - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
            in
            if cx >= 0 && cx < width && cy >= 0 && cy < height then
              grid.(cy).(cx) <- glyph)
          pts)
      series;
    let buf = Buffer.create ((width + 8) * (height + 6)) in
    (match title with
    | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
    | None -> ());
    Buffer.add_string buf
      (Printf.sprintf "%s: [%.4g .. %.4g]\n" y_label ymin ymax);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf "  +";
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "   %s: [%.4g .. %.4g]\n" x_label xmin xmax);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "   %c = %s\n" glyphs.(si mod Array.length glyphs) name))
      series;
    Buffer.contents buf
