type align = Left | Right

type row = Cells of string list | Rule

type t = { headers : (string * align) list; mutable rows : row list }

let create headers = { headers; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" (List.length t.headers)
         (List.length cells));
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) cells
  in
  measure (List.map fst t.headers);
  List.iter (function Cells cells -> measure cells | Rule -> ()) rows;
  let pad align w s =
    let gap = w - String.length s in
    match align with Left -> s ^ String.make gap ' ' | Right -> String.make gap ' ' ^ s
  in
  let aligns = List.map snd t.headers in
  let render_cells cells =
    let padded = List.mapi (fun i c -> pad (List.nth aligns i) widths.(i) c) cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "|"
    ^ String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (render_cells (List.map fst t.headers));
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      (match r with Cells cells -> Buffer.add_string buf (render_cells cells) | Rule -> Buffer.add_string buf rule);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let cell_f x =
  if Float.is_nan x then "-"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 1000.0 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 10.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.3f" x

let cell_i = string_of_int
