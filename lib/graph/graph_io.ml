let to_string g =
  let buf = Buffer.create (16 * Graph.m g) in
  Buffer.add_string buf (Printf.sprintf "cobra-graph %d\n" (Graph.n g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let to_snap ?comment g =
  let buf = Buffer.create (16 * Graph.m g) in
  (match comment with
  | Some c -> Buffer.add_string buf (Printf.sprintf "# %s\n" c)
  | None -> ());
  Buffer.add_string buf (Printf.sprintf "# Nodes: %d Edges: %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d\t%d\n" u v));
  Buffer.contents buf

(* Fields may be separated by any run of spaces and/or tabs; [String.trim]
   has already eaten a trailing '\r' from CRLF input. *)
let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* --- Streaming readers ---

   Everything below parses line-by-line out of a fixed chunk buffer: no
   whole-file string, no line list, so the reader works on pipes and
   process substitutions (where [in_channel_length] is meaningless) and
   its memory footprint is the builder's, not the file's. *)

let chunk_size = 65536

(* Apply [f] to every line of [ic].  Lines may span chunk boundaries
   (carried in [pending]); a final line without a trailing newline is
   still delivered. *)
let iter_lines ic f =
  let buf = Bytes.create chunk_size in
  let pending = Buffer.create 256 in
  let rec go () =
    let k = input ic buf 0 chunk_size in
    if k = 0 then begin
      if Buffer.length pending > 0 then begin
        let s = Buffer.contents pending in
        Buffer.clear pending;
        f s
      end
    end
    else begin
      let start = ref 0 in
      for i = 0 to k - 1 do
        if Bytes.unsafe_get buf i = '\n' then begin
          let line =
            if Buffer.length pending = 0 then Bytes.sub_string buf !start (i - !start)
            else begin
              Buffer.add_subbytes pending buf !start (i - !start);
              let s = Buffer.contents pending in
              Buffer.clear pending;
              s
            end
          in
          f line;
          start := i + 1
        end
      done;
      if !start < k then Buffer.add_subbytes pending buf !start (k - !start);
      go ()
    end
  in
  go ()

let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r'

(* First non-blank character decides the line class; avoids the
   String.trim allocation on every edge line. *)
let classify line =
  let len = String.length line in
  let i = ref 0 in
  while !i < len && is_blank line.[!i] do
    incr i
  done;
  if !i = len then `Blank else if line.[!i] = '#' then `Comment else `Data

exception Bad_line

(* Largest value a decimal field may hold before one more digit: past
   it, [acc * 10 + 9] would wrap. *)
let before_last_digit = (max_int - 9) / 10

(* The decimal integer starting at [!pos]: one or more digits, after a
   '-' when [signed]; [pos] ends past it.  Anything else — "0x4", "1_0",
   "+4", a value past [max_int] — raises [Bad_line].  Edge lines and the
   header's vertex count share it, so the two accept the same numbers. *)
let decimal_at line pos ~signed =
  let len = String.length line in
  let neg = signed && !pos < len && line.[!pos] = '-' in
  if neg then incr pos;
  let start = !pos in
  let acc = ref 0 in
  while
    !pos < len
    &&
    let c = line.[!pos] in
    c >= '0' && c <= '9'
  do
    if !acc > before_last_digit then raise Bad_line;
    acc := (!acc * 10) + (Char.code line.[!pos] - Char.code '0');
    incr pos
  done;
  if !pos = start then raise Bad_line;
  if neg then - !acc else !acc

(* Parse exactly two decimal integers (optionally '-'-signed, so range
   errors on negative ids surface as such rather than as parse errors)
   separated and surrounded by blanks.  Anything else — a third token,
   a non-digit, an empty field — raises [Bad_line]. *)
let parse_two_ints line =
  let len = String.length line in
  let pos = ref 0 in
  let skip () =
    while !pos < len && is_blank line.[!pos] do
      incr pos
    done
  in
  skip ();
  let u = decimal_at line pos ~signed:true in
  skip ();
  let v = decimal_at line pos ~signed:true in
  skip ();
  if !pos <> len then raise Bad_line;
  (u, v)

(* The header's vertex count: a whole token of decimal digits. *)
let parse_count token =
  let pos = ref 0 in
  match decimal_at token pos ~signed:false with
  | n when !pos = String.length token -> Some n
  | _ | (exception Bad_line) -> None

let read_channel ic =
  let builder = ref None in
  iter_lines ic (fun line ->
      match classify line with
      | `Blank | `Comment -> ()
      | `Data -> (
          match !builder with
          | None -> (
              match tokens line with
              | [ "cobra-graph"; n_str ] -> (
                  match parse_count n_str with
                  | Some n -> (
                      try builder := Some (Builder.create ~n ())
                      with Invalid_argument msg -> failwith ("Graph_io.read_channel: " ^ msg))
                  | None -> failwith "Graph_io.read_channel: bad vertex count in header")
              | _ -> failwith "Graph_io.read_channel: expected 'cobra-graph <n>' header")
          | Some b -> (
              match parse_two_ints line with
              | exception Bad_line ->
                  failwith (Printf.sprintf "Graph_io.read_channel: bad edge line %S" line)
              | u, v -> (
                  try Builder.add_edge b u v
                  with Invalid_argument msg -> failwith ("Graph_io.read_channel: " ^ msg)))));
  match !builder with
  | None -> failwith "Graph_io.read_channel: empty input"
  | Some b -> Builder.finish b

type ingest_stats = {
  edge_lines : int;
  comments : int;
  self_loops : int;
  remapped_ids : int;
}

let read_stream_stats ?(remap = false) ?(drop_self_loops = true) ic =
  let b = Builder.create () in
  let tbl = if remap then Some (Hashtbl.create 4096) else None in
  let next_id = ref 0 in
  let edge_lines = ref 0 and comments = ref 0 and self_loops = ref 0 in
  (* Ids are remapped in first-seen order of *accepted* edges, so the
     mapping — and therefore the result graph — is a deterministic
     function of the input bytes. *)
  let map id =
    match tbl with
    | None -> id
    | Some t -> (
        match Hashtbl.find_opt t id with
        | Some x -> x
        | None ->
            let x = !next_id in
            Hashtbl.add t id x;
            incr next_id;
            x)
  in
  iter_lines ic (fun line ->
      match classify line with
      | `Blank -> ()
      | `Comment -> incr comments
      | `Data -> (
          match parse_two_ints line with
          | exception Bad_line ->
              failwith (Printf.sprintf "Graph_io.read_stream: bad edge line %S" line)
          | u, v ->
              incr edge_lines;
              if u = v then
                if drop_self_loops then incr self_loops
                else failwith (Printf.sprintf "Graph_io.read_stream: self-loop at %d" u)
              else begin
                try Builder.add_edge b (map u) (map v)
                with Invalid_argument msg -> failwith ("Graph_io.read_stream: " ^ msg)
              end));
  let g = Builder.finish b in
  ( g,
    {
      edge_lines = !edge_lines;
      comments = !comments;
      self_loops = !self_loops;
      remapped_ids = !next_id;
    } )

let read_stream ?remap ?drop_self_loops ic =
  fst (read_stream_stats ?remap ?drop_self_loops ic)

let to_dot ?(name = "g") g =
  let buf = Buffer.create (16 * Graph.m g) in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path g =
  if Filename.check_suffix path ".cgr" then Cgr.write path g
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string g))
  end

(* Format dispatch: a regular file starting with the .cgr magic is the
   packed binary format (mapped and checked by Cgr.read_mmap); anything
   else — including FIFOs, which can't be sniffed without consuming
   bytes and can't be mmapped anyway — streams through the text
   parser. *)
let read_file path =
  let is_regular =
    match (Unix.stat path).Unix.st_kind with
    | Unix.S_REG -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  if is_regular && Cgr.is_cgr_file path then Cgr.read_mmap path
  else begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
  end
