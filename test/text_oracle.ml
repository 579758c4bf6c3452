(* The reference parser for the native edge-list format: splits the
   whole text into lines and the lines into tokens, with none of the
   chunking, line carrying and in-place integer scanning of
   [Graph_io.read_channel].  [test_graph_io] holds the streaming reader
   to this parser's graphs. *)

module Graph = Cobra_graph.Graph

(* Fields may be separated by any run of spaces and/or tabs; [String.trim]
   has already eaten a trailing '\r' from CRLF input. *)
let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* A token of decimal digits, after a '-' when [signed]: the format's
   numbers, which [int_of_string_opt] alone would widen to "0x4", "1_0"
   and "+4". *)
let decimal ~signed t =
  let digits =
    if signed && String.length t > 1 && t.[0] = '-' then String.sub t 1 (String.length t - 1)
    else t
  in
  if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits then
    int_of_string_opt t
  else None

(* Parse the text [s]; raises [Failure] on malformed input (bad header,
   non-integer tokens, out-of-range endpoints, self-loops). *)
let of_string s =
  let meaningful =
    List.filter
      (fun line ->
        let line = String.trim line in
        line <> "" && line.[0] <> '#')
      (String.split_on_char '\n' s)
  in
  match meaningful with
  | [] -> failwith "Text_oracle.of_string: empty input"
  | header :: rest ->
      let n =
        match tokens header with
        | [ "cobra-graph"; n_str ] -> (
            match decimal ~signed:false n_str with
            | Some n -> n
            | _ -> failwith "Text_oracle.of_string: bad vertex count in header")
        | _ -> failwith "Text_oracle.of_string: expected 'cobra-graph <n>' header"
      in
      let parse_edge line =
        match List.map (decimal ~signed:true) (tokens line) with
        | [ Some u; Some v ] -> (u, v)
        | _ -> failwith (Printf.sprintf "Text_oracle.of_string: bad edge line %S" line)
      in
      let edges = List.map parse_edge rest in
      (try Graph.of_edges ~n edges
       with Invalid_argument msg -> failwith ("Text_oracle.of_string: " ^ msg))
