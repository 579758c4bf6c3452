(* Tests for the edge-list and DOT serialisation.  Native-format text
   is parsed by the streaming [read_channel], checked against the
   reference parser in [Text_oracle]. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Graph_io = Cobra_graph.Graph_io
module Rng = Cobra_prng.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let write_temp content =
  let path = Filename.temp_file "cobra_test_io" ".graph" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  path

let with_temp content f =
  let path = write_temp content in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let int32s a = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a)

let check_same_csr msg expected actual =
  check_int (msg ^ ": n") (Graph.n expected) (Graph.n actual);
  Alcotest.(check (array int32))
    (msg ^ ": offsets") (int32s (Graph.csr_offsets expected)) (int32s (Graph.csr_offsets actual));
  Alcotest.(check (array int32))
    (msg ^ ": adjacency") (int32s (Graph.csr_adjacency expected))
    (int32s (Graph.csr_adjacency actual))

(* [parse text] streams [text] through [read_channel] from a file. *)
let parse text =
  with_temp text (fun path ->
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Graph_io.read_channel ic))

let test_to_string_format () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check string) "format" "cobra-graph 3\n0 1\n1 2\n" (Graph_io.to_string g)

let test_roundtrip_basic () =
  let g = Gen.petersen () in
  let g2 = parse (Graph_io.to_string g) in
  check_int "n" (Graph.n g) (Graph.n g2);
  Alcotest.(check (list (pair int int))) "edges" (Graph.edges g) (Graph.edges g2)

let test_parse_flexible () =
  let g = parse "# a comment\n\ncobra-graph 4\n  2   1 \n# another\n3 0\n" in
  check_int "n" 4 (Graph.n g);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 3); (1, 2) ] (Graph.edges g)

(* Regression: the header used to be split on single spaces only, so
   "cobra-graph  4" (double space), a tab separator, or CRLF line
   endings failed even though edge lines tolerated all three. *)
let test_parse_header_whitespace () =
  let edges_of s = Graph.edges (parse s) in
  Alcotest.(check (list (pair int int)))
    "double-space header" [ (0, 1) ] (edges_of "cobra-graph  4\n0 1\n");
  Alcotest.(check (list (pair int int)))
    "tab header" [ (0, 1) ] (edges_of "cobra-graph\t4\n0 1\n");
  Alcotest.(check (list (pair int int)))
    "leading/trailing blanks" [ (0, 1) ] (edges_of "  cobra-graph   4  \n0 1\n")

let test_parse_tabs_and_crlf () =
  let g = parse "cobra-graph\t4\r\n0\t1\r\n2\t 3\r\n" in
  check_int "n" 4 (Graph.n g);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (2, 3) ] (Graph.edges g);
  (* Mixed runs of tabs and spaces within one line. *)
  let g = parse "cobra-graph \t 3\n0 \t\t 2\n" in
  Alcotest.(check (list (pair int int))) "mixed separators" [ (0, 2) ] (Graph.edges g)

let test_parse_isolated_vertices () =
  let g = parse "cobra-graph 5\n0 1\n" in
  check_int "n includes isolated" 5 (Graph.n g);
  check_int "m" 1 (Graph.m g)

let test_parse_errors () =
  (* Each malformed input fails both parsers. *)
  let fails s =
    let fails_with f = match f s with exception Failure _ -> true | _ -> false in
    fails_with parse && fails_with Text_oracle.of_string
  in
  check_bool "empty" true (fails "");
  check_bool "bad header" true (fails "graph 3\n0 1\n");
  check_bool "bad count" true (fails "cobra-graph x\n");
  check_bool "bad token" true (fails "cobra-graph 3\n0 a\n");
  check_bool "triple token" true (fails "cobra-graph 3\n0 1 2\n");
  check_bool "self loop" true (fails "cobra-graph 3\n1 1\n");
  check_bool "out of range" true (fails "cobra-graph 3\n0 7\n")

let test_dot () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot = Graph_io.to_dot ~name:"demo" g in
  check_bool "has header" true (String.length dot > 0);
  let contains needle =
    let len = String.length needle in
    let rec go i =
      i + len <= String.length dot && (String.sub dot i len = needle || go (i + 1))
    in
    go 0
  in
  check_bool "graph name" true (contains "graph demo {");
  check_bool "edge syntax" true (contains "0 -- 1;");
  check_bool "closing" true (contains "}")

let test_file_roundtrip () =
  let g = Gen.hypercube 3 in
  let path = Filename.temp_file "cobra_test" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.write_file path g;
      let g2 = Graph_io.read_file path in
      Alcotest.(check (list (pair int int))) "file roundtrip" (Graph.edges g) (Graph.edges g2))

let test_roundtrip_all_families () =
  (* Every registry family serialises and parses back identically. *)
  let rng = Rng.create 77 in
  List.iter
    (fun family ->
      let g = Gen.by_name family ~n:40 rng in
      let g2 = parse (Graph_io.to_string g) in
      if Graph.edges g <> Graph.edges g2 || Graph.n g <> Graph.n g2 then
        Alcotest.failf "roundtrip failed for %s" family)
    Gen.family_names

(* --- Streaming reader vs the reference parser --- *)

let test_stream_equals_string () =
  (* The streaming channel reader and the reference parser must build
     bit-identical CSR graphs from the same bytes. *)
  let rng = Rng.create 2020 in
  List.iter
    (fun family ->
      let g = Gen.by_name family ~n:60 rng in
      let text = Graph_io.to_string g in
      check_same_csr family (Text_oracle.of_string text) (parse text))
    [ "hypercube"; "lollipop"; "ba:4"; "chunglu:2.5" ]

let test_stream_across_chunks () =
  (* A text spanning many of the reader's 64 KiB chunks, so lines break
     across chunk boundaries, streams to the reference parser's CSR. *)
  let g = Gen.by_name "ba:8" ~n:20_000 (Rng.create 31) in
  let text = Graph_io.to_string g in
  check_bool "text spans many chunks" true (String.length text > 16 * 65536);
  check_same_csr "ba:8 n=20000" (Text_oracle.of_string text) (parse text)

let test_stream_from_pipe () =
  (* read_file used to seek (in_channel_length + really_input_string),
     which cannot work on a pipe; the chunked reader must. *)
  let g = Gen.by_name "regular-8" ~n:64 (Rng.create 4) in
  let text = Graph_io.to_string g in
  with_temp text (fun path ->
      let ic = Unix.open_process_in ("cat " ^ Filename.quote path) in
      let streamed =
        Fun.protect
          ~finally:(fun () -> ignore (Unix.close_process_in ic))
          (fun () -> Graph_io.read_channel ic)
      in
      check_same_csr "pipe" (Text_oracle.of_string text) streamed)

let test_snap_from_pipe () =
  let g = Gen.by_name "ba:3" ~n:100 (Rng.create 8) in
  with_temp (Graph_io.to_snap g) (fun path ->
      let ic = Unix.open_process_in ("cat " ^ Filename.quote path) in
      let streamed =
        Fun.protect
          ~finally:(fun () -> ignore (Unix.close_process_in ic))
          (fun () -> Graph_io.read_stream ic)
      in
      check_same_csr "snap pipe" g streamed)

let test_stream_torn_tail () =
  (* A final line without a trailing newline is complete data, not an
     error; a line torn mid-record (one token) is malformed. *)
  let g =
    with_temp "cobra-graph 4\n0 1\n2 3" (fun path ->
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Graph_io.read_channel ic))
  in
  Alcotest.(check (list (pair int int))) "no trailing newline" [ (0, 1); (2, 3) ] (Graph.edges g);
  Alcotest.check_raises "torn record" (Failure "") (fun () ->
      try
        ignore
          (with_temp "cobra-graph 4\n0 1\n2" (fun path ->
               let ic = open_in_bin path in
               Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Graph_io.read_channel ic)))
      with Failure _ -> raise (Failure ""))

let test_snap_roundtrip () =
  let g = Gen.petersen () in
  let streamed =
    with_temp (Graph_io.to_snap ~comment:"petersen" g) (fun path ->
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Graph_io.read_stream ic))
  in
  check_same_csr "snap roundtrip" g streamed

let test_stream_million_edges () =
  (* A 10^6-edge list streams through the chunked reader and lands
     bit-for-bit on the generated graph's CSR. *)
  let n = 125_009 and m = 8 in
  let g = Cobra_graph.Gen_extra.barabasi_albert ~n ~m (Rng.create 12) in
  check_bool "instance is above a million edges" true (Graph.m g >= 1_000_000);
  let streamed =
    with_temp (Graph_io.to_snap g) (fun path ->
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Graph_io.read_stream ic))
  in
  check_same_csr "million-edge stream" g streamed

let roundtrip_random_test =
  QCheck2.Test.make ~name:"string roundtrip on random graphs" ~count:60
    QCheck2.Gen.(pair (int_range 2 40) (list_size (int_bound 100) (pair (int_bound 39) (int_bound 39))))
    (fun (n, raw) ->
      let edges =
        List.filter_map
          (fun (u, v) ->
            let u = u mod n and v = v mod n in
            if u = v then None else Some (u, v))
          raw
      in
      let g = Graph.of_edges ~n edges in
      let g2 = parse (Graph_io.to_string g) in
      Graph.n g = Graph.n g2 && Graph.edges g = Graph.edges g2)

let () =
  Alcotest.run "graph_io"
    [
      ( "unit",
        [
          Alcotest.test_case "to_string format" `Quick test_to_string_format;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_basic;
          Alcotest.test_case "flexible parse" `Quick test_parse_flexible;
          Alcotest.test_case "header whitespace" `Quick test_parse_header_whitespace;
          Alcotest.test_case "tabs and CRLF" `Quick test_parse_tabs_and_crlf;
          Alcotest.test_case "isolated vertices" `Quick test_parse_isolated_vertices;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "all families roundtrip" `Quick test_roundtrip_all_families;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "stream equals of_string" `Quick test_stream_equals_string;
          Alcotest.test_case "stream across chunks" `Quick test_stream_across_chunks;
          Alcotest.test_case "cobra from a pipe" `Quick test_stream_from_pipe;
          Alcotest.test_case "snap from a pipe" `Quick test_snap_from_pipe;
          Alcotest.test_case "torn tail" `Quick test_stream_torn_tail;
          Alcotest.test_case "snap roundtrip" `Quick test_snap_roundtrip;
          Alcotest.test_case "million-edge stream" `Slow test_stream_million_edges;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest roundtrip_random_test ]);
    ]
