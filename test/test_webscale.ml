(* Tests for the web-scale graph layer: the incremental CSR Builder, the
   Chung-Lu / configuration-model power-law generators, the repaired
   Barabasi-Albert generator, giant-component extraction, the tail
   exponent estimator, and the parameterized family strings. *)

module Graph = Cobra_graph.Graph
module Builder = Cobra_graph.Builder
module Chung_lu = Cobra_graph.Chung_lu
module Gen = Cobra_graph.Gen
module Gen_extra = Cobra_graph.Gen_extra
module Props = Cobra_graph.Props
module Graph_io = Cobra_graph.Graph_io
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let int32s a = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a)

(* The reference CSR both constructors are held to: per-vertex sorted,
   deduplicated neighbour lists over both orientations of every edge. *)
let naive_csr ~n edges =
  let lists = Array.make n [] in
  Array.iter
    (fun (u, v) ->
      lists.(u) <- v :: lists.(u);
      lists.(v) <- u :: lists.(v))
    edges;
  let lists = Array.map (List.sort_uniq Int.compare) lists in
  let offsets = Array.make (n + 1) 0l in
  Array.iteri
    (fun u l -> offsets.(u + 1) <- Int32.add offsets.(u) (Int32.of_int (List.length l)))
    lists;
  (offsets, Array.of_list (List.concat_map (List.map Int32.of_int) (Array.to_list lists)))

let check_graph_equal msg (offsets, adj) g =
  check_int (msg ^ ": n") (Array.length offsets - 1) (Graph.n g);
  check_int (msg ^ ": m") (Array.length adj / 2) (Graph.m g);
  Alcotest.(check (array int32)) (msg ^ ": offsets") offsets (int32s (Graph.csr_offsets g));
  Alcotest.(check (array int32)) (msg ^ ": adjacency") adj (int32s (Graph.csr_adjacency g))

(* --- Builder --- *)

(* The load-bearing claim of builder.mli: over any edge multiset the
   Builder and of_edge_array produce the same CSR arrays.  Both are held
   to the naive reference over many random multisets with heavy
   duplication (both orientations) and skewed endpoints. *)
let test_builder_matches_of_edge_array () =
  let rng = Rng.create 99 in
  for trial = 1 to 50 do
    let n = 2 + Rng.int_below rng 40 in
    let m = Rng.int_below rng 200 in
    let edges =
      Array.init m (fun _ ->
          let u = Rng.int_below rng n in
          let v = (u + 1 + Rng.int_below rng (n - 1)) mod n in
          (* Half the draws duplicate in reversed orientation space by
             construction; squaring u skews the endpoint distribution. *)
          if Rng.bool rng then (u, v) else (v, u))
    in
    let b = Builder.create ~n () in
    Array.iter (fun (u, v) -> Builder.add_edge b u v) edges;
    let expected = naive_csr ~n edges in
    check_graph_equal (Printf.sprintf "trial %d: builder" trial) expected (Builder.finish b);
    check_graph_equal
      (Printf.sprintf "trial %d: of_edge_array" trial)
      expected (Graph.of_edge_array ~n edges)
  done

let test_builder_autogrow () =
  let b = Builder.create () in
  Builder.add_edge b 0 7;
  Builder.add_edge b 3 2;
  let g = Builder.finish b in
  check_int "n = 1 + max id" 8 (Graph.n g);
  check_int "m" 2 (Graph.m g)

let test_builder_dedup_and_sort () =
  let b = Builder.create ~n:4 () in
  List.iter
    (fun (u, v) -> Builder.add_edge b u v)
    [ (3, 1); (1, 3); (0, 2); (3, 1); (2, 0); (0, 1) ];
  let g = Builder.finish b in
  check_int "m after dedup" 3 (Graph.m g);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2); (1, 3) ] (Graph.edges g);
  Alcotest.(check (array int)) "sorted slice" [| 1; 2 |] (Graph.neighbors g 0)

let test_builder_errors () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  raises "self-loop" (fun () -> Builder.add_edge (Builder.create ()) 2 2);
  raises "negative endpoint" (fun () -> Builder.add_edge (Builder.create ()) (-1) 2);
  raises "out of range (fixed n)" (fun () -> Builder.add_edge (Builder.create ~n:3 ()) 0 3);
  raises "negative n" (fun () -> ignore (Builder.create ~n:(-1) ()));
  raises "finish twice" (fun () ->
      let b = Builder.create ~n:2 () in
      Builder.add_edge b 0 1;
      ignore (Builder.finish b);
      ignore (Builder.finish b));
  raises "add after finish" (fun () ->
      let b = Builder.create ~n:2 () in
      ignore (Builder.finish b);
      Builder.add_edge b 0 1);
  (* The int32 CSR limit is a typed error before any O(n) allocation. *)
  let limit = Printf.sprintf "exceeds the int32 CSR limit 2^31 - 1 = %d" ((1 lsl 31) - 1) in
  Alcotest.check_raises "fixed n above the int32 limit"
    (Invalid_argument (Printf.sprintf "Builder.create: n = %d %s" (1 lsl 31) limit))
    (fun () -> ignore (Builder.create ~n:(1 lsl 31) ()));
  Alcotest.check_raises "auto-grown n above the int32 limit"
    (Invalid_argument (Printf.sprintf "Builder.finish: n = %d %s" (1 lsl 31) limit))
    (fun () ->
      let b = Builder.create () in
      Builder.add_edge b 0 ((1 lsl 31) - 1);
      ignore (Builder.finish b))

let test_builder_of_edge_seq () =
  (* An edge sequence folded through a fixed-n builder keeps the
     trailing isolated vertices and merges the duplicate. *)
  let b = Builder.create ~n:5 () in
  Seq.iter (fun (u, v) -> Builder.add_edge b u v) (List.to_seq [ (0, 1); (1, 2); (0, 1) ]);
  let g = Builder.finish b in
  check_int "n respects fixed bound" 5 (Graph.n g);
  check_int "m deduped" 2 (Graph.m g)

(* [endpoint] reads the buffer in insertion order, both endpoints of
   every edge as given (duplicates and orientation kept, the largest
   ids included), and raises outside [0, 2 * added) and after finish. *)
let test_builder_endpoint () =
  let edges = [| (3, 1); (0, 2); (3, 1); (2, 0); (5, (1 lsl 31) - 1) |] in
  let b = Builder.create () in
  Array.iter (fun (u, v) -> Builder.add_edge b u v) edges;
  let flat = Array.concat (Array.to_list (Array.map (fun (u, v) -> [| u; v |]) edges)) in
  Alcotest.(check (array int))
    "endpoints" flat
    (Array.init (2 * Array.length edges) (Builder.endpoint b));
  let raises msg j =
    Alcotest.check_raises msg
      (Invalid_argument (Printf.sprintf "Builder.endpoint: %d outside [0, 10)" j))
      (fun () -> ignore (Builder.endpoint b j))
  in
  raises "negative slot" (-1);
  raises "slot past the buffer" 10;
  let b = Builder.create ~n:2 () in
  Builder.add_edge b 0 1;
  ignore (Builder.finish b);
  Alcotest.check_raises "after finish"
    (Invalid_argument "Builder.endpoint: builder already finished") (fun () ->
      ignore (Builder.endpoint b 0))

(* --- Barabasi-Albert (repaired) --- *)

(* Exactly m distinct attachments per post-seed vertex: the old
   bounded-guard sampler silently under-attached on dense graphs. *)
let test_ba_exact_edge_count () =
  List.iter
    (fun (n, m) ->
      let g = Gen_extra.barabasi_albert ~n ~m (Rng.create 5) in
      let expected = (m * (m + 1) / 2) + (m * (n - m - 1)) in
      check_int (Printf.sprintf "m for n=%d m=%d" n m) expected (Graph.m g);
      check_int "n" n (Graph.n g);
      (* Every vertex ends with degree >= m: the m it attached with, or
         (seed clique) m from the clique plus later attachments. *)
      check_bool "min degree >= m" true (Graph.min_degree g >= m);
      check_bool "connected" true (Props.is_connected g))
    [ (50, 1); (50, 5); (40, 20); (30, 28) ]

let test_ba_large_smoke () =
  (* The regression that motivated the rewrite: the old quadratic
     refresh made this size take minutes; now it is well under a
     second, with the exact count. *)
  let n = 30_000 and m = 8 in
  let g = Gen_extra.barabasi_albert ~n ~m (Rng.create 17) in
  check_int "exact m" ((m * (m + 1) / 2) + (m * (n - m - 1))) (Graph.m g);
  check_bool "connected" true (Props.is_connected g)

let test_ba_tail_exponent () =
  let g = Gen_extra.barabasi_albert ~n:20_000 ~m:4 (Rng.create 31) in
  match Props.degree_tail_exponent ~dmin:4 g with
  | None -> Alcotest.fail "no tail estimate on a BA graph"
  | Some gamma ->
      check_bool
        (Printf.sprintf "BA tail exponent %.3f in (2.2, 3.8)" gamma)
        true
        (gamma > 2.2 && gamma < 3.8)

(* --- Chung-Lu --- *)

let test_power_law_weights () =
  let w = Chung_lu.power_law_weights ~n:100 ~exponent:2.5 () in
  check_int "length" 100 (Array.length w);
  check_bool "decreasing" true
    (Array.for_all Fun.id (Array.init 99 (fun i -> w.(i) >= w.(i + 1))));
  Alcotest.(check (float 1e-9)) "wmin at the tail" 1.0 w.(99);
  Alcotest.check_raises "exponent <= 1" (Invalid_argument "") (fun () ->
      try ignore (Chung_lu.power_law_weights ~n:10 ~exponent:1.0 ())
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_chunglu_degrees_and_tail () =
  let n = 20_000 in
  let g = Chung_lu.power_law ~n ~exponent:2.5 (Rng.create 7) in
  check_int "n" n (Graph.n g);
  let avg = 2.0 *. float_of_int (Graph.m g) /. float_of_int n in
  check_bool
    (Printf.sprintf "average degree %.2f within [6, 10]" avg)
    true
    (avg > 6.0 && avg < 10.0);
  match Props.degree_tail_exponent g with
  | None -> Alcotest.fail "no tail estimate on a Chung-Lu graph"
  | Some gamma ->
      check_bool
        (Printf.sprintf "tail exponent %.3f in (2.0, 3.2)" gamma)
        true
        (gamma > 2.0 && gamma < 3.2)

let test_chunglu_avg_degree_param () =
  let g = Chung_lu.power_law ~n:10_000 ~exponent:2.7 ~avg_degree:4.0 (Rng.create 9) in
  let avg = 2.0 *. float_of_int (Graph.m g) /. float_of_int (Graph.n g) in
  check_bool (Printf.sprintf "average degree %.2f within [2.8, 5.2]" avg) true
    (avg > 2.8 && avg < 5.2)

(* --- Configuration model --- *)

let test_power_law_degrees () =
  let degs = Chung_lu.power_law_degrees ~n:5_001 ~exponent:2.5 ~dmin:2 (Rng.create 3) in
  check_int "length" 5_001 (Array.length degs);
  check_int "even sum" 0 (Array.fold_left ( + ) 0 degs mod 2);
  check_bool "within bounds" true (Array.for_all (fun d -> d >= 2 && d <= 5_000) degs)

let test_configuration_model () =
  let rng = Rng.create 13 in
  let degs = Chung_lu.power_law_degrees ~n:2_000 ~exponent:2.5 ~dmin:2 rng in
  let g = Chung_lu.configuration_model ~degrees:degs rng in
  check_int "n" 2_000 (Graph.n g);
  (* Erasure only removes stubs, so realised degree <= prescription. *)
  check_bool "degrees bounded by prescription" true
    (Array.for_all Fun.id (Array.init 2_000 (fun u -> Graph.degree g u <= degs.(u))));
  let sum = Array.fold_left ( + ) 0 degs in
  check_bool "few stubs erased" true (2 * Graph.m g > sum * 9 / 10);
  Alcotest.check_raises "odd degree sum" (Invalid_argument "") (fun () ->
      try ignore (Chung_lu.configuration_model ~degrees:[| 1; 1; 1 |] (Rng.create 1))
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* --- Giant component extraction --- *)

let test_largest_component () =
  (* K5 on {0..4} and K3 on {5..7}. *)
  let edges = ref [] in
  for u = 0 to 4 do
    for v = u + 1 to 4 do
      edges := (u, v) :: !edges
    done
  done;
  for u = 5 to 7 do
    for v = u + 1 to 7 do
      edges := (u, v) :: !edges
    done
  done;
  let g = Graph.of_edges ~n:8 !edges in
  let giant = Props.largest_component g in
  check_int "giant n" 5 (Graph.n giant);
  check_int "giant m" 10 (Graph.m giant);
  check_bool "giant is the clique" true (Graph.is_regular giant && Graph.max_degree giant = 4)

let test_largest_component_connected_identity () =
  let g = Gen.petersen () in
  check_bool "connected graph returned as-is" true (Props.largest_component g == g)

let test_largest_component_tie_break () =
  (* Two components of equal size: the one containing vertex 0 wins. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let giant = Props.largest_component g in
  check_int "n" 2 (Graph.n giant);
  (* Renumbered densely: the surviving edge is (0, 1) of the first pair. *)
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1) ] (Graph.edges giant)

let test_tail_exponent_none_on_regular () =
  check_bool "regular graph has no tail" true
    (Props.degree_tail_exponent (Gen.hypercube 6) = None)

(* --- Streaming ingest: remap and self-loops --- *)

let with_string_input s f =
  let path = Filename.temp_file "cobra_test_webscale" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

let test_read_stream_remap () =
  let input = "# sparse ids\n10\t20\n20\t30\n10\t30\n" in
  let g_raw = with_string_input input (fun ic -> Graph_io.read_stream ic) in
  check_int "raw n = 1 + max id" 31 (Graph.n g_raw);
  check_int "raw m" 3 (Graph.m g_raw);
  let g, stats = with_string_input input (fun ic -> Graph_io.read_stream_stats ~remap:true ic) in
  check_int "remapped n" 3 (Graph.n g);
  check_int "remapped m" 3 (Graph.m g);
  check_int "distinct ids assigned" 3 stats.Graph_io.remapped_ids;
  check_int "edge lines" 3 stats.Graph_io.edge_lines;
  check_int "comments" 1 stats.Graph_io.comments;
  (* First-seen order: 10 -> 0, 20 -> 1, 30 -> 2, so the triangle is
     exactly {01, 02, 12}. *)
  Alcotest.(check (list (pair int int)))
    "first-seen renumbering" [ (0, 1); (0, 2); (1, 2) ] (Graph.edges g)

let test_read_stream_self_loops () =
  let input = "0 1\n1 1\n1 2\n" in
  let g, stats = with_string_input input (fun ic -> Graph_io.read_stream_stats ic) in
  check_int "self-loop dropped" 2 (Graph.m g);
  check_int "dropped count" 1 stats.Graph_io.self_loops;
  Alcotest.check_raises "strict mode raises" (Failure "") (fun () ->
      try ignore (with_string_input input (fun ic -> Graph_io.read_stream ~drop_self_loops:false ic))
      with Failure _ -> raise (Failure ""))

let test_read_stream_negative_without_remap () =
  Alcotest.check_raises "negative id" (Failure "") (fun () ->
      try ignore (with_string_input "0 1\n-2 3\n" (fun ic -> Graph_io.read_stream ic))
      with Failure _ -> raise (Failure ""))

(* --- Parameterized family strings --- *)

let test_by_name_parameterized () =
  let rng () = Rng.create 41 in
  let cl = Gen.by_name "chunglu:2.5" ~n:2_000 (rng ()) in
  check_bool "chunglu connected (giant extracted)" true (Props.is_connected cl);
  check_bool "chunglu nontrivial" true (Graph.n cl > 1_000);
  let cl6 = Gen.by_name "chunglu:2.5:4" ~n:2_000 (rng ()) in
  check_bool "chunglu avg-degree param accepted" true (Graph.m cl6 < Graph.m cl);
  let cm = Gen.by_name "config:2.5" ~n:2_000 (rng ()) in
  check_bool "config connected (giant extracted)" true (Props.is_connected cm);
  let ba = Gen.by_name "ba:4" ~n:500 (rng ()) in
  check_int "ba n" 500 (Graph.n ba);
  check_int "ba m exact" ((4 * 5 / 2) + (4 * 495)) (Graph.m ba)

let test_by_name_bad_params () =
  let raises msg name = Alcotest.check_raises msg (Invalid_argument "") (fun () ->
      try ignore (Gen.by_name name ~n:100 (Rng.create 1))
      with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  raises "non-numeric exponent" "chunglu:abc";
  raises "empty param" "ba:";
  raises "unknown family" "nope:1";
  raises "exponent at 1" "chunglu:1.0";
  raises "too many params" "ba:4:5"

let test_family_names_include_parameterized () =
  List.iter
    (fun name ->
      check_bool (name ^ " listed") true (List.mem name Gen.family_names))
    [ "chunglu:2.5"; "config:2.5"; "ba:4" ]

let () =
  Alcotest.run "webscale"
    [
      ( "builder",
        [
          Alcotest.test_case "matches of_edge_array" `Quick test_builder_matches_of_edge_array;
          Alcotest.test_case "auto-grow" `Quick test_builder_autogrow;
          Alcotest.test_case "dedup and sort" `Quick test_builder_dedup_and_sort;
          Alcotest.test_case "errors" `Quick test_builder_errors;
          Alcotest.test_case "of_edge_seq" `Quick test_builder_of_edge_seq;
          Alcotest.test_case "endpoint" `Quick test_builder_endpoint;
        ] );
      ( "barabasi-albert",
        [
          Alcotest.test_case "exact edge count" `Quick test_ba_exact_edge_count;
          Alcotest.test_case "large smoke" `Quick test_ba_large_smoke;
          Alcotest.test_case "tail exponent" `Quick test_ba_tail_exponent;
        ] );
      ( "chung-lu",
        [
          Alcotest.test_case "weight sequence" `Quick test_power_law_weights;
          Alcotest.test_case "degrees and tail" `Quick test_chunglu_degrees_and_tail;
          Alcotest.test_case "avg degree param" `Quick test_chunglu_avg_degree_param;
        ] );
      ( "configuration-model",
        [
          Alcotest.test_case "power-law degrees" `Quick test_power_law_degrees;
          Alcotest.test_case "erased matching" `Quick test_configuration_model;
        ] );
      ( "components",
        [
          Alcotest.test_case "largest component" `Quick test_largest_component;
          Alcotest.test_case "connected identity" `Quick test_largest_component_connected_identity;
          Alcotest.test_case "tie break" `Quick test_largest_component_tie_break;
          Alcotest.test_case "tail exponent none" `Quick test_tail_exponent_none_on_regular;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "remap" `Quick test_read_stream_remap;
          Alcotest.test_case "self-loops" `Quick test_read_stream_self_loops;
          Alcotest.test_case "negative ids" `Quick test_read_stream_negative_without_remap;
        ] );
      ( "families",
        [
          Alcotest.test_case "parameterized names" `Quick test_by_name_parameterized;
          Alcotest.test_case "bad params" `Quick test_by_name_bad_params;
          Alcotest.test_case "names listed" `Quick test_family_names_include_parameterized;
        ] );
    ]
