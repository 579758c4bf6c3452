(* Tests for the CSR Graph module. *)

module Graph = Cobra_graph.Graph
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]

let test_basic_construction () =
  let g = triangle () in
  check_int "n" 3 (Graph.n g);
  check_int "m" 3 (Graph.m g);
  check_int "degree 0" 2 (Graph.degree g 0);
  check_int "max_degree" 2 (Graph.max_degree g);
  check_int "min_degree" 2 (Graph.min_degree g);
  check_bool "regular" true (Graph.is_regular g);
  check_int "total_degree" 6 (Graph.total_degree g)

let test_dedup_and_orientation () =
  (* Duplicates and both orientations collapse to one edge. *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  check_int "m deduped" 2 (Graph.m g);
  check_int "degree 0" 1 (Graph.degree g 0);
  check_int "degree 1" 2 (Graph.degree g 1)

let test_neighbors_sorted () =
  let g = Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2);
  check_int "neighbor 0" 0 (Graph.neighbor g 2 0);
  check_int "neighbor 3" 4 (Graph.neighbor g 2 3)

let test_mem_edge () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (0, 3); (0, 5); (2, 4) ] in
  check_bool "has (0,3)" true (Graph.mem_edge g 0 3);
  check_bool "has (3,0)" true (Graph.mem_edge g 3 0);
  check_bool "no (0,2)" false (Graph.mem_edge g 0 2);
  check_bool "no (1,1)" false (Graph.mem_edge g 1 1)

let test_edges_canonical () =
  let g = Graph.of_edges ~n:4 [ (3, 2); (1, 0); (2, 0) ] in
  Alcotest.(check (list (pair int int)))
    "canonical edges"
    [ (0, 1); (0, 2); (2, 3) ]
    (Graph.edges g)

let test_iter_edges_once () =
  let g = triangle () in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      check_bool "u < v" true (u < v);
      incr count);
  check_int "each edge once" 3 !count

let test_fold_iter_neighbors () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  check_int "fold sum" 6 (Graph.fold_neighbors g 0 (fun acc v -> acc + v) 0);
  let seen = ref [] in
  Graph.iter_neighbors g 0 (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !seen

let test_random_neighbor () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let rng = Rng.create 5 in
  let counts = Array.make 4 0 in
  for _ = 1 to 3000 do
    let v = Graph.random_neighbor g rng 0 in
    counts.(v) <- counts.(v) + 1
  done;
  check_int "never self" 0 counts.(0);
  for v = 1 to 3 do
    check_bool
      (Printf.sprintf "neighbor %d frequency %d roughly uniform" v counts.(v))
      true
      (counts.(v) > 800 && counts.(v) < 1200)
  done

let test_random_neighbor_isolated () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let rng = Rng.create 1 in
  Alcotest.check_raises "isolated"
    (Invalid_argument "Graph.random_neighbor: vertex 2 is isolated") (fun () ->
      ignore (Graph.random_neighbor g rng 2))

let test_empty_and_singleton () =
  let empty = Graph.of_edges ~n:0 [] in
  check_int "empty n" 0 (Graph.n empty);
  check_int "empty m" 0 (Graph.m empty);
  check_int "empty max_degree" 0 (Graph.max_degree empty);
  let single = Graph.of_edges ~n:1 [] in
  check_int "singleton degree" 0 (Graph.degree single 0);
  check_bool "singleton regular" true (Graph.is_regular single)

let test_errors () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.of_edge_array: self-loop at 1")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edge_array: edge (0, 3) out of range [0, 3)") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3) ]));
  Alcotest.check_raises "negative n" (Invalid_argument "Graph.of_edge_array: negative n")
    (fun () -> ignore (Graph.of_edges ~n:(-1) []));
  Alcotest.check_raises "n above the int32 limit"
    (Invalid_argument
       "Graph.of_edge_array: n = 2147483648 exceeds the int32 CSR limit 2^31 - 1 = 2147483647")
    (fun () -> ignore (Graph.of_edge_array ~n:(1 lsl 31) [||]));
  let g = triangle () in
  Alcotest.check_raises "vertex range" (Invalid_argument "Graph: vertex 5 out of range [0, 3)")
    (fun () -> ignore (Graph.degree g 5));
  Alcotest.check_raises "neighbor index"
    (Invalid_argument "Graph.neighbor: index 2 out of range [0, 2)") (fun () ->
      ignore (Graph.neighbor g 0 2))

let test_pp_stats () =
  let s = Format.asprintf "%a" Graph.pp_stats (triangle ()) in
  check_bool "mentions n" true (String.length s > 0 && String.sub s 0 3 = "n=3")

(* Random edge lists for the property tests. *)
let random_edges_gen =
  QCheck2.Gen.(
    pair (int_range 2 40) (list_size (int_bound 120) (pair (int_bound 39) (int_bound 39))))

let clean_edges n raw =
  List.filter_map
    (fun (u, v) ->
      let u = u mod n and v = v mod n in
      if u = v then None else Some (u, v))
    raw

let degree_sum_test =
  QCheck2.Test.make ~name:"sum of degrees = 2m" ~count:100 random_edges_gen (fun (n, raw) ->
      let g = Graph.of_edges ~n (clean_edges n raw) in
      let sum = ref 0 in
      for u = 0 to n - 1 do
        sum := !sum + Graph.degree g u
      done;
      !sum = 2 * Graph.m g)

let roundtrip_test =
  QCheck2.Test.make ~name:"of_edges (edges g) = g" ~count:100 random_edges_gen (fun (n, raw) ->
      let g = Graph.of_edges ~n (clean_edges n raw) in
      let g2 = Graph.of_edges ~n (Graph.edges g) in
      Graph.edges g = Graph.edges g2 && Graph.m g = Graph.m g2)

let mem_edge_matches_edges_test =
  QCheck2.Test.make ~name:"mem_edge agrees with edge list" ~count:50 random_edges_gen
    (fun (n, raw) ->
      let g = Graph.of_edges ~n (clean_edges n raw) in
      let edge_set = Hashtbl.create 64 in
      List.iter (fun (u, v) -> Hashtbl.replace edge_set (u, v) ()) (Graph.edges g);
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let expected = u <> v && (Hashtbl.mem edge_set (min u v, max u v)) in
          if Graph.mem_edge g u v <> expected then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_basic_construction;
          Alcotest.test_case "dedup" `Quick test_dedup_and_orientation;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
          Alcotest.test_case "iter_edges" `Quick test_iter_edges_once;
          Alcotest.test_case "fold/iter neighbors" `Quick test_fold_iter_neighbors;
          Alcotest.test_case "random_neighbor" `Quick test_random_neighbor;
          Alcotest.test_case "random_neighbor isolated" `Quick test_random_neighbor_isolated;
          Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest degree_sum_test;
          QCheck_alcotest.to_alcotest roundtrip_test;
          QCheck_alcotest.to_alcotest mem_edge_matches_edges_test;
        ] );
    ]
