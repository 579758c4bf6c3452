(* Tests for structural graph properties. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_bfs_path () =
  let g = Gen.path 6 in
  Alcotest.(check (array int)) "distances from 0" [| 0; 1; 2; 3; 4; 5 |] (Props.bfs_distances g 0);
  Alcotest.(check (array int)) "distances from 3" [| 3; 2; 1; 0; 1; 2 |] (Props.bfs_distances g 3)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let d = Props.bfs_distances g 0 in
  check_int "reachable" 1 d.(1);
  check_int "unreachable" (-1) d.(2)

let test_connectivity () =
  check_bool "path connected" true (Props.is_connected (Gen.path 5));
  check_bool "split not connected" false
    (Props.is_connected (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]));
  check_bool "empty graph" true (Props.is_connected (Graph.of_edges ~n:0 []));
  check_bool "singleton" true (Props.is_connected (Graph.of_edges ~n:1 []));
  check_bool "two isolated" false (Props.is_connected (Graph.of_edges ~n:2 []))

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let labels, k = Props.components g in
  check_int "component count" 3 k;
  check_bool "0,1,2 together" true (labels.(0) = labels.(1) && labels.(1) = labels.(2));
  check_bool "3,4 together" true (labels.(3) = labels.(4));
  check_bool "separate" true (labels.(0) <> labels.(3) && labels.(3) <> labels.(5))

let test_diameter_known () =
  check_int "path" 7 (Props.diameter (Gen.path 8));
  check_int "cycle even" 4 (Props.diameter (Gen.cycle 8));
  check_int "cycle odd" 4 (Props.diameter (Gen.cycle 9));
  check_int "complete" 1 (Props.diameter (Gen.complete 6));
  check_int "star" 2 (Props.diameter (Gen.star 10));
  check_int "hypercube" 4 (Props.diameter (Gen.hypercube 4));
  check_int "petersen" 2 (Props.diameter (Gen.petersen ()));
  check_int "grid 3x3" 4 (Props.diameter (Gen.grid ~dims:[ 3; 3 ]))

let test_diameter_disconnected () =
  Alcotest.check_raises "disconnected" (Invalid_argument "Props.diameter: graph is disconnected")
    (fun () -> ignore (Props.diameter (Graph.of_edges ~n:3 [ (0, 1) ])))

let test_eccentricity () =
  let g = Gen.path 7 in
  check_int "end" 6 (Props.eccentricity g 0);
  check_int "middle" 3 (Props.eccentricity g 3)

let test_bipartite () =
  check_bool "even cycle" true (Props.is_bipartite (Gen.cycle 8));
  check_bool "odd cycle" false (Props.is_bipartite (Gen.cycle 9));
  check_bool "path" true (Props.is_bipartite (Gen.path 5));
  check_bool "hypercube" true (Props.is_bipartite (Gen.hypercube 4));
  check_bool "complete bipartite" true (Props.is_bipartite (Gen.complete_bipartite 3 5));
  check_bool "triangle" false (Props.is_bipartite (Gen.complete 3));
  check_bool "petersen" false (Props.is_bipartite (Gen.petersen ()));
  check_bool "tree" true (Props.is_bipartite (Gen.binary_tree 20));
  (* Disconnected: bipartite iff every component is. *)
  check_bool "disconnected bipartite" true
    (Props.is_bipartite (Graph.of_edges ~n:5 [ (0, 1); (2, 3) ]));
  check_bool "disconnected with triangle" false
    (Props.is_bipartite (Graph.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4); (4, 2) ]))

let test_degree_histogram () =
  let g = Gen.star 5 in
  Alcotest.(check (list (pair int int))) "star histogram" [ (1, 4); (4, 1) ]
    (Props.degree_histogram g)

let test_average_degree () =
  Alcotest.(check (float 1e-9)) "cycle avg" 2.0 (Props.average_degree (Gen.cycle 10));
  Alcotest.(check (float 1e-9)) "K5 avg" 4.0 (Props.average_degree (Gen.complete 5))

let test_diameter_lower_bound_tree_exact () =
  (* Double sweep is exact on trees. *)
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let g = Gen.random_tree ~n:30 rng in
    check_int "double sweep exact on trees" (Props.diameter g) (Props.diameter_lower_bound g)
  done

let lower_bound_le_diameter_test =
  QCheck2.Test.make ~name:"double sweep <= diameter" ~count:60 QCheck2.Gen.(int_range 4 60)
    (fun n ->
      let rng = Rng.create n in
      let p = 2.5 *. log (float_of_int n) /. float_of_int n in
      let g = Gen.connected_gnp ~n ~p rng in
      Props.diameter_lower_bound g <= Props.diameter g)

let bfs_triangle_inequality_test =
  QCheck2.Test.make ~name:"bfs satisfies edge Lipschitz property" ~count:40
    QCheck2.Gen.(int_range 4 40)
    (fun n ->
      let rng = Rng.create (n * 3) in
      let g = Gen.connected_gnp ~n ~p:(2.5 *. log (float_of_int n) /. float_of_int n) rng in
      let d = Props.bfs_distances g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun u v -> if abs (d.(u) - d.(v)) > 1 then ok := false);
      !ok)

(* Random graphs for the oracle comparison, drawn to exercise both
   directions of the level loop and the switch between them: stars,
   complete graphs and preferential attachment (bottom-up levels); paths,
   cycles and brooms (top-down only); lollipops and barbells (both);
   sparse G(n, p), disjoint unions and isolated vertices (disconnected).
   Below n = 24 every non-empty frontier passes the size test, so the
   small draws switch direction far more often than the large ones.
   Half the draws are randomly relabelled, which moves hubs and changes
   which vertex wins the deepest level's tie-break. *)
let rec shape rng depth =
  let size lo hi = lo + Rng.int_below rng (hi - lo + 1) in
  let g =
    match Rng.int_below rng (if depth = 0 then 11 else 10) with
    | 0 -> Gen.path (size 1 200)
    | 1 -> Gen.cycle (size 3 200)
    | 2 -> Gen.star (size 2 200)
    | 3 -> Gen.complete (size 1 40)
    | 4 ->
        let m = size 1 4 in
        Cobra_graph.Gen_extra.barabasi_albert ~n:(size (m + 1) 300) ~m rng
    | 5 -> Cobra_graph.Gen_extra.broom ~handle:(size 1 60) ~bristles:(size 1 60)
    | 6 -> Gen.lollipop ~clique:(size 3 40) ~tail:(size 1 60)
    | 7 -> Gen.barbell ~clique:(size 3 30) ~bridge:(size 0 40)
    | 8 ->
        let n = size 1 200 in
        Gen.erdos_renyi_gnp ~n ~p:(Float.min 1.0 (1.5 /. float_of_int n)) rng
    | 9 -> Graph.of_edges ~n:(size 1 5) []
    | _ -> Graph_ops.disjoint_union (shape rng 1) (shape rng 1)
  in
  if Rng.bool rng then Graph_ops.random_relabel g rng else g

let outcome f = match f () with x -> Ok x | exception Invalid_argument msg -> Error msg

let oracle_test =
  QCheck2.Test.make ~name:"level loop = queue BFS oracle" ~count:300
    ~print:string_of_int QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let g = shape rng 0 in
      let n = Graph.n g in
      let sources = [ 0; n - 1; Rng.int_below rng n ] in
      List.for_all
        (fun s ->
          Props.bfs_distances g s = Bfs_oracle.bfs_distances g s
          && outcome (fun () -> Props.eccentricity g s)
             = outcome (fun () -> Bfs_oracle.eccentricity g s))
        sources
      && Props.is_connected g = Bfs_oracle.is_connected g
      && Props.double_sweep g = Bfs_oracle.double_sweep g)

let () =
  Alcotest.run "props"
    [
      ( "unit",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "diameter known" `Quick test_diameter_known;
          Alcotest.test_case "diameter disconnected" `Quick test_diameter_disconnected;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          Alcotest.test_case "bipartite" `Quick test_bipartite;
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
          Alcotest.test_case "average degree" `Quick test_average_degree;
          Alcotest.test_case "double sweep on trees" `Quick test_diameter_lower_bound_tree_exact;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest lower_bound_le_diameter_test;
          QCheck_alcotest.to_alcotest bfs_triangle_inequality_test;
          QCheck_alcotest.to_alcotest oracle_test;
        ] );
    ]
