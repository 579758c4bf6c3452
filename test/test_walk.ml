(* Tests for the random-walk baselines. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Walk = Cobra_core.Walk

let check_bool = Alcotest.(check bool)

let test_singleton () =
  let g = Graph.of_edges ~n:1 [] in
  Alcotest.(check (option int)) "already covered" (Some 0)
    (Walk.cover_time g (Rng.create 1) ~start:0 ())

let test_k2 () =
  let g = Gen.complete 2 in
  for seed = 1 to 20 do
    Alcotest.(check (option int)) "one step" (Some 1)
      (Walk.cover_time g (Rng.create seed) ~start:0 ())
  done

let test_path_cover_lower_bound () =
  let g = Gen.path 15 in
  match Walk.cover_time g (Rng.create 2) ~start:0 () with
  | Some steps -> check_bool "at least n-1 steps" true (steps >= 14)
  | None -> Alcotest.fail "walk did not cover the path"

let test_determinism () =
  let g = Gen.petersen () in
  let a = Walk.cover_time g (Rng.create 3) ~start:0 () in
  let b = Walk.cover_time g (Rng.create 3) ~start:0 () in
  check_bool "deterministic" true (a = b)

let test_censoring () =
  let g = Gen.cycle 30 in
  Alcotest.(check (option int)) "cap" None
    (Walk.cover_time g (Rng.create 4) ~max_steps:5 ~start:0 ())

let test_lazy_walk_covers () =
  let g = Gen.cycle 10 in
  match Walk.cover_time g (Rng.create 5) ~lazy_:true ~start:0 () with
  | Some steps -> check_bool "laziness slows but covers" true (steps >= 9)
  | None -> Alcotest.fail "lazy walk did not cover"

let test_multi_cover_k1_matches_single () =
  (* k = 1 multi-walk is exactly a single walk (same random stream usage:
     one neighbour draw per round). *)
  let g = Gen.cycle 17 in
  let a = Walk.cover_time g (Rng.create 6) ~start:0 () in
  let b = Walk.multi_cover_time g (Rng.create 6) ~k:1 ~start:0 () in
  check_bool "identical" true (a = b)

let test_multi_walks_faster_on_average () =
  let g = Gen.cycle 40 in
  let mean k =
    let total = ref 0 in
    for seed = 1 to 25 do
      match Walk.multi_cover_time g (Rng.create seed) ~k ~start:0 () with
      | Some r -> total := !total + r
      | None -> total := !total + 1_000_000
    done;
    float_of_int !total /. 25.0
  in
  check_bool "8 walks beat 1 walk" true (mean 8 < mean 1)

let test_multi_validation () =
  let g = Gen.petersen () in
  Alcotest.check_raises "k = 0" (Invalid_argument "Walk.multi_cover_time: k must be >= 1")
    (fun () -> ignore (Walk.multi_cover_time g (Rng.create 1) ~k:0 ~start:0 ()));
  Alcotest.check_raises "bad start" (Invalid_argument "Walk.cover_time: start out of range")
    (fun () -> ignore (Walk.cover_time g (Rng.create 1) ~start:99 ()))

(* Walk cover time on K_n concentrates near the coupon-collector number
   (n-1) H_{n-1}; check the right order of magnitude in the mean. *)
let test_complete_graph_coupon_collector () =
  let n = 32 in
  let g = Gen.complete n in
  let total = ref 0 in
  let trials = 40 in
  for seed = 1 to trials do
    match Walk.cover_time g (Rng.create seed) ~start:0 () with
    | Some s -> total := !total + s
    | None -> Alcotest.fail "K32 walk censored"
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let harmonic = ref 0.0 in
  for i = 1 to n - 1 do
    harmonic := !harmonic +. (1.0 /. float_of_int i)
  done;
  let expected = float_of_int (n - 1) *. !harmonic in
  check_bool
    (Printf.sprintf "mean %.1f within 30%% of coupon collector %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.3 *. expected)

let walk_covers_trees_test =
  QCheck2.Test.make ~name:"walk covers random trees" ~count:25
    QCheck2.Gen.(pair (int_range 2 40) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.random_tree ~n rng in
      match Walk.cover_time g rng ~start:0 () with
      | Some steps -> steps >= n - 1
      | None -> false)

(* A walk's steps allocate nothing: one cover run allocates its visited
   set and a constant, on two graphs whose covers take 10^4 and 10^5
   steps. *)
let test_cover_allocates_constant () =
  List.iter
    (fun (g, lazy_) ->
      let n = Graph.n g in
      let visited =
        Alloc.words (fun () -> ignore (Sys.opaque_identity (Cobra_bitset.Bitset.create n)))
      in
      let rng = Rng.create 3 in
      let steps = ref None in
      let w = Alloc.words (fun () -> steps := Walk.cover_time g rng ~lazy_ ~start:0 ()) in
      check_bool
        (Printf.sprintf "n=%d lazy=%b: %.0f minor words over %s steps, visited set %.0f" n lazy_ w
           (match !steps with Some s -> string_of_int s | None -> "censored")
           visited)
        true
        (!steps <> None && w <= visited +. 64.))
    [ (Gen.hypercube 10, false); (Gen.hypercube 12, true) ]

let () =
  Alcotest.run "walk"
    [
      ( "single",
        [
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "K2" `Quick test_k2;
          Alcotest.test_case "path lower bound" `Quick test_path_cover_lower_bound;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "censoring" `Quick test_censoring;
          Alcotest.test_case "lazy" `Quick test_lazy_walk_covers;
          Alcotest.test_case "coupon collector" `Quick test_complete_graph_coupon_collector;
          Alcotest.test_case "cover allocates a constant" `Quick test_cover_allocates_constant;
        ] );
      ( "multi",
        [
          Alcotest.test_case "k=1 matches single" `Quick test_multi_cover_k1_matches_single;
          Alcotest.test_case "more walks faster" `Quick test_multi_walks_faster_on_average;
          Alcotest.test_case "validation" `Quick test_multi_validation;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest walk_covers_trees_test ]);
    ]
