(* Tests for the Monte-Carlo estimators. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Process = Cobra_core.Process
module Estimate = Cobra_core.Estimate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool f = Pool.with_pool ~num_domains:2 f

let test_start_heuristic_path () =
  let g = Gen.path 11 in
  let s = Estimate.start_heuristic g in
  check_bool "an endpoint" true (s = 0 || s = 10)

let test_start_heuristic_lollipop () =
  let g = Gen.lollipop ~clique:6 ~tail:5 in
  (* Double sweep lands on a diametral endpoint: its eccentricity equals
     the diameter (either the tail end or a clique vertex, both ecc 6). *)
  let s = Estimate.start_heuristic g in
  check_int "diametral vertex" (Cobra_graph.Props.diameter g) (Cobra_graph.Props.eccentricity g s)

let test_cover_time_basic () =
  with_pool (fun pool ->
      let g = Gen.complete 16 in
      let r = Estimate.cover_time ~pool ~master_seed:1 ~trials:48 g in
      check_int "no censoring" 0 r.censored;
      check_int "all trials" 48 r.summary.count;
      check_bool "positive mean" true (r.summary.mean >= 1.0);
      check_bool "quantiles ordered" true (r.median <= r.q90 +. 1e-9);
      check_bool "mean within range" true
        (r.summary.min <= r.summary.mean && r.summary.mean <= r.summary.max);
      (* K16: 2 transmissions per active vertex per round. *)
      check_bool "transmissions counted" true (r.mean_transmissions >= 2.0))

let test_cover_time_deterministic_given_seed () =
  with_pool (fun pool ->
      let g = Gen.petersen () in
      let a = Estimate.cover_time ~pool ~master_seed:5 ~trials:32 g in
      let b = Estimate.cover_time ~pool ~master_seed:5 ~trials:32 g in
      check_bool "same mean" true (a.summary.mean = b.summary.mean);
      check_bool "same q90" true (a.q90 = b.q90))

let test_cover_time_censored () =
  with_pool (fun pool ->
      let g = Gen.path 64 in
      let r = Estimate.cover_time ~pool ~master_seed:2 ~trials:8 ~max_rounds:3 g in
      check_int "all censored" 8 r.censored;
      check_bool "summary is nan" true (Float.is_nan r.summary.mean))

(* With every trial censored the summary is the empty sample's: no
   completed trial, and no statistic, not one nan trial of spread 0. *)
let test_all_censored_summary () =
  with_pool (fun pool ->
      let g = Gen.path 10 in
      List.iter
        (fun (name, (r : Estimate.result)) ->
          check_int (name ^ ": censored") 2 r.censored;
          check_int (name ^ ": completed") 0 r.summary.count;
          List.iter
            (fun (stat, x) -> check_bool (Printf.sprintf "%s: %s nan" name stat) true (Float.is_nan x))
            [
              ("mean", r.summary.mean); ("stddev", r.summary.stddev); ("min", r.summary.min);
              ("median", r.median); ("q90", r.q90); ("transmissions", r.mean_transmissions);
            ])
        [
          ("cover", Estimate.cover_time ~pool ~master_seed:2 ~trials:2 ~max_rounds:1 g);
          ("infection", Estimate.infection_time ~pool ~master_seed:2 ~trials:2 ~max_rounds:1 g);
        ])

let test_infection_time_basic () =
  with_pool (fun pool ->
      let g = Gen.complete 16 in
      let r = Estimate.infection_time ~pool ~master_seed:3 ~trials:32 g in
      check_int "no censoring" 0 r.censored;
      check_bool "transmissions are nan for BIPS" true (Float.is_nan r.mean_transmissions);
      check_bool "positive" true (r.summary.mean >= 1.0))

let test_walk_estimates () =
  with_pool (fun pool ->
      let g = Gen.cycle 12 in
      let single = Estimate.walk_cover_time ~pool ~master_seed:4 ~trials:24 g in
      check_int "no censoring" 0 single.censored;
      let multi = Estimate.multi_walk_cover_time ~pool ~master_seed:4 ~trials:24 ~k:4 g in
      check_int "no censoring (multi)" 0 multi.censored;
      check_bool "4 walks faster in mean" true (multi.summary.mean < single.summary.mean))

let test_branching_variants () =
  with_pool (fun pool ->
      let g = Gen.petersen () in
      let b2 = Estimate.cover_time ~pool ~master_seed:6 ~trials:48 g in
      let rho =
        Estimate.cover_time ~pool ~master_seed:6 ~trials:48
          ~branching:(Process.Bernoulli 0.25) g
      in
      check_bool "less branching is slower in mean" true (b2.summary.mean <= rho.summary.mean))

let test_explicit_start () =
  with_pool (fun pool ->
      let g = Gen.lollipop ~clique:8 ~tail:8 in
      (* Starting inside the clique vs at the tail end: the tail end can
         only be slower or equal in distribution; check the means with
         common seeds. *)
      let clique_start = Estimate.cover_time ~pool ~master_seed:7 ~trials:32 ~start:1 g in
      let tail_start = Estimate.cover_time ~pool ~master_seed:7 ~trials:32 ~start:15 g in
      check_bool "estimates exist" true
        (clique_start.summary.count = 32 && tail_start.summary.count = 32))

let test_validation () =
  with_pool (fun pool ->
      let g = Gen.petersen () in
      Alcotest.check_raises "zero trials" (Invalid_argument "Estimate: trials must be >= 1")
        (fun () -> ignore (Estimate.cover_time ~pool ~master_seed:1 ~trials:0 g)))

let () =
  Alcotest.run "estimate"
    [
      ( "heuristics",
        [
          Alcotest.test_case "path endpoint" `Quick test_start_heuristic_path;
          Alcotest.test_case "lollipop tail" `Quick test_start_heuristic_lollipop;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "cover basic" `Quick test_cover_time_basic;
          Alcotest.test_case "deterministic" `Quick test_cover_time_deterministic_given_seed;
          Alcotest.test_case "censoring" `Quick test_cover_time_censored;
          Alcotest.test_case "all censored" `Quick test_all_censored_summary;
          Alcotest.test_case "infection basic" `Quick test_infection_time_basic;
          Alcotest.test_case "walks" `Quick test_walk_estimates;
          Alcotest.test_case "branching variants" `Quick test_branching_variants;
          Alcotest.test_case "explicit start" `Quick test_explicit_start;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
