(* Tests for the per-round growth measurements (Lemma 4.1 / Cor 5.2
   machinery). *)

module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Eigen = Cobra_spectral.Eigen
module Process = Cobra_core.Process
module Growth = Cobra_core.Growth

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool f = Pool.with_pool ~num_domains:2 f

let test_sample_structure () =
  with_pool (fun pool ->
      let g = Gen.petersen () in
      let obs = Growth.sample ~pool ~master_seed:1 ~trajectories:20 g in
      check_bool "collected observations" true (Array.length obs > 0);
      Array.iter
        (fun (o : Growth.observation) ->
          check_bool "size_before in range" true (o.size_before >= 1 && o.size_before <= 10);
          check_bool "size_after in range" true (o.size_after >= 1 && o.size_after <= 10);
          check_bool "candidate set non-empty" true (o.candidate_size >= 1))
        obs)

let test_sample_deterministic () =
  with_pool (fun pool ->
      let g = Gen.petersen () in
      let a = Growth.sample ~pool ~master_seed:2 ~trajectories:10 g in
      let b = Growth.sample ~pool ~master_seed:2 ~trajectories:10 g in
      check_int "same observation count" (Array.length a) (Array.length b))

let test_bands_structure () =
  with_pool (fun pool ->
      let g = Gen.random_regular ~n:128 ~r:6 (Rng.create 3) in
      let obs = Growth.sample ~pool ~master_seed:4 ~trajectories:30 g in
      let lambda = (Eigen.spectrum g).lambda in
      let bands = Growth.bands ~n:128 ~lambda ~branching:(Process.Fixed 2) obs in
      check_bool "bands exist" true (List.length bands >= 3);
      List.iter
        (fun (b : Growth.band) ->
          check_bool "band ordered" true (b.lo < b.hi);
          check_bool "band counted" true (b.count > 0);
          check_bool "growth >= 1 is not required, but must be positive" true (b.mean_growth > 0.0))
        bands;
      let total = List.fold_left (fun acc (b : Growth.band) -> acc + b.count) 0 bands in
      check_int "every observation in exactly one band" (Array.length obs) total)

(* The substance of Lemma 4.1: empirical one-round growth dominates the
   formula.  Tested on an expander where concentration is strong; the
   slack covers Monte-Carlo noise in sparse bands. *)
let test_lemma41_on_expander () =
  with_pool (fun pool ->
      let g = Gen.random_regular ~n:256 ~r:8 (Rng.create 5) in
      let lambda = (Eigen.spectrum g).lambda in
      let obs = Growth.sample ~pool ~master_seed:6 ~trajectories:200 g in
      let bands = Growth.bands ~n:256 ~lambda ~branching:(Process.Fixed 2) obs in
      List.iter
        (fun (b : Growth.band) ->
          if b.count >= 50 then
            check_bool
              (Printf.sprintf "band [%d,%d): measured %.4f >= formula %.4f - slack" b.lo b.hi
                 b.mean_growth b.lemma41_growth)
              true
              (b.mean_growth >= b.lemma41_growth -. 0.08))
        bands)

(* Corollary 5.2: |C_t| >= |A_{t-1}| (1 - lambda) / 2 while |A| <= n/2. *)
let test_corollary52_on_expander () =
  with_pool (fun pool ->
      let g = Gen.random_regular ~n:256 ~r:8 (Rng.create 7) in
      let lambda = (Eigen.spectrum g).lambda in
      let obs = Growth.sample ~pool ~master_seed:8 ~trajectories:100 g in
      let bands = Growth.bands ~n:256 ~lambda ~branching:(Process.Fixed 2) obs in
      let target = (1.0 -. lambda) /. 2.0 in
      List.iter
        (fun (b : Growth.band) ->
          if b.min_candidate_ratio <> infinity then
            check_bool
              (Printf.sprintf "band [%d,%d): candidate ratio %.3f >= %.3f" b.lo b.hi
                 b.min_candidate_ratio target)
              true
              (b.min_candidate_ratio >= target))
        bands)

let test_bands_rho () =
  (* With Bernoulli branching the formula uses rho explicitly. *)
  with_pool (fun pool ->
      let g = Gen.complete 32 in
      let obs =
        Growth.sample ~pool ~master_seed:9 ~trajectories:50 ~branching:(Process.Bernoulli 0.5) g
      in
      let bands = Growth.bands ~n:32 ~lambda:(1.0 /. 31.0) ~branching:(Process.Bernoulli 0.5) obs in
      List.iter
        (fun (b : Growth.band) ->
          (* rho = 0.5 halves the guaranteed excess growth. *)
          let cap = 1.0 +. (0.5 *. (1.0 -. ((1.0 /. 31.0) ** 2.0))) in
          check_bool "formula uses rho" true (b.lemma41_growth <= cap +. 1e-9))
        bands)

let test_validation () =
  with_pool (fun pool ->
      let g = Gen.petersen () in
      Alcotest.check_raises "zero trajectories"
        (Invalid_argument "Growth.sample: trajectories must be >= 1") (fun () ->
          ignore (Growth.sample ~pool ~master_seed:1 ~trajectories:0 g)));
  Alcotest.check_raises "bad bands" (Invalid_argument "Growth.bands: num_bands must be >= 1")
    (fun () ->
      ignore (Growth.bands ~n:10 ~lambda:0.5 ~branching:(Process.Fixed 2) ~num_bands:0 [||]))

let () =
  Alcotest.run "growth"
    [
      ( "sampling",
        [
          Alcotest.test_case "structure" `Quick test_sample_structure;
          Alcotest.test_case "deterministic" `Quick test_sample_deterministic;
          Alcotest.test_case "bands" `Quick test_bands_structure;
        ] );
      ( "paper inequalities",
        [
          Alcotest.test_case "lemma 4.1" `Slow test_lemma41_on_expander;
          Alcotest.test_case "corollary 5.2" `Slow test_corollary52_on_expander;
          Alcotest.test_case "rho formula" `Quick test_bands_rho;
        ] );
      ("validation", [ Alcotest.test_case "errors" `Quick test_validation ]);
    ]
