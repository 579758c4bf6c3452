(* Tests for the BIPS phase decomposition. *)

module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Eigen = Cobra_spectral.Eigen
module Bips = Cobra_core.Bips
module Phases = Cobra_core.Phases

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_split_synthetic () =
  (* sizes: round 0..5; small threshold 5 first reached at round 2,
     n/4 = 25 first reached at round 4. *)
  let sizes = [| 1; 2; 5; 20; 80; 100 |] in
  let s = Phases.split ~n:100 ~small_threshold:5 ~sizes in
  check_int "start" 2 s.start_rounds;
  check_int "bulk" 2 s.bulk_rounds;
  check_int "tail" 1 s.tail_rounds;
  check_int "threshold recorded" 5 s.small_threshold

let test_split_instant () =
  let s = Phases.split ~n:3 ~small_threshold:1 ~sizes:[| 1; 3 |] in
  check_int "start immediate" 0 s.start_rounds;
  (* n/4 = 0 so the bulk threshold collapses onto the small one. *)
  check_int "bulk immediate" 0 s.bulk_rounds;
  check_int "tail" 1 s.tail_rounds

let test_split_sums_to_total () =
  let sizes = [| 1; 1; 2; 3; 6; 10; 25; 60; 99; 100 |] in
  let s = Phases.split ~n:100 ~small_threshold:4 ~sizes in
  check_int "phases partition the run" (Array.length sizes - 1)
    (s.start_rounds + s.bulk_rounds + s.tail_rounds)

let test_split_validation () =
  Alcotest.check_raises "incomplete trajectory"
    (Invalid_argument "Phases.split: trajectory must end with full infection") (fun () ->
      ignore (Phases.split ~n:10 ~small_threshold:2 ~sizes:[| 1; 5 |]));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Phases.split: threshold must be >= 1") (fun () ->
      ignore (Phases.split ~n:10 ~small_threshold:0 ~sizes:[| 1; 10 |]))

let test_default_threshold () =
  (* log n / gap, clamped to [1, n/4]. *)
  let v = Phases.default_small_threshold ~n:1000 ~lambda:0.5 in
  check_int "log(1000)/0.5 ~ 14" 14 v;
  check_int "clamped above" 25 (Phases.default_small_threshold ~n:100 ~lambda:0.999999);
  check_int "clamped below" 1 (Phases.default_small_threshold ~n:4 ~lambda:0.0)

let test_mean_splits () =
  let mk a b c = { Phases.start_rounds = a; bulk_rounds = b; tail_rounds = c; small_threshold = 1 } in
  let s1, s2, s3 = Phases.mean_splits [ mk 1 2 3; mk 3 4 5 ] in
  Alcotest.(check (float 1e-9)) "start mean" 2.0 s1;
  Alcotest.(check (float 1e-9)) "bulk mean" 3.0 s2;
  Alcotest.(check (float 1e-9)) "tail mean" 4.0 s3;
  Alcotest.check_raises "empty" (Invalid_argument "Phases.mean_splits: empty list") (fun () ->
      ignore (Phases.mean_splits []))

(* End-to-end: decompose real BIPS trajectories on an expander; the bulk
   phase must be the exponential-growth one, so its rounds should be
   O(log n) and in particular far below the total. *)
let test_phases_on_expander () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      ignore pool;
      let g = Gen.random_regular ~n:256 ~r:8 (Rng.create 1) in
      let lambda = (Eigen.spectrum g).lambda in
      let threshold = Phases.default_small_threshold ~n:256 ~lambda in
      let splits = ref [] in
      for seed = 1 to 10 do
        match Bips.run_trajectory g (Rng.create seed) ~source:0 () with
        | Some t ->
            splits := Phases.split ~n:256 ~small_threshold:threshold ~sizes:t.sizes :: !splits
        | None -> Alcotest.fail "BIPS did not complete on the expander"
      done;
      let _, bulk, _ = Phases.mean_splits !splits in
      check_bool (Printf.sprintf "bulk %.1f rounds is short" bulk) true (bulk < 40.0))

let () =
  Alcotest.run "phases"
    [
      ( "split",
        [
          Alcotest.test_case "synthetic" `Quick test_split_synthetic;
          Alcotest.test_case "instant" `Quick test_split_instant;
          Alcotest.test_case "partition" `Quick test_split_sums_to_total;
          Alcotest.test_case "validation" `Quick test_split_validation;
          Alcotest.test_case "default threshold" `Quick test_default_threshold;
          Alcotest.test_case "means" `Quick test_mean_splits;
        ] );
      ("end to end", [ Alcotest.test_case "expander" `Quick test_phases_on_expander ]);
    ]
