(* Cross-module integration tests: the same quantity computed through
   independent subsystems must agree.  These are the repository's
   belt-and-braces checks — each test crosses at least two of
   {set engine, exact chains, walk theory, spectral}. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Gossip = Cobra_core.Gossip

let check_bool = Alcotest.(check bool)

(* 1. Hitting-time tails: set engine (MC) vs exact chain. *)
let test_hitting_tail_mc_vs_exact () =
  let g = Gen.cycle 7 in
  let exact = Cobra_exact.Cobra_chain.hit_tail g ~c0:0b0001000 ~target:0 ~horizon:8 () in
  let trials = 20_000 in
  let rng = Rng.create 3 in
  let survive = Array.make 9 0 in
  for _ = 1 to trials do
    let start = Bitset.of_list 7 [ 3 ] in
    let h =
      match Cobra.hitting_time g rng ~max_rounds:8 ~start ~target:0 () with
      | Some h -> h
      | None -> 9
    in
    for t = 0 to 8 do
      if h > t then survive.(t) <- survive.(t) + 1
    done
  done;
  for t = 0 to 8 do
    let freq = float_of_int survive.(t) /. float_of_int trials in
    let p = exact.(t) in
    let sigma = sqrt (Float.max 1e-9 (p *. (1.0 -. p) /. float_of_int trials)) in
    if Float.abs (freq -. p) > (5.0 *. sigma) +. 0.003 then
      Alcotest.failf "t=%d: MC %.4f vs exact %.4f" t freq p
  done

(* 2. Walk cover of b=1 COBRA vs the dedicated Walk module: the same
   process through two engines. *)
let test_b1_cobra_equals_walk_distribution () =
  let g = Gen.petersen () in
  let trials = 4000 in
  let mean_b1 =
    let total = ref 0 in
    for seed = 1 to trials do
      match
        Cobra.run_cover g (Rng.create seed) ~branching:(Process.Fixed 1) ~start:0 ()
      with
      | Some r -> total := !total + r
      | None -> Alcotest.fail "censored"
    done;
    float_of_int !total /. float_of_int trials
  in
  let mean_walk =
    let total = ref 0 in
    for seed = 1 to trials do
      match Cobra_core.Walk.cover_time g (Rng.create (seed + 999_999)) ~start:0 () with
      | Some r -> total := !total + r
      | None -> Alcotest.fail "censored"
    done;
    float_of_int !total /. float_of_int trials
  in
  check_bool
    (Printf.sprintf "b=1 engine %.2f vs walk engine %.2f" mean_b1 mean_walk)
    true
    (Float.abs (mean_b1 -. mean_walk) < 1.0)

(* 3. Exact duality with a random multi-vertex C on random connected
   graphs — the theorem for sets, not just singletons. *)
let exact_duality_multi_c =
  QCheck2.Test.make ~name:"exact duality with |C| > 1" ~count:10
    QCheck2.Gen.(pair (int_range 4 8) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connected_gnp ~n ~p:0.5 rng in
      (* C = two random non-v vertices. *)
      let a = 1 + Rng.int_below rng (n - 1) in
      let b = 1 + Rng.int_below rng (n - 1) in
      let c0 = (1 lsl a) lor (1 lsl b) in
      let r = Cobra_exact.Duality_exact.check g ~c0 ~v:0 ~horizon:10 () in
      r.max_gap < 1e-10)

(* 4. Walk theory vs spectral: on a regular graph the relaxation time
   1/(1-lambda) lower-bounds mixing and the max hitting time is at least
   n-ish; sanity couplings across the two analysis modules. *)
let test_theory_consistency_on_expander () =
  let g = Gen.random_regular ~n:100 ~r:6 (Rng.create 4) in
  let gap = 1.0 -. (Cobra_spectral.Eigen.spectrum g).lambda in
  let hmax = Cobra_core.Walk_theory.max_hitting_time g in
  (* H_max >= (n-1) always (a walk must find the target among n-1
     others); and on an expander H_max = O(n / gap). *)
  check_bool "hmax >= n-1" true (hmax >= 99.0);
  check_bool
    (Printf.sprintf "hmax %.0f <= 4n/gap %.0f" hmax (4.0 *. 100.0 /. gap))
    true
    (hmax <= 4.0 *. 100.0 /. gap)

(* 5. Isomorphic copies: exact chains are label-equivariant. *)
let test_exact_chain_label_equivariance () =
  let g = Gen.cycle 6 in
  (* Rotate labels by 2: expected infection from source 0 equals the
     original's from source 2... by symmetry both equal; use a
     non-transitive graph for a sharper check. *)
  let lolli = Gen.lollipop ~clique:3 ~tail:3 in
  let perm = [| 5; 4; 3; 2; 1; 0 |] in
  let relabeled = Graph_ops.relabel lolli perm in
  let e1 =
    Cobra_exact.Bips_chain.expected_infection_time
      (Cobra_exact.Bips_chain.make lolli ~source:0 ())
  in
  let e2 =
    Cobra_exact.Bips_chain.expected_infection_time
      (Cobra_exact.Bips_chain.make relabeled ~source:perm.(0) ())
  in
  Alcotest.(check (float 1e-9)) "expected infection invariant" e1 e2;
  ignore g

(* 6. Censoring discipline: on a disconnected graph every engine reports
   non-completion instead of a bogus number. *)
let test_disconnected_everywhere_censors () =
  let g = Graph_ops.disjoint_union (Gen.complete 4) (Gen.complete 4) in
  let rng = Rng.create 5 in
  check_bool "cobra censors" true (Cobra.run_cover g rng ~max_rounds:500 ~start:0 () = None);
  check_bool "bips censors" true (Bips.run_infection g rng ~max_rounds:500 ~source:0 () = None);
  check_bool "walk censors" true
    (Cobra_core.Walk.cover_time g rng ~max_steps:500 ~start:0 () = None);
  check_bool "gossip censors" true
    (Gossip.run_cover g rng ~max_rounds:500 ~protocol:Gossip.Push ~start:0 () = None)

(* 7. Stochastic monotonicity in b: more branching covers faster. *)
let test_branching_monotonicity () =
  let g = Gen.cycle 30 in
  let mean b =
    let total = ref 0 in
    for seed = 1 to 400 do
      match Cobra.run_cover g (Rng.create seed) ~branching:(Process.Fixed b) ~start:0 () with
      | Some r -> total := !total + r
      | None -> Alcotest.fail "censored"
    done;
    float_of_int !total /. 400.0
  in
  let m1 = mean 1 and m2 = mean 2 and m3 = mean 3 in
  check_bool (Printf.sprintf "b=1 %.1f > b=2 %.1f > b=3 %.1f" m1 m2 m3) true
    (m1 > m2 && m2 > m3)

(* 8. Three routes to lambda agree: Lanczos, the dense Jacobi oracle,
   and the mixing rate they imply. *)
let test_lambda_three_ways () =
  let g = Gen.random_regular ~n:60 ~r:4 (Rng.create 6) in
  let s = Cobra_spectral.Eigen.spectrum g in
  let iter = s.lambda in
  let dense = Dense_oracle.second_eigenvalue_exact g in
  check_bool "iter vs dense" true (Float.abs (iter -. dense) < 1e-6);
  (* On a regular graph the TV distance after t lazy steps is at most
     sqrt n * lambda_lazy^t from every start, so the walk mixes to
     within eps by the first t where that bound drops to eps. *)
  let lazy_lambda = s.lazy_lambda in
  let eps = 1e-3 in
  let bound = Float.ceil (log (sqrt 60.0 /. eps) /. -.log lazy_lambda) in
  match Cobra_spectral.Mixing.mixing_time ~lazy_:true ~eps g with
  | None -> Alcotest.fail "lazy walk on an expander must mix"
  | Some t ->
      check_bool
        (Printf.sprintf "t_mix(%.0e) %d <= spectral bound %.0f" eps t bound)
        true
        (float_of_int t <= bound)

(* 9. E3 shards its exact cells over the pool: the rendered tables must
   not depend on the pool width. *)
let test_e3_pool_width_invariance () =
  let render num_domains =
    Cobra_parallel.Pool.with_pool ~num_domains (fun pool ->
        Cobra_experiments.E03_duality.experiment.run ~obs:Cobra_obs.Obs.null ~pool
          ~master_seed:2017 ~scale:Cobra_experiments.Experiment.Quick)
  in
  Alcotest.(check string) "serial pool = 3 extra domains" (render 0) (render 3)

(* 10. The relabelling and union helpers the suites build inputs with. *)
let test_disjoint_union () =
  let u = Graph_ops.disjoint_union (Gen.complete 3) (Gen.path 4) in
  Alcotest.(check int) "n" 7 (Graph.n u);
  Alcotest.(check int) "m" 6 (Graph.m u);
  check_bool "disconnected" false (Props.is_connected u);
  let _, k = Props.components u in
  Alcotest.(check int) "two components" 2 k

let test_relabel_roundtrip () =
  let g = Gen.petersen () in
  let perm = [| 3; 1; 4; 0; 5; 9; 2; 6; 8; 7 |] in
  let h = Graph_ops.relabel g perm in
  Alcotest.(check int) "same m" (Graph.m g) (Graph.m h);
  (* Inverse permutation restores the graph. *)
  let inv = Array.make 10 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  Alcotest.(check (list (pair int int))) "roundtrip" (Graph.edges g)
    (Graph.edges (Graph_ops.relabel h inv));
  Alcotest.check_raises "not a permutation" (Invalid_argument "Graph_ops.relabel: not a permutation")
    (fun () -> ignore (Graph_ops.relabel g (Array.make 10 0)))

let test_relabel_preserves_invariants () =
  let g = Gen.lollipop ~clique:5 ~tail:4 in
  let h = Graph_ops.random_relabel g (Rng.create 4) in
  Alcotest.(check int) "diameter invariant" (Props.diameter g) (Props.diameter h);
  check_bool "degree multiset invariant" true
    (Props.degree_histogram g = Props.degree_histogram h);
  Alcotest.(check (float 1e-6)) "lambda invariant"
    (Cobra_spectral.Eigen.spectrum g).lambda
    (Cobra_spectral.Eigen.spectrum h).lambda

(* 11. The simulation pipeline is label-invariant in distribution: mean
   cover times of a graph and a relabeled copy agree. *)
let test_cover_time_label_invariance () =
  let g = Gen.random_regular ~n:64 ~r:4 (Rng.create 9) in
  let h = Graph_ops.random_relabel g (Rng.create 10) in
  let mean graph seed_base =
    let total = ref 0 in
    for seed = 1 to 300 do
      match Cobra.run_cover graph (Rng.create (seed + seed_base)) ~start:0 () with
      | Some r -> total := !total + r
      | None -> Alcotest.fail "censored"
    done;
    float_of_int !total /. 300.0
  in
  let mg = mean g 0 and mh = mean h 100_000 in
  check_bool (Printf.sprintf "means %.2f vs %.2f" mg mh) true (Float.abs (mg -. mh) < 1.0)

let () =
  Alcotest.run "integration"
    [
      ( "cross-engine agreement",
        [
          Alcotest.test_case "hit tail MC vs exact" `Slow test_hitting_tail_mc_vs_exact;
          Alcotest.test_case "b=1 cobra = walk" `Slow test_b1_cobra_equals_walk_distribution;
          QCheck_alcotest.to_alcotest exact_duality_multi_c;
        ] );
      ( "theory consistency",
        [
          Alcotest.test_case "expander couplings" `Quick test_theory_consistency_on_expander;
          Alcotest.test_case "label equivariance" `Quick test_exact_chain_label_equivariance;
          Alcotest.test_case "lambda three ways" `Quick test_lambda_three_ways;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "disconnected censors" `Quick test_disconnected_everywhere_censors;
          Alcotest.test_case "branching monotone" `Quick test_branching_monotonicity;
          Alcotest.test_case "E3 pool-width invariant" `Slow test_e3_pool_width_invariance;
        ] );
      ( "transformations",
        [
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "relabel roundtrip" `Quick test_relabel_roundtrip;
          Alcotest.test_case "relabel invariants" `Quick test_relabel_preserves_invariants;
        ] );
      ( "pipeline invariance",
        [ Alcotest.test_case "cover time label-invariant" `Slow test_cover_time_label_invariance ] );
    ]
