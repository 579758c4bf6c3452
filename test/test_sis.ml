(* Tests for the source-free SIS chain: the simulator, the exact
   absorption analysis, and their agreement. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Sis = Cobra_core.Sis
module Sis_chain = Cobra_exact.Sis_chain

let check_bool = Alcotest.(check bool)
let check_float msg ?(eps = 1e-9) expected actual = Alcotest.(check (float eps)) msg expected actual

let test_absorbing_states () =
  let g = Gen.petersen () in
  let rng = Rng.create 1 in
  (* Empty initial set: instantly extinct. *)
  (match Sis.run g rng ~initial:(Bitset.create 10) () with
  | Sis.Extinct 0 -> ()
  | _ -> Alcotest.fail "empty set should be extinct at round 0");
  (* Full initial set: every vertex samples infected neighbours forever. *)
  let full = Bitset.create 10 in
  Bitset.fill full;
  match Sis.run g rng ~initial:full () with
  | Sis.Saturated 0 -> ()
  | _ -> Alcotest.fail "full set should be saturated at round 0"

let test_absorption_happens () =
  let g = Gen.complete 8 in
  for seed = 1 to 50 do
    match Sis.run g (Rng.create seed) ~initial:(Bitset.of_list 8 [ 0 ]) () with
    | Sis.Extinct r | Sis.Saturated r -> Alcotest.(check bool) "finite" true (r >= 1)
    | Sis.Censored -> Alcotest.fail "K8 SIS should absorb quickly"
  done

let test_trajectory_consistency () =
  let g = Gen.complete 6 in
  let outcome, sizes = Sis.run_trajectory g (Rng.create 3) ~initial:(Bitset.of_list 6 [ 0 ]) () in
  (match outcome with
  | Sis.Extinct r -> Alcotest.(check int) "trajectory length" (r + 1) (Array.length sizes)
  | Sis.Saturated r -> Alcotest.(check int) "trajectory length" (r + 1) (Array.length sizes)
  | Sis.Censored -> Alcotest.fail "unexpected censoring");
  Alcotest.(check int) "starts at one" 1 sizes.(0);
  let last = sizes.(Array.length sizes - 1) in
  check_bool "ends absorbed" true (last = 0 || last = 6)

let test_bipartite_parity_orbit () =
  (* On an even cycle, one parity class flips to the other forever: the
     plain chain never absorbs from a parity-class state. *)
  let g = Gen.cycle 6 in
  let parity_class = Bitset.of_list 6 [ 0; 2; 4 ] in
  (match Sis.run g (Rng.create 4) ~max_rounds:300 ~initial:parity_class () with
  | Sis.Censored -> ()
  | Sis.Extinct _ | Sis.Saturated _ -> Alcotest.fail "parity orbit should never absorb");
  (* Laziness breaks the parity. *)
  match Sis.run g (Rng.create 5) ~lazy_:true ~max_rounds:100_000 ~initial:parity_class () with
  | Sis.Censored -> Alcotest.fail "lazy chain should absorb"
  | Sis.Extinct _ | Sis.Saturated _ -> ()

let test_chain_row_sums () =
  let chain = Sis_chain.make (Gen.cycle 5) () in
  for a = 0 to 31 do
    let s = ref 0.0 in
    for a' = 0 to 31 do
      s := !s +. Sis_chain.transition_probability chain a a'
    done;
    check_float "row sum" ~eps:1e-9 1.0 !s
  done;
  (* Absorbing rows. *)
  check_float "empty absorbs" 1.0 (Sis_chain.transition_probability chain 0 0);
  check_float "full absorbs" 1.0 (Sis_chain.transition_probability chain 31 31)

let test_chain_k3_hand () =
  (* Triangle from {0}: vertex 0 has no infected neighbour so always
     recovers; 1 and 2 each catch w.p. 3/4.  One-step kernel checks. *)
  let chain = Sis_chain.make (Gen.complete 3) () in
  check_float "to empty" 0.0625 (Sis_chain.transition_probability chain 0b001 0b000);
  check_float "to {1,2}" (0.75 *. 0.75) (Sis_chain.transition_probability chain 0b001 0b110);
  check_float "to {1}" (0.75 *. 0.25) (Sis_chain.transition_probability chain 0b001 0b010);
  check_float "cannot keep 0" 0.0 (Sis_chain.transition_probability chain 0b001 0b001)

let test_chain_boundary_values () =
  let chain = Sis_chain.make (Gen.complete 4) () in
  check_float "saturation from full" 1.0 (Sis_chain.saturation_probability chain ~initial:15);
  check_float "saturation from empty" 0.0 (Sis_chain.saturation_probability chain ~initial:0);
  check_float "time from full" 0.0 (Sis_chain.expected_absorption_time chain ~initial:15);
  check_bool "monotone in the seed set" true
    (Sis_chain.saturation_probability chain ~initial:0b0111
    >= Sis_chain.saturation_probability chain ~initial:0b0001)

let test_chain_bipartite_singular () =
  let chain = Sis_chain.make (Gen.cycle 6) () in
  let raised =
    try
      ignore (Sis_chain.saturation_probability chain ~initial:1);
      false
    with Failure _ -> true
  in
  check_bool "plain bipartite is singular" true raised;
  (* Lazy chain is fine. *)
  let lazy_chain = Sis_chain.make (Gen.cycle 6) ~lazy_:true () in
  let p = Sis_chain.saturation_probability lazy_chain ~initial:1 in
  check_bool "lazy absorbs" true (p > 0.0 && p < 1.0)

let test_exact_vs_simulation () =
  let g = Gen.petersen () in
  let chain = Sis_chain.make g () in
  let exact = Sis_chain.saturation_probability chain ~initial:1 in
  let trials = 4000 in
  let sat = ref 0 in
  for seed = 1 to trials do
    match Sis.run g (Rng.create seed) ~initial:(Bitset.of_list 10 [ 0 ]) () with
    | Sis.Saturated _ -> incr sat
    | Sis.Extinct _ -> ()
    | Sis.Censored -> Alcotest.fail "censored"
  done;
  let mc = float_of_int !sat /. float_of_int trials in
  let sigma = sqrt (exact *. (1.0 -. exact) /. float_of_int trials) in
  check_bool
    (Printf.sprintf "MC %.4f vs exact %.4f" mc exact)
    true
    (Float.abs (mc -. exact) <= (5.0 *. sigma) +. 0.005)

let test_rho_reduces_saturation () =
  (* Smaller branching means a weaker infection: P(saturate) decreases. *)
  let g = Gen.complete 6 in
  let p2 =
    Sis_chain.saturation_probability (Sis_chain.make g ()) ~initial:1
  in
  let p_half =
    Sis_chain.saturation_probability
      (Sis_chain.make g ~branching:(Process.Bernoulli 0.5) ())
      ~initial:1
  in
  check_bool (Printf.sprintf "%.3f > %.3f" p2 p_half) true (p2 > p_half)

let sis_step_no_source_property =
  QCheck2.Test.make ~name:"sis_step never forces any vertex" ~count:30
    QCheck2.Gen.(pair (int_range 3 12) (int_bound 1000))
    (fun (n, seed) ->
      (* With an empty current set, nothing can become infected. *)
      let rng = Rng.create seed in
      let g = Gen.connected_gnp ~n ~p:0.6 rng in
      let current = Bitset.create n and next = Bitset.create n in
      let ctx = Process.make_keyed_ctx g ~master:seed in
      Process.sis_step_keyed g ctx ~round:1 ~branching:(Process.Fixed 2) ~lazy_:false ~current
        ~next;
      Bitset.is_empty next)

let () =
  Alcotest.run "sis"
    [
      ( "simulator",
        [
          Alcotest.test_case "absorbing states" `Quick test_absorbing_states;
          Alcotest.test_case "absorption happens" `Quick test_absorption_happens;
          Alcotest.test_case "trajectory" `Quick test_trajectory_consistency;
          Alcotest.test_case "bipartite parity orbit" `Quick test_bipartite_parity_orbit;
        ] );
      ( "exact chain",
        [
          Alcotest.test_case "row sums" `Quick test_chain_row_sums;
          Alcotest.test_case "K3 by hand" `Quick test_chain_k3_hand;
          Alcotest.test_case "boundary values" `Quick test_chain_boundary_values;
          Alcotest.test_case "bipartite singular" `Quick test_chain_bipartite_singular;
          Alcotest.test_case "rho monotone" `Quick test_rho_reduces_saturation;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "exact vs simulation" `Slow test_exact_vs_simulation;
          QCheck_alcotest.to_alcotest sis_step_no_source_property;
        ] );
    ]
