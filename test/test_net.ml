(* Tests for the message-passing engine and the gossip protocols,
   including distribution-equivalence checks against the set-based
   engines and the exact chains. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Engine = Cobra_net.Engine
module Gossip = Cobra_net.Gossip

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- engine mechanics --- *)

let test_cobra_k2 () =
  let g = Gen.complete 2 in
  for seed = 1 to 20 do
    let o = Gossip.cobra_cover g (Rng.create seed) ~start:0 in
    Alcotest.(check (option int)) "one round" (Some 1) o.rounds;
    check_int "two messages" 2 o.messages
  done

let test_message_accounting_push () =
  (* PUSH sends exactly (informed count) messages per round. *)
  let g = Gen.cycle 8 in
  let t = Gossip.Push_engine.create g ~start:0 in
  let rng = Rng.create 3 in
  let before_round = ref 0 in
  for _ = 1 to 10 do
    let informed = Gossip.Push_engine.informed_count t in
    Gossip.Push_engine.round t rng;
    let sent = Gossip.Push_engine.messages_sent t - !before_round in
    before_round := Gossip.Push_engine.messages_sent t;
    check_int "one message per informed vertex" informed sent
  done

let test_push_pull_accounting () =
  (* PUSH–PULL: every vertex calls (n requests) and every call is
     answered (n replies): 2n messages per round. *)
  let g = Gen.petersen () in
  let t = Gossip.Push_pull_engine.create g ~start:0 in
  let rng = Rng.create 4 in
  Gossip.Push_pull_engine.round t rng;
  check_int "2n messages per round" 20 (Gossip.Push_pull_engine.messages_sent t)

(* BIPS vertices relapse: the latched count can exceed the current
   infected count.  One 40-round run on cycle 9 relapses with
   probability about 0.85-0.9 (171-179 of 200 runs), so a single run is
   not a test.  Over a fixed batch of 50 runs, require at least 25
   relapsing runs: if the per-run probability is at least 0.8, a correct
   engine fails this with probability P(Bin(50, 0.8) < 25) < 5e-7,
   while an engine whose latched count tracks the current one relapses
   in none. *)
let test_informed_latched_vs_current () =
  let g = Gen.cycle 9 in
  let relapses = ref 0 in
  for seed = 1 to 50 do
    let t = Gossip.Bips_engine.create g ~start:0 in
    let rng = Rng.create seed in
    let saw_relapse = ref false in
    for _ = 1 to 40 do
      Gossip.Bips_engine.round t rng;
      if Gossip.Bips_engine.current_count t < Gossip.Bips_engine.informed_count t then
        saw_relapse := true
    done;
    if !saw_relapse then incr relapses
  done;
  check_bool
    (Printf.sprintf "%d of 50 runs relapse (need >= 25)" !relapses)
    true (!relapses >= 25)

let test_determinism () =
  let g = Gen.petersen () in
  let a = Gossip.cobra_cover g (Rng.create 9) ~start:0 in
  let b = Gossip.cobra_cover g (Rng.create 9) ~start:0 in
  check_bool "same rounds" true (a.rounds = b.rounds);
  check_int "same messages" a.messages b.messages

let test_max_rounds_cap () =
  let g = Gen.path 30 in
  let o = Gossip.push_cover ~max_rounds:2 g (Rng.create 6) ~start:0 in
  check_bool "capped" true (o.rounds = None)

let test_create_validation () =
  let g = Gen.petersen () in
  Alcotest.check_raises "bad start" (Invalid_argument "Engine.create: start out of range")
    (fun () -> ignore (Gossip.Cobra_engine.create g ~start:10))

(* A malicious protocol that sends to a non-neighbour must be rejected
   by the engine. *)
module Bad_protocol = struct
  type state = unit
  type message = Ping

  let name = "bad"
  let init _ ~start:_ ~vertex:_ = ()
  let emit _ _ ~vertex _ = [ ((vertex + 2) mod 5, Ping) ]
  let respond _ _ ~vertex:_ _ ~sender:_ Ping = []
  let update _ _ ~vertex:_ () ~requests:_ ~replies:_ = ()
  let informed () = true
end

module Bad_engine = Engine.Make (Bad_protocol)

let test_destination_checked () =
  (* On a path, vertex+2 is not adjacent. *)
  let g = Gen.path 5 in
  let t = Bad_engine.create g ~start:0 in
  let raised =
    try
      Bad_engine.round t (Rng.create 1);
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-neighbour send rejected" true raised

(* --- protocol equivalence with the set-based engines --- *)

let mean_of f trials =
  let sum = ref 0.0 in
  for seed = 1 to trials do
    match f seed with
    | Some r -> sum := !sum +. float_of_int r
    | None -> Alcotest.fail "censored run in equivalence test"
  done;
  !sum /. float_of_int trials

let test_cobra_protocol_matches_exact () =
  (* Net-protocol COBRA mean cover on C6 vs the exact chain value. *)
  let g = Gen.cycle 6 in
  let exact = Cobra_exact.Cobra_chain.expected_cover g ~start:0 () in
  let trials = 3000 in
  let net =
    mean_of (fun seed -> (Gossip.cobra_cover g (Rng.create seed) ~start:0).rounds) trials
  in
  check_bool
    (Printf.sprintf "net %.3f vs exact %.3f" net exact)
    true
    (Float.abs (net -. exact) < 0.25)

let test_cobra_protocol_matches_set_engine () =
  let g = Gen.petersen () in
  let trials = 2000 in
  let net =
    mean_of (fun seed -> (Gossip.cobra_cover g (Rng.create seed) ~start:0).rounds) trials
  in
  let set_based =
    mean_of
      (fun seed -> Cobra_core.Cobra.run_cover g (Rng.create (seed + 777777)) ~start:0 ())
      trials
  in
  check_bool
    (Printf.sprintf "net %.3f vs set %.3f" net set_based)
    true
    (Float.abs (net -. set_based) < 0.3)

let test_bips_protocol_matches_exact () =
  let g = Gen.cycle 6 in
  let chain = Cobra_exact.Bips_chain.make g ~source:0 () in
  let exact = Cobra_exact.Bips_chain.expected_infection_time chain in
  let trials = 3000 in
  let net =
    mean_of (fun seed -> (Gossip.bips_infection g (Rng.create seed) ~source:0).rounds) trials
  in
  check_bool
    (Printf.sprintf "net %.3f vs exact %.3f" net exact)
    true
    (Float.abs (net -. exact) < 0.3)

(* --- baseline sanity --- *)

let test_all_protocols_deterministic () =
  let g = Gen.torus ~dims:[ 5; 5 ] in
  let runs f = (f (Rng.create 42), f (Rng.create 42)) in
  let same name f =
    let (a : Gossip.outcome), b = runs f in
    check_bool (name ^ " rounds") true (a.rounds = b.rounds);
    check_int (name ^ " messages") a.messages b.messages
  in
  same "cobra" (fun rng -> Gossip.cobra_cover g rng ~start:0);
  same "push" (fun rng -> Gossip.push_cover g rng ~start:0);
  same "push-pull" (fun rng -> Gossip.push_pull_cover g rng ~start:0);
  same "bips" (fun rng -> Gossip.bips_infection g rng ~source:0)

let test_informed_monotone_for_latched_protocols () =
  (* PUSH and PUSH-PULL never forget: the informed count is monotone. *)
  let g = Gen.random_regular ~n:64 ~r:4 (Rng.create 8) in
  let t = Gossip.Push_pull_engine.create g ~start:0 in
  let rng = Rng.create 9 in
  let prev = ref (Gossip.Push_pull_engine.informed_count t) in
  for _ = 1 to 15 do
    Gossip.Push_pull_engine.round t rng;
    let now = Gossip.Push_pull_engine.informed_count t in
    check_bool "monotone" true (now >= !prev);
    prev := now
  done

let test_push_slower_than_push_pull () =
  let g = Gen.star 40 in
  let trials = 60 in
  let push = mean_of (fun s -> (Gossip.push_cover g (Rng.create s) ~start:1).rounds) trials in
  let pp =
    mean_of (fun s -> (Gossip.push_pull_cover g (Rng.create (s + 5000)) ~start:1).rounds) trials
  in
  (* On a star, PUSH from a leaf needs the hub to push to every leaf
     (coupon collector); PULL lets leaves fetch it in O(log n). *)
  check_bool (Printf.sprintf "push %.1f >> push-pull %.1f" push pp) true (push > 3.0 *. pp)

let test_cobra_competitive_with_push_on_expander () =
  let g = Gen.random_regular ~n:128 ~r:8 (Rng.create 1) in
  let trials = 40 in
  let cobra = mean_of (fun s -> (Gossip.cobra_cover g (Rng.create s) ~start:0).rounds) trials in
  let push =
    mean_of (fun s -> (Gossip.push_cover g (Rng.create (s + 900)) ~start:0).rounds) trials
  in
  (* COBRA's quiet-after-push discipline should not cost more than a
     small factor vs always-on PUSH. *)
  check_bool (Printf.sprintf "cobra %.1f <= 2.5 * push %.1f" cobra push) true
    (cobra <= 2.5 *. push)

let () =
  Alcotest.run "net"
    [
      ( "engine",
        [
          Alcotest.test_case "cobra K2" `Quick test_cobra_k2;
          Alcotest.test_case "push accounting" `Quick test_message_accounting_push;
          Alcotest.test_case "push-pull accounting" `Quick test_push_pull_accounting;
          Alcotest.test_case "latched vs current" `Quick test_informed_latched_vs_current;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "round cap" `Quick test_max_rounds_cap;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "destination checked" `Quick test_destination_checked;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "cobra vs exact" `Slow test_cobra_protocol_matches_exact;
          Alcotest.test_case "cobra vs set engine" `Slow test_cobra_protocol_matches_set_engine;
          Alcotest.test_case "bips vs exact" `Slow test_bips_protocol_matches_exact;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "all protocols deterministic" `Quick test_all_protocols_deterministic;
          Alcotest.test_case "latched monotone" `Quick test_informed_monotone_for_latched_protocols;
          Alcotest.test_case "push vs push-pull on star" `Quick test_push_slower_than_push_pull;
          Alcotest.test_case "cobra vs push on expander" `Quick test_cobra_competitive_with_push_on_expander;
        ] );
    ]
