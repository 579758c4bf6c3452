(* Tests for the gossip baselines: the PUSH and PUSH-PULL round steps of
   Process, the Gossip runner over them, and the four-protocol line-up
   of experiment E13 (COBRA, PUSH, PUSH-PULL, BIPS) with its message
   accounting.  Their one-round laws are checked against the exact
   chains in test_exact's conformance family. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Gossip = Cobra_core.Gossip

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let subset a b = Bitset.fold (fun i ok -> ok && Bitset.mem b i) a true

(* Replays the runner's rounds with [step] at the master the runner
   draws from [Rng.create seed], returning each round's informed-set
   size before the round and the messages [step] reported for it. *)
let replay g step ~seed =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master:(Rng.keyed_master (Rng.create seed)) in
  let current = ref (Bitset.of_list n [ 0 ]) and next = ref (Bitset.create n) in
  let log = ref [] and round = ref 0 in
  while Bitset.cardinal !current < n do
    incr round;
    let before = Bitset.cardinal !current in
    let sent = step g ctx ~round:!round ~current:!current ~next:!next in
    check_bool "informed set only grows" true (subset !current !next);
    log := (before, sent) :: !log;
    let t = !current in
    current := !next;
    next := t
  done;
  List.rev !log

let cover ?(start = 0) g ~protocol ~seed = Gossip.run_cover g (Rng.create seed) ~protocol ~start ()
let rounds_of = Option.map (fun (r : Gossip.run) -> r.rounds)

(* --- round mechanics and message accounting --- *)

let test_cobra_k2 () =
  let g = Gen.complete 2 in
  for seed = 1 to 20 do
    match Cobra.run_cover_detailed g (Rng.create seed) ~start:0 () with
    | Some r ->
        check_int "one round" 1 r.rounds;
        check_int "two transmissions" 2 r.transmissions
    | None -> Alcotest.fail "censored"
  done

let test_message_accounting_push () =
  (* PUSH sends exactly |I_t| messages in round t + 1, and the runner
     reports their sum. *)
  let g = Gen.cycle 8 in
  for seed = 1 to 10 do
    let log = replay g Process.push_step ~seed in
    List.iter
      (fun (informed, sent) -> check_int "one message per informed vertex" informed sent)
      log;
    match cover g ~protocol:Gossip.Push ~seed with
    | Some r ->
        check_int "runner rounds" (List.length log) r.rounds;
        check_int "runner messages = sum of |I_t|"
          (List.fold_left (fun acc (informed, _) -> acc + informed) 0 log)
          r.messages
    | None -> Alcotest.fail "censored"
  done

let test_push_pull_accounting () =
  (* PUSH-PULL: every vertex calls (n requests) and every call is
     answered (n replies): 2n messages per round. *)
  let g = Gen.petersen () in
  List.iter (fun (_, sent) -> check_int "2n messages per round" 20 sent)
    (replay g Process.push_pull_step ~seed:4);
  match cover g ~protocol:Gossip.Push_pull ~seed:4 with
  | Some r -> check_int "runner messages = 2n per round" (20 * r.rounds) r.messages
  | None -> Alcotest.fail "censored"

let test_determinism () =
  let g = Gen.petersen () in
  List.iter
    (fun protocol ->
      check_bool "same run" true (cover g ~protocol ~seed:9 = cover g ~protocol ~seed:9))
    [ Gossip.Push; Gossip.Push_pull ]

let test_max_rounds_cap () =
  let g = Gen.path 30 in
  let o = Gossip.run_cover ~max_rounds:2 g (Rng.create 6) ~protocol:Gossip.Push ~start:0 () in
  check_bool "capped" true (o = None)

let test_create_validation () =
  let g = Gen.petersen () in
  Alcotest.check_raises "bad start" (Invalid_argument "Gossip: start vertex out of range")
    (fun () -> ignore (Gossip.run_cover g (Rng.create 1) ~protocol:Gossip.Push ~start:10 ()))

(* --- baseline sanity --- *)

(* E13's line-up: rounds and messages to completion, a request and its
   reply counted separately. *)
let protocols g =
  let gossip protocol rng =
    Option.map
      (fun (r : Gossip.run) -> (r.rounds, r.messages))
      (Gossip.run_cover g rng ~protocol ~start:0 ())
  in
  [
    ( "cobra",
      fun rng ->
        Option.map
          (fun (r : Cobra.run) -> (r.rounds, r.transmissions))
          (Cobra.run_cover_detailed g rng ~start:0 ()) );
    ("push", gossip Gossip.Push);
    ("push-pull", gossip Gossip.Push_pull);
    ( "bips",
      fun rng ->
        Option.map
          (fun rounds -> (rounds, 4 * (Graph.n g - 1) * rounds))
          (Bips.run_infection g rng ~source:0 ()) );
  ]

let test_all_protocols_deterministic () =
  let g = Gen.torus ~dims:[ 5; 5 ] in
  List.iter
    (fun (name, run) ->
      match (run (Rng.create 42), run (Rng.create 42)) with
      | Some (ra, ma), Some (rb, mb) ->
          check_int (name ^ " rounds") ra rb;
          check_int (name ^ " messages") ma mb
      | _ -> Alcotest.fail (name ^ " censored"))
    (protocols g)

let test_informed_monotone_for_latched_protocols () =
  (* PUSH and PUSH-PULL never forget: the informed set only grows. *)
  let g = Gen.random_regular ~n:64 ~r:4 (Rng.create 8) in
  List.iter
    (fun step ->
      let ctx = Process.make_keyed_ctx g ~master:9 in
      let current = Bitset.of_list 64 [ 0 ] and next = Bitset.create 64 in
      for round = 1 to 15 do
        ignore (step g ctx ~round ~current ~next : int);
        check_bool "monotone" true (subset current next);
        Bitset.blit ~src:next ~dst:current
      done)
    [ Process.push_step; Process.push_pull_step ]

let mean_of f trials =
  let sum = ref 0.0 in
  for seed = 1 to trials do
    match f seed with
    | Some r -> sum := !sum +. float_of_int r
    | None -> Alcotest.fail "censored run"
  done;
  !sum /. float_of_int trials

let test_push_slower_than_push_pull () =
  let g = Gen.star 40 in
  let trials = 60 in
  let rounds protocol ~offset =
    mean_of (fun s -> rounds_of (cover g ~protocol ~start:1 ~seed:(s + offset))) trials
  in
  let push = rounds Gossip.Push ~offset:0 and pp = rounds Gossip.Push_pull ~offset:5000 in
  (* On a star, PUSH from a leaf needs the hub to push to every leaf
     (coupon collector); PULL lets leaves fetch it in O(log n). *)
  check_bool (Printf.sprintf "push %.1f >> push-pull %.1f" push pp) true (push > 3.0 *. pp)

let test_cobra_competitive_with_push_on_expander () =
  let g = Gen.random_regular ~n:128 ~r:8 (Rng.create 1) in
  let trials = 40 in
  let cobra = mean_of (fun s -> Cobra.run_cover g (Rng.create s) ~start:0 ()) trials in
  let push = mean_of (fun s -> rounds_of (cover g ~protocol:Gossip.Push ~seed:(s + 900))) trials in
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
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "round cap" `Quick test_max_rounds_cap;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "all protocols deterministic" `Quick test_all_protocols_deterministic;
          Alcotest.test_case "latched monotone" `Quick test_informed_monotone_for_latched_protocols;
          Alcotest.test_case "push vs push-pull on star" `Quick test_push_slower_than_push_pull;
          Alcotest.test_case "cobra vs push on expander" `Quick test_cobra_competitive_with_push_on_expander;
        ] );
    ]
