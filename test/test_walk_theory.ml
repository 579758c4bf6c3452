(* Tests for the exact random-walk quantities, against closed forms and
   the Monte-Carlo walk engine. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Walk = Cobra_core.Walk
module Walk_theory = Cobra_core.Walk_theory

let check_bool = Alcotest.(check bool)
let check_float msg ?(eps = 1e-6) expected actual = Alcotest.(check (float eps)) msg expected actual

let test_path_hitting_closed_form () =
  (* On the path P_n, H(u, 0) = u^2 + (wait, with a reflecting end) ...
     the classical identity: hitting 0 from u on P_n is u * (2(n-1) - u)
     ... verified against the gambler's-ruin derivation below for
     concrete sizes. *)
  (* For the path 0-1-2, by direct solution: h(1) = 1 + h(2)/2... solve:
     h(2) = 1 + h(1); h(1) = 1 + (0 + h(2))/2 => h(1) = 3, h(2) = 4. *)
  let h = Walk_theory.hitting_times (Gen.path 3) ~target:0 in
  check_float "h(0)" 0.0 h.(0);
  check_float "h(1)" 3.0 h.(1);
  check_float "h(2)" 4.0 h.(2)

let test_path_end_to_end () =
  (* End-to-end hitting on P_n equals (n-1)^2. *)
  List.iter
    (fun n ->
      let h = Walk_theory.hitting_times (Gen.path n) ~target:0 in
      check_float
        (Printf.sprintf "P%d end-to-end" n)
        ~eps:1e-5
        (float_of_int ((n - 1) * (n - 1)))
        h.(n - 1))
    [ 4; 8; 16; 32 ]

let test_complete_hitting () =
  (* On K_n, hitting any specific vertex is geometric: E = n - 1. *)
  let h = Walk_theory.hitting_times (Gen.complete 9) ~target:3 in
  for u = 0 to 8 do
    if u <> 3 then check_float "K9 hitting" 8.0 h.(u)
  done

let test_cycle_hitting () =
  (* On C_n, H(u, 0) = k (n - k) for distance k. *)
  let n = 10 in
  let h = Walk_theory.hitting_times (Gen.cycle n) ~target:0 in
  for u = 1 to n - 1 do
    let k = min u (n - u) in
    check_float (Printf.sprintf "C10 from %d" u) ~eps:1e-5 (float_of_int (k * (n - k))) h.(u)
  done

(* The commute time between [u] and [v] is H(u, v) + H(v, u), two
   hitting-time solves. *)
let commute_time g u v =
  (Walk_theory.hitting_times g ~target:v).(u) +. (Walk_theory.hitting_times g ~target:u).(v)

let test_commute_time_electrical () =
  (* Commute time = 2 m R_eff.  Path P_n between the ends: R_eff = n-1,
     m = n-1, so commute = 2 (n-1)^2. *)
  let n = 12 in
  check_float "path commute" ~eps:1e-4
    (2.0 *. float_of_int ((n - 1) * (n - 1)))
    (commute_time (Gen.path n) 0 (n - 1));
  (* K_n between any pair: R_eff = 2/n, m = n(n-1)/2 -> commute = 2(n-1). *)
  check_float "K8 commute" ~eps:1e-5 14.0 (commute_time (Gen.complete 8) 1 5)

let test_harmonic () =
  check_float "H_0" 0.0 (Walk_theory.harmonic 0);
  check_float "H_1" 1.0 (Walk_theory.harmonic 1);
  check_float "H_4" (25.0 /. 12.0) (Walk_theory.harmonic 4)

let test_matthews_sandwich_monte_carlo () =
  (* Measured walk cover times must respect Matthews' bounds. *)
  List.iter
    (fun (name, g) ->
      (* Matthews' upper bound H_max * H_{n-1} and the Matthews-type
         lower bound min_{u <> v} H(u, v) * H_{n-1}, from one all-pairs
         solve. *)
      let n = Graph.n g in
      let h = Walk_theory.all_hitting_times g in
      let h_max = Array.fold_left (Array.fold_left Float.max) 0.0 h in
      let upper = Walk_theory.matthews_upper ~n ~h_max in
      let min_hit = ref infinity in
      Array.iteri
        (fun u row -> Array.iteri (fun v x -> if u <> v then min_hit := Float.min !min_hit x) row)
        h;
      let lower = !min_hit *. Walk_theory.harmonic (n - 1) in
      check_bool (name ^ ": bounds ordered") true (lower <= upper);
      let trials = 200 in
      let sum = ref 0.0 in
      for seed = 1 to trials do
        match Walk.cover_time g (Rng.create seed) ~start:0 () with
        | Some s -> sum := !sum +. float_of_int s
        | None -> Alcotest.fail "censored walk"
      done;
      let mean = !sum /. float_of_int trials in
      check_bool
        (Printf.sprintf "%s: mean %.1f <= Matthews upper %.1f" name mean upper)
        true (mean <= upper *. 1.05);
      (* The start-specific cover can undershoot the pair-minimum bound
         only through MC noise; allow ample slack. *)
      check_bool
        (Printf.sprintf "%s: mean %.1f vs lower %.1f" name mean lower)
        true
        (mean >= 0.5 *. lower))
    [
      ("K16", Gen.complete 16); ("C14", Gen.cycle 14); ("P10", Gen.path 10);
      ("petersen", Gen.petersen ());
    ]

let test_dense_matches_iterative () =
  (* The dense L^+ oracle and the per-target CG route agree on every
     pair. *)
  List.iter
    (fun g ->
      let n = Graph.n g in
      let dense = Dense_oracle.all_hitting_times_dense g in
      for target = 0 to n - 1 do
        let iter = Walk_theory.hitting_times g ~target in
        for u = 0 to n - 1 do
          if Float.abs (iter.(u) -. dense.(u).(target)) > 1e-5 then
            Alcotest.failf "H(%d, %d): iterative %.6f vs dense %.6f" u target iter.(u)
              dense.(u).(target)
        done
      done)
    [ Gen.petersen (); Gen.lollipop ~clique:4 ~tail:3; Gen.wheel 8 ]

let test_effective_resistance () =
  (* R_eff(u, v) = commute time / 2m, with unit resistors on the edges. *)
  let effective_resistance g u v = commute_time g u v /. float_of_int (Graph.total_degree g) in
  (* Path: resistors in series. *)
  check_float "P5 ends" ~eps:1e-9 4.0 (effective_resistance (Gen.path 5) 0 4);
  check_float "P5 middle" ~eps:1e-9 2.0 (effective_resistance (Gen.path 5) 0 2);
  (* Cycle: parallel paths k and n-k. *)
  let n = 8 and k = 3 in
  check_float "C8 distance 3" ~eps:1e-9
    (float_of_int (k * (n - k)) /. float_of_int n)
    (effective_resistance (Gen.cycle n) 0 k);
  (* K_n: 2/n. *)
  check_float "K10" ~eps:1e-9 0.2 (effective_resistance (Gen.complete 10) 2 7)

let test_validation () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Walk_theory.hitting_times: graph must be connected") (fun () ->
      ignore (Walk_theory.hitting_times (Graph.of_edges ~n:3 [ (0, 1) ]) ~target:0));
  Alcotest.check_raises "bad target"
    (Invalid_argument "Walk_theory.hitting_times: target out of range") (fun () ->
      ignore (Walk_theory.hitting_times (Gen.path 3) ~target:5))

let hitting_vs_simulation_property =
  QCheck2.Test.make ~name:"exact hitting matches simulated walk" ~count:10
    QCheck2.Gen.(pair (int_range 4 12) (int_bound 1000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n (Rng.create seed) in
      let exact = (Walk_theory.hitting_times g ~target:0).(n - 1) in
      (* Simulate hitting times of vertex 0 from n-1. *)
      let rng = Rng.create (seed + 99) in
      let trials = 2000 in
      let total = ref 0 in
      for _ = 1 to trials do
        let pos = ref (n - 1) in
        let steps = ref 0 in
        while !pos <> 0 do
          incr steps;
          pos := Graph.random_neighbor g rng !pos
        done;
        total := !total + !steps
      done;
      let mc = float_of_int !total /. float_of_int trials in
      (* Hitting times on trees have stddev of order the mean, so allow
         a generous band. *)
      Float.abs (mc -. exact) < 0.25 *. exact +. 2.0)

let () =
  Alcotest.run "walk_theory"
    [
      ( "hitting times",
        [
          Alcotest.test_case "P3 by hand" `Quick test_path_hitting_closed_form;
          Alcotest.test_case "path end-to-end" `Quick test_path_end_to_end;
          Alcotest.test_case "complete" `Quick test_complete_hitting;
          Alcotest.test_case "cycle" `Quick test_cycle_hitting;
          Alcotest.test_case "commute = electrical" `Quick test_commute_time_electrical;
          Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
          Alcotest.test_case "dense = iterative" `Quick test_dense_matches_iterative;
          Alcotest.test_case "effective resistance" `Quick test_effective_resistance;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "matthews",
        [
          Alcotest.test_case "sandwich vs MC" `Slow test_matthews_sandwich_monte_carlo;
          QCheck_alcotest.to_alcotest hitting_vs_simulation_property;
        ] );
    ]
