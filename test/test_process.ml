(* Tests for the single-round COBRA/BIPS step primitives.  A [stepper]
   holds one keyed context, so successive calls draw at successive round
   numbers: independent rounds of the same master. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sets n members = Bitset.of_list n members

(* [kernel ctx ~round] for rounds 1, 2, ... of one master. *)
let stepper g ~master kernel =
  let ctx = Process.make_keyed_ctx g ~master in
  let round = ref 0 in
  fun () ->
    incr round;
    kernel ctx ~round:!round

let cobra_stepper g ~master =
  let step = stepper g ~master (fun ctx ~round -> Process.cobra_step_keyed g ctx ~round) in
  fun ~branching ~lazy_ ~current ~next -> step () ~branching ~lazy_ ~current ~next

let bips_stepper g ~master =
  let step = stepper g ~master (fun ctx ~round -> Process.bips_step_keyed g ctx ~round) in
  fun ~branching ~lazy_ ~source ~current ~next -> step () ~branching ~lazy_ ~source ~current ~next

let without_replacement_stepper g ~master =
  let step =
    stepper g ~master (fun ctx ~round -> Process.cobra_step_without_replacement g ctx ~round)
  in
  fun ~b ~current ~next -> step () ~b ~current ~next

let test_branching_validation () =
  Process.validate_branching (Process.Fixed 1);
  Process.validate_branching (Process.Fixed 5);
  Process.validate_branching (Process.Bernoulli 0.0);
  Process.validate_branching (Process.Bernoulli 1.0);
  Alcotest.check_raises "b = 0" (Invalid_argument "Process: branching factor must be >= 1")
    (fun () -> Process.validate_branching (Process.Fixed 0));
  Alcotest.check_raises "rho > 1" (Invalid_argument "Process: Bernoulli branching needs rho in [0, 1]")
    (fun () -> Process.validate_branching (Process.Bernoulli 1.5));
  Alcotest.check_raises "rho nan" (Invalid_argument "Process: Bernoulli branching needs rho in [0, 1]")
    (fun () -> Process.validate_branching (Process.Bernoulli nan))

let test_expected_branching_factor () =
  Alcotest.(check (float 1e-12)) "Fixed 2" 2.0 (Process.expected_branching_factor (Process.Fixed 2));
  Alcotest.(check (float 1e-12)) "Bernoulli .25" 1.25
    (Process.expected_branching_factor (Process.Bernoulli 0.25))

(* --- COBRA step --- *)

let test_cobra_step_k2 () =
  (* On K2 from {0}, both picks go to 1: next = {1}, 2 transmissions. *)
  let g = Gen.complete 2 in
  let step = cobra_stepper g ~master:1 in
  let current = sets 2 [ 0 ] and next = Bitset.create 2 in
  let tx = step ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next in
  check_int "transmissions" 2 tx;
  Alcotest.(check (list int)) "next" [ 1 ] (Bitset.to_list next)

let test_cobra_step_stays_in_neighborhood () =
  let g = Gen.petersen () in
  let step = cobra_stepper g ~master:2 in
  let current = sets 10 [ 0; 5 ] and next = Bitset.create 10 in
  for _ = 1 to 200 do
    ignore (step ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next);
    Bitset.iter
      (fun v ->
        let adjacent = Bitset.fold (fun u acc -> acc || Graph.mem_edge g u v) current false in
        if not adjacent then Alcotest.failf "vertex %d not adjacent to current set" v)
      next
  done

let test_cobra_step_transmission_count () =
  let g = Gen.cycle 12 in
  let step = cobra_stepper g ~master:3 in
  let current = sets 12 [ 0; 3; 7 ] and next = Bitset.create 12 in
  let tx = step ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next in
  check_int "b * |C|" 6 tx;
  let tx3 = step ~branching:(Process.Fixed 3) ~lazy_:false ~current ~next in
  check_int "3 * |C|" 9 tx3

let test_cobra_step_b1_single_particle () =
  (* Fixed 1 from a single vertex is a random-walk step: |next| = 1. *)
  let g = Gen.petersen () in
  let step = cobra_stepper g ~master:4 in
  let current = sets 10 [ 0 ] and next = Bitset.create 10 in
  for _ = 1 to 100 do
    let tx = step ~branching:(Process.Fixed 1) ~lazy_:false ~current ~next in
    check_int "one transmission" 1 tx;
    check_int "one particle" 1 (Bitset.cardinal next)
  done

let test_cobra_step_bernoulli_extremes () =
  let g = Gen.complete 5 in
  let step = cobra_stepper g ~master:5 in
  let current = sets 5 [ 0; 1 ] and next = Bitset.create 5 in
  let tx0 = step ~branching:(Process.Bernoulli 0.0) ~lazy_:false ~current ~next in
  check_int "rho=0 -> b=1" 2 tx0;
  let tx1 = step ~branching:(Process.Bernoulli 1.0) ~lazy_:false ~current ~next in
  check_int "rho=1 -> b=2" 4 tx1

let test_bernoulli_extremes_align () =
  (* Keyed.bernoulli draws nothing at p = 0 or 1, so at the same master
     and round a degenerate Bernoulli round is draw-for-draw the Fixed
     round, in every kernel, lazy or not — the equivalence the server's
     canonical job keys collapse on. *)
  let g = Gen.torus ~dims:[ 6; 6 ] in
  let n = Graph.n g in
  let current = sets n [ 0; 7; 14; 20; 33 ] in
  let ctx = Process.make_keyed_ctx g ~master:77 in
  List.iter
    (fun (rho, b, lazy_) ->
      let label = Printf.sprintf "rho=%g vs b=%d lazy=%b" rho b lazy_ in
      for round = 1 to 20 do
        let cobra branching =
          let next = Bitset.create n in
          let tx = Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next in
          (tx, Bitset.to_list next)
        in
        let bips branching =
          let next = Bitset.create n in
          Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source:0 ~current ~next;
          Bitset.to_list next
        in
        let sis branching =
          let next = Bitset.create n in
          Process.sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next;
          Bitset.to_list next
        in
        let deg = Process.Bernoulli rho and fixed = Process.Fixed b in
        check_bool ("cobra " ^ label) true (cobra deg = cobra fixed);
        check_bool ("bips " ^ label) true (bips deg = bips fixed);
        check_bool ("sis " ^ label) true (sis deg = sis fixed)
      done)
    [ (1.0, 2, false); (0.0, 1, false); (1.0, 2, true); (0.0, 1, true) ]

let test_cobra_step_bernoulli_rate () =
  let g = Gen.complete 20 in
  let step = cobra_stepper g ~master:6 in
  let current = sets 20 [ 0 ] and next = Bitset.create 20 in
  let total = ref 0 in
  let rounds = 20_000 in
  for _ = 1 to rounds do
    total :=
      !total
      + step ~branching:(Process.Bernoulli 0.3) ~lazy_:false ~current ~next
  done;
  let mean = float_of_int !total /. float_of_int rounds in
  check_bool
    (Printf.sprintf "mean fanout %.3f near 1.3" mean)
    true
    (Float.abs (mean -. 1.3) < 0.02)

let test_cobra_step_lazy_can_stay () =
  (* On a path's end vertex, a lazy step keeps the particle home with
     probability 3/4 per round (both picks self). *)
  let g = Gen.path 2 in
  let step = cobra_stepper g ~master:7 in
  let current = sets 2 [ 0 ] and next = Bitset.create 2 in
  let stayed = ref 0 and rounds = 10_000 in
  for _ = 1 to rounds do
    ignore (step ~branching:(Process.Fixed 2) ~lazy_:true ~current ~next);
    if Bitset.mem next 0 && not (Bitset.mem next 1) then incr stayed
  done;
  let rate = float_of_int !stayed /. float_of_int rounds in
  check_bool (Printf.sprintf "stay rate %.3f near 0.25" rate) true (Float.abs (rate -. 0.25) < 0.02)

let test_cobra_step_clears_next () =
  let g = Gen.complete 4 in
  let step = cobra_stepper g ~master:8 in
  let current = sets 4 [ 0 ] in
  let next = sets 4 [ 0; 1; 2; 3 ] in
  ignore (step ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next);
  check_bool "stale contents cleared" false (Bitset.mem next 0)

(* --- without-replacement ablation step --- *)

let test_without_replacement_distinct () =
  (* On K5 every active vertex reaches exactly 2 distinct neighbours. *)
  let g = Gen.complete 5 in
  let step = without_replacement_stepper g ~master:20 in
  let current = sets 5 [ 0 ] and next = Bitset.create 5 in
  for _ = 1 to 200 do
    let tx = step ~b:2 ~current ~next in
    check_int "two sends" 2 tx;
    check_int "two distinct receivers" 2 (Bitset.cardinal next);
    check_bool "never self" false (Bitset.mem next 0)
  done

let test_without_replacement_low_degree () =
  (* A path endpoint has one neighbour: b = 2 degrades to informing it. *)
  let g = Gen.path 3 in
  let step = without_replacement_stepper g ~master:21 in
  let current = sets 3 [ 0 ] and next = Bitset.create 3 in
  let tx = step ~b:2 ~current ~next in
  check_int "one send" 1 tx;
  Alcotest.(check (list int)) "the single neighbour" [ 1 ] (Bitset.to_list next)

let test_without_replacement_uniform_pairs () =
  (* The sampled pair must be uniform over the (d choose 2) pairs. *)
  let g = Gen.star 5 in
  let step = without_replacement_stepper g ~master:22 in
  let current = sets 5 [ 0 ] and next = Bitset.create 5 in
  let counts = Hashtbl.create 6 in
  let rounds = 12_000 in
  for _ = 1 to rounds do
    ignore (step ~b:2 ~current ~next);
    let pair = Bitset.to_list next in
    Hashtbl.replace counts pair (1 + Option.value ~default:0 (Hashtbl.find_opt counts pair))
  done;
  check_int "six distinct pairs" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      let freq = float_of_int c /. float_of_int rounds in
      check_bool (Printf.sprintf "pair frequency %.3f near 1/6" freq) true
        (Float.abs (freq -. (1.0 /. 6.0)) < 0.02))
    counts

let test_without_replacement_validation () =
  let g = Gen.petersen () in
  let step = without_replacement_stepper g ~master:23 in
  Alcotest.check_raises "b = 0" (Invalid_argument "Process: branching factor must be >= 1")
    (fun () -> ignore (step ~b:0 ~current:(sets 10 [ 0 ]) ~next:(Bitset.create 10)))

(* --- BIPS step --- *)

let test_bips_step_k2 () =
  (* On K2 with source 0, vertex 1 always selects 0 and catches the
     infection: next = V deterministically. *)
  let g = Gen.complete 2 in
  let step = bips_stepper g ~master:9 in
  let current = sets 2 [ 0 ] and next = Bitset.create 2 in
  step ~branching:(Process.Fixed 2) ~lazy_:false ~source:0 ~current ~next;
  Alcotest.(check (list int)) "fully infected" [ 0; 1 ] (Bitset.to_list next)

let test_bips_source_always_infected () =
  let g = Gen.petersen () in
  let step = bips_stepper g ~master:10 in
  let current = sets 10 [ 3 ] and next = Bitset.create 10 in
  for _ = 1 to 100 do
    step ~branching:(Process.Fixed 2) ~lazy_:false ~source:3 ~current ~next;
    check_bool "source persists" true (Bitset.mem next 3);
    Bitset.blit ~src:next ~dst:current
  done

let test_bips_infection_needs_infected_neighbor () =
  let g = Gen.path 6 in
  let step = bips_stepper g ~master:11 in
  let current = sets 6 [ 0 ] and next = Bitset.create 6 in
  for _ = 1 to 100 do
    step ~branching:(Process.Fixed 2) ~lazy_:false ~source:0 ~current ~next;
    Bitset.iter
      (fun v ->
        if v <> 0 then begin
          let has_infected_neighbor =
            Graph.fold_neighbors g v (fun acc u -> acc || Bitset.mem current u) false
          in
          if not has_infected_neighbor then
            Alcotest.failf "vertex %d infected without infected neighbour" v
        end)
      next
  done

let test_bips_deterministic_when_surrounded () =
  (* A vertex whose whole neighbourhood is infected is infected next
     round with certainty (the B_fix part). *)
  let g = Gen.path 3 in
  let step = bips_stepper g ~master:12 in
  let current = sets 3 [ 0; 2 ] and next = Bitset.create 3 in
  for _ = 1 to 50 do
    step ~branching:(Process.Fixed 2) ~lazy_:false ~source:0 ~current ~next;
    check_bool "middle vertex deterministic" true (Bitset.mem next 1)
  done

let test_bips_step_b1_rate () =
  (* With b = 1 on a cycle and exactly one infected neighbour, infection
     passes with probability 1/2. *)
  let g = Gen.cycle 8 in
  let step = bips_stepper g ~master:13 in
  let current = sets 8 [ 0 ] and next = Bitset.create 8 in
  let hits = ref 0 and rounds = 10_000 in
  for _ = 1 to rounds do
    step ~branching:(Process.Fixed 1) ~lazy_:false ~source:0 ~current ~next;
    if Bitset.mem next 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int rounds in
  check_bool (Printf.sprintf "b=1 rate %.3f near 0.5" rate) true (Float.abs (rate -. 0.5) < 0.02)

let test_bips_step_b2_rate () =
  (* With b = 2, P(infect) = 1 - (1 - 1/2)^2 = 3/4 in the same setup —
     equation (32) of the paper. *)
  let g = Gen.cycle 8 in
  let step = bips_stepper g ~master:14 in
  let current = sets 8 [ 0 ] and next = Bitset.create 8 in
  let hits = ref 0 and rounds = 10_000 in
  for _ = 1 to rounds do
    step ~branching:(Process.Fixed 2) ~lazy_:false ~source:0 ~current ~next;
    if Bitset.mem next 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int rounds in
  check_bool (Printf.sprintf "b=2 rate %.3f near 0.75" rate) true (Float.abs (rate -. 0.75) < 0.02)

let test_bips_step_rho_rate () =
  (* Equation (33): with dA/d = 1/2 and rho = 0.5,
     P = 1 - (1 - 1/2)(1 - 0.5 * 1/2) = 1 - 0.5 * 0.75 = 0.625. *)
  let g = Gen.cycle 8 in
  let step = bips_stepper g ~master:15 in
  let current = sets 8 [ 0 ] and next = Bitset.create 8 in
  let hits = ref 0 and rounds = 20_000 in
  for _ = 1 to rounds do
    step ~branching:(Process.Bernoulli 0.5) ~lazy_:false ~source:0 ~current
      ~next;
    if Bitset.mem next 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int rounds in
  check_bool
    (Printf.sprintf "rho=.5 rate %.3f near 0.625" rate)
    true
    (Float.abs (rate -. 0.625) < 0.02)

(* --- Candidate sets --- *)

let test_candidate_set_path () =
  let g = Gen.path 4 in
  let into = Bitset.create 4 in
  (* A = {0}, source 0: B_fix is empty, N(A) = {1}; C = {0, 1}. *)
  Process.bips_candidate_set g ~source:0 ~current:(sets 4 [ 0 ]) ~into;
  Alcotest.(check (list int)) "A={0}" [ 0; 1 ] (Bitset.to_list into);
  (* A = {0,1}: N(0) = {1} is inside A so 0 joins B_fix; C = {1, 2}. *)
  Process.bips_candidate_set g ~source:0 ~current:(sets 4 [ 0; 1 ]) ~into;
  Alcotest.(check (list int)) "A={0,1}" [ 1; 2 ] (Bitset.to_list into)

let test_candidate_set_source_in_c_when_exposed () =
  (* The source is a candidate whenever not all its neighbours are
     infected. *)
  let g = Gen.star 5 in
  let into = Bitset.create 5 in
  Process.bips_candidate_set g ~source:0 ~current:(sets 5 [ 0 ]) ~into;
  check_bool "source in C" true (Bitset.mem into 0);
  (* Once every leaf is infected, the hub moves to B_fix. *)
  Process.bips_candidate_set g ~source:0 ~current:(sets 5 [ 0; 1; 2; 3; 4 ]) ~into;
  check_bool "hub fixed" false (Bitset.mem into 0)

let candidate_never_empty_test =
  (* The paper's structural claim (Section 3): before completion, C is
     never empty. *)
  QCheck2.Test.make ~name:"candidate set non-empty before completion" ~count:50
    QCheck2.Gen.(pair (int_range 4 30) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connected_gnp ~n ~p:(2.5 *. log (float_of_int n) /. float_of_int n) rng in
      let source = 0 in
      let current = Bitset.create n in
      Bitset.add current source;
      let next = Bitset.create n and cand = Bitset.create n in
      let step = bips_stepper g ~master:seed in
      let ok = ref true in
      for _ = 1 to 30 do
        if Bitset.cardinal current < n then begin
          Process.bips_candidate_set g ~source ~current ~into:cand;
          if Bitset.is_empty cand then ok := false
        end;
        step ~branching:(Process.Fixed 2) ~lazy_:false ~source ~current ~next;
        Bitset.blit ~src:next ~dst:current
      done;
      !ok)

let cobra_b2_equals_paper_probability_test =
  (* P(u in C_{t+1}) for a vertex u with k infected-side... in COBRA: a
     vertex u receives a particle iff some active vertex picks it; verify
     on the star where the branching-2 hub sends both picks to leaves. *)
  QCheck2.Test.make ~name:"cobra star hub sends to two (not nec. distinct) leaves" ~count:30
    QCheck2.Gen.(int_range 3 20)
    (fun n ->
      let g = Gen.star n in
      let step = cobra_stepper g ~master:n in
      let current = Bitset.of_list n [ 0 ] and next = Bitset.create n in
      ignore (step ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next);
      let c = Bitset.cardinal next in
      (c = 1 || c = 2) && not (Bitset.mem next 0))

(* A vertex with no neighbour can neither send nor sample: every kernel
   that needs a neighbour of it raises an error naming [Process] and the
   vertex, on the serial path and on a sharded round alike (the pool
   re-raises a worker's exception on the submitting thread). *)
let test_isolated_vertex_raises () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let expected = Invalid_argument "Process: vertex 4 has no neighbour to draw (degree 0)" in
  let current = sets 6 [ 4 ] and next = Bitset.create 6 in
  let run ?pool path =
    let ctx = Process.make_keyed_ctx ?pool ~dense_threshold:0 g ~master:3 in
    let branching = Process.Fixed 2 in
    Alcotest.check_raises (path ^ " cobra") expected (fun () ->
        ignore
          (Process.cobra_step_keyed g ctx ~round:1 ~branching ~lazy_:false ~current ~next : int));
    Alcotest.check_raises (path ^ " bips") expected (fun () ->
        Process.bips_step_keyed g ctx ~round:1 ~branching ~lazy_:false ~source:0 ~current ~next);
    Alcotest.check_raises (path ^ " sis") expected (fun () ->
        Process.sis_step_keyed g ctx ~round:1 ~branching ~lazy_:false ~current ~next)
  in
  run "serial";
  Cobra_parallel.Pool.with_pool ~num_domains:1 (fun pool -> run ~pool "sharded")

(* Lazily, a pick of an isolated vertex may stay home, which needs no
   neighbour.  At degree 0 every pick is drawn, so a round raises
   exactly when one of them has to leave home, as the per-vertex chain
   the kernels replaced did, even after an earlier pick has already
   infected the vertex. *)
let test_isolated_vertex_lazy () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let coins master =
    let k = Cobra_prng.Keyed.create ~master in
    Cobra_prng.Keyed.position k ~round:1 ~vertex:4;
    let first = Cobra_prng.Keyed.bool k in
    (first, Cobra_prng.Keyed.bool k)
  in
  let rec find p master = if p (coins master) then master else find p (master + 1) in
  let both_stay = find (fun (a, b) -> a && b) 0 in
  let second_leaves = find (fun (a, b) -> a && not b) 0 in
  let current = sets 5 [ 4 ] and next = Bitset.create 5 in
  let sis master =
    let ctx = Process.make_keyed_ctx g ~master in
    Process.sis_step_keyed g ctx ~round:1 ~branching:(Process.Fixed 2) ~lazy_:true ~current ~next
  in
  sis both_stay;
  Alcotest.(check (list int)) "both picks stay home" [ 4 ] (Bitset.to_list next);
  Alcotest.check_raises "the second pick leaves home"
    (Invalid_argument "Process: vertex 4 has no neighbour to draw (degree 0)") (fun () ->
      sis second_leaves)

let () =
  Alcotest.run "process"
    [
      ( "branching",
        [
          Alcotest.test_case "validation" `Quick test_branching_validation;
          Alcotest.test_case "expected factor" `Quick test_expected_branching_factor;
        ] );
      ( "cobra step",
        [
          Alcotest.test_case "K2 deterministic" `Quick test_cobra_step_k2;
          Alcotest.test_case "stays in neighborhood" `Quick test_cobra_step_stays_in_neighborhood;
          Alcotest.test_case "transmission count" `Quick test_cobra_step_transmission_count;
          Alcotest.test_case "b=1 single particle" `Quick test_cobra_step_b1_single_particle;
          Alcotest.test_case "bernoulli extremes" `Quick test_cobra_step_bernoulli_extremes;
          Alcotest.test_case "bernoulli extremes align" `Quick test_bernoulli_extremes_align;
          Alcotest.test_case "bernoulli rate" `Quick test_cobra_step_bernoulli_rate;
          Alcotest.test_case "lazy stays" `Quick test_cobra_step_lazy_can_stay;
          Alcotest.test_case "clears next" `Quick test_cobra_step_clears_next;
          Alcotest.test_case "isolated vertex raises" `Quick test_isolated_vertex_raises;
          Alcotest.test_case "isolated vertex, lazy" `Quick test_isolated_vertex_lazy;
        ] );
      ( "without replacement",
        [
          Alcotest.test_case "distinct receivers" `Quick test_without_replacement_distinct;
          Alcotest.test_case "low degree" `Quick test_without_replacement_low_degree;
          Alcotest.test_case "uniform pairs" `Quick test_without_replacement_uniform_pairs;
          Alcotest.test_case "validation" `Quick test_without_replacement_validation;
        ] );
      ( "bips step",
        [
          Alcotest.test_case "K2" `Quick test_bips_step_k2;
          Alcotest.test_case "source persists" `Quick test_bips_source_always_infected;
          Alcotest.test_case "needs infected neighbor" `Quick test_bips_infection_needs_infected_neighbor;
          Alcotest.test_case "deterministic when surrounded" `Quick test_bips_deterministic_when_surrounded;
          Alcotest.test_case "b=1 rate" `Quick test_bips_step_b1_rate;
          Alcotest.test_case "b=2 rate (eq 32)" `Quick test_bips_step_b2_rate;
          Alcotest.test_case "rho rate (eq 33)" `Quick test_bips_step_rho_rate;
        ] );
      ( "candidate set",
        [
          Alcotest.test_case "path cases" `Quick test_candidate_set_path;
          Alcotest.test_case "source membership" `Quick test_candidate_set_source_in_c_when_exposed;
          QCheck_alcotest.to_alcotest candidate_never_empty_test;
          QCheck_alcotest.to_alcotest cobra_b2_equals_paper_probability_test;
        ] );
    ]
