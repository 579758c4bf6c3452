(* Tests for the exact subset-chain solvers, and cross-validation of the
   Monte-Carlo engines against them. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Subset = Cobra_exact.Subset
module Cobra_chain = Cobra_exact.Cobra_chain
module Bips_chain = Cobra_exact.Bips_chain
module Duality_exact = Cobra_exact.Duality_exact

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float msg ?(eps = 1e-9) expected actual = Alcotest.(check (float eps)) msg expected actual

(* --- Subset --- *)

let test_subset_basics () =
  check_int "full 3" 0b111 (Subset.full 3);
  check_bool "mem" true (Subset.mem 0b101 2);
  check_bool "not mem" false (Subset.mem 0b101 1);
  check_int "add" 0b111 (Subset.add 0b101 1);
  check_int "cardinal" 2 (Subset.cardinal 0b101);
  Alcotest.check_raises "too large"
    (Invalid_argument "Cobra_exact: exact solvers support n <= 20, got 21") (fun () ->
      Subset.check_n 21)

let test_subset_enumeration () =
  let seen = ref [] in
  Subset.iter_subsets_of 0b101 (fun s -> seen := s :: !seen);
  Alcotest.(check (list int)) "submasks of {0,2}" [ 0b000; 0b001; 0b100; 0b101 ]
    (List.sort compare !seen)

let test_subset_neighborhood () =
  let g = Gen.path 4 in
  check_int "N({0})" 0b0010 (Subset.neighborhood_mask g 0b0001);
  check_int "N({1,2})" 0b1111 (Subset.neighborhood_mask g 0b0110);
  check_int "deg into" 1 (Subset.degree_into g 1 0b0001)

(* --- COBRA next distribution --- *)

let dist_total d = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 d

let test_next_dist_k2 () =
  let g = Gen.complete 2 in
  match Cobra_chain.next_dist g ~current:0b01 () with
  | [ (mask, p) ] ->
      check_int "next = {1}" 0b10 mask;
      check_float "probability 1" 1.0 p
  | _ -> Alcotest.fail "expected a single outcome"

let test_next_dist_star_hub () =
  (* Hub of a star, b = 2: both picks uniform over k leaves; P(single
     leaf i) = 1/k^2, P(pair {i,j}) = 2/k^2. *)
  let g = Gen.star 4 in
  let d = Cobra_chain.next_dist g ~current:0b0001 () in
  check_float "total mass" 1.0 (dist_total d);
  List.iter
    (fun (mask, p) ->
      match Subset.cardinal mask with
      | 1 -> check_float "singleton" (1.0 /. 9.0) p
      | 2 -> check_float "pair" (2.0 /. 9.0) p
      | _ -> Alcotest.fail "impossible outcome size")
    d;
  check_int "3 singletons + 3 pairs" 6 (List.length d)

let test_next_dist_b1 () =
  (* b = 1 from a singleton: uniform over the neighbours. *)
  let g = Gen.path 3 in
  let d = Cobra_chain.next_dist g ~branching:(Process.Fixed 1) ~current:0b010 () in
  check_int "two outcomes" 2 (List.length d);
  List.iter (fun (_, p) -> check_float "uniform" 0.5 p) d

let test_next_dist_bernoulli () =
  (* rho = 0: exactly one pick, same as b = 1. *)
  let g = Gen.petersen () in
  let d0 = Cobra_chain.next_dist g ~branching:(Process.Bernoulli 0.0) ~current:0b1 () in
  let d1 = Cobra_chain.next_dist g ~branching:(Process.Fixed 1) ~current:0b1 () in
  check_bool "rho=0 equals b=1" true (d0 = d1);
  (* rho = 1 equals b = 2. *)
  let d2 = Cobra_chain.next_dist g ~branching:(Process.Bernoulli 1.0) ~current:0b11 () in
  let d3 = Cobra_chain.next_dist g ~branching:(Process.Fixed 2) ~current:0b11 () in
  check_int "same support" (List.length d3) (List.length d2);
  List.iter2
    (fun (m2, p2) (m3, p3) ->
      check_int "same masks" m3 m2;
      check_float "same probs" ~eps:1e-12 p3 p2)
    d2 d3

let test_next_dist_sums_to_one () =
  List.iter
    (fun (g, c) ->
      let d = Cobra_chain.next_dist g ~current:c () in
      check_float "mass 1" ~eps:1e-12 1.0 (dist_total d);
      let dl = Cobra_chain.next_dist g ~lazy_:true ~current:c () in
      check_float "lazy mass 1" ~eps:1e-12 1.0 (dist_total dl))
    [
      (Gen.petersen (), 0b1011);
      (Gen.cycle 7, 0b101);
      (Gen.complete 6, 0b111);
      (Gen.star 7, 0b1000001);
    ]

(* --- Conformance: one keyed round against the exact chains ---

   Chi-square goodness of fit of the keyed step kernels' one-round
   distribution against the exact solvers.  Each case draws [samples]
   independent rounds (round numbers 1..samples at one fixed master, so
   every round reads fresh keyed positions), bins the outcome masks on
   the exact support, pools bins expected below 5 into one, and rejects
   when the chi-square p-value falls under [alpha].  An outcome outside
   the exact support fails outright.

   False-alarm budget: a correct kernel fails a case with probability
   [alpha] = 1e-4 over the choice of master.  The family is the 13
   cases below (one in "cobra chain", twelve in "conformance"), each at
   its own fixed master, so a correct implementation trips at least
   one with probability at most 13 * 1e-4 = 0.13%.  The masters are
   fixed and were not searched. *)

let alpha = 1e-4
let samples = 20_000

(* log Gamma, Lanczos approximation (g = 7, 9 terms); relative error
   below 1e-13 for x >= 0.5, the only range used here. *)
let log_gamma x =
  let c =
    [|
      0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
      -176.61502916214059; 12.507343278686905; -0.13857109526572012; 9.9843695780195716e-6;
      1.5056327351493116e-7;
    |]
  in
  let x = x -. 1.0 in
  let a = ref c.(0) in
  for i = 1 to 8 do
    a := !a +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Regularised upper incomplete gamma Q(a, x): the power series of P
   below x = a + 1, the Lentz continued fraction of Q above. *)
let gamma_q a x =
  if x <= 0.0 then 1.0
  else
    let front = exp ((a *. log x) -. x -. log_gamma a) in
    if x < a +. 1.0 then begin
      let sum = ref (1.0 /. a) and term = ref (1.0 /. a) and k = ref 1.0 in
      while !term > !sum *. 1e-16 do
        term := !term *. x /. (a +. !k);
        sum := !sum +. !term;
        k := !k +. 1.0
      done;
      1.0 -. (front *. !sum)
    end
    else begin
      let tiny = 1e-300 in
      let b = ref (x +. 1.0 -. a) in
      let c = ref (1.0 /. tiny) and d = ref (1.0 /. !b) in
      let h = ref !d and i = ref 1 and continue = ref true in
      while !continue do
        let an = -.float_of_int !i *. (float_of_int !i -. a) in
        b := !b +. 2.0;
        d := (an *. !d) +. !b;
        if Float.abs !d < tiny then d := tiny;
        c := !b +. (an /. !c);
        if Float.abs !c < tiny then c := tiny;
        d := 1.0 /. !d;
        let delta = !d *. !c in
        h := !h *. delta;
        incr i;
        if Float.abs (delta -. 1.0) < 1e-16 || !i > 1000 then continue := false
      done;
      front *. !h
    end

let test_gamma_q_reference () =
  (* chi-square survival at known points: df = 2 is exp (-x/2). *)
  check_float "df=2" ~eps:1e-12 (exp (-1.5)) (gamma_q 1.0 1.5);
  check_float "df=1 at 3.841" ~eps:1e-4 0.05 (gamma_q 0.5 (3.841459 /. 2.0));
  check_float "df=10 at 29.588" ~eps:1e-5 0.001 (gamma_q 5.0 (29.5883 /. 2.0));
  check_float "df=50 at 67.505" ~eps:1e-4 0.05 (gamma_q 25.0 (67.5048 /. 2.0))

(* [sample ~round] returns the outcome mask of one round. *)
let chi_square_check name ~exact ~sample =
  let counts = Hashtbl.create 64 in
  for round = 1 to samples do
    let mask = sample ~round in
    Hashtbl.replace counts mask (1 + Option.value ~default:0 (Hashtbl.find_opt counts mask))
  done;
  Hashtbl.iter
    (fun mask _ ->
      if not (List.exists (fun (m, p) -> m = mask && p > 0.0) exact) then
        Alcotest.failf "%s: outcome %d has exact probability 0" name mask)
    counts;
  let n = float_of_int samples in
  let observed mask = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts mask)) in
  let support = List.filter (fun (_, p) -> p > 0.0) exact in
  let big, small = List.partition (fun (_, p) -> p *. n >= 5.0) support in
  let cells =
    List.map (fun (m, p) -> (observed m, p *. n)) big
    @
    match small with
    | [] -> []
    | _ ->
        [
          ( List.fold_left (fun acc (m, _) -> acc +. observed m) 0.0 small,
            List.fold_left (fun acc (_, p) -> acc +. (p *. n)) 0.0 small );
        ]
  in
  let stat = List.fold_left (fun acc (o, e) -> acc +. (((o -. e) ** 2.0) /. e)) 0.0 cells in
  let df = List.length cells - 1 in
  let p_value = if df < 1 then 1.0 else gamma_q (float_of_int df /. 2.0) (stat /. 2.0) in
  if not (p_value >= alpha) then
    Alcotest.failf "%s: chi-square %.2f on %d df, p = %.2g < %g" name stat df p_value alpha

let mask_of set = Cobra_bitset.Bitset.fold (fun v acc -> acc lor (1 lsl v)) set 0
let set_of n mask = Cobra_bitset.Bitset.of_list n (List.filter (Subset.mem mask) (List.init n Fun.id))

let cobra_round_conforms ?pool g ~master ~branching ~lazy_ ~current_mask () =
  let n = Graph.n g in
  let current = set_of n current_mask in
  let next = Cobra_bitset.Bitset.create n in
  let ctx = Process.make_keyed_ctx ?pool ~dense_threshold:1 g ~master in
  chi_square_check "cobra round"
    ~exact:(Cobra_chain.next_dist g ~branching ~lazy_ ~current:current_mask ())
    ~sample:(fun ~round ->
      ignore (Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next : int);
      mask_of next)

let test_next_dist_matches_simulation () =
  cobra_round_conforms (Gen.cycle 5) ~master:31 ~branching:(Process.Fixed 2) ~lazy_:false
    ~current_mask:0b00101 ()

let bips_round_conforms ?pool g ~master ~branching ~lazy_ ~current_mask () =
  let n = Graph.n g in
  let chain = Bips_chain.make g ~branching ~lazy_ ~source:0 () in
  let exact =
    List.init (Bips_chain.n_states chain) (fun i ->
        let m = Bips_chain.mask_of_state chain i in
        (m, Bips_chain.transition_probability chain current_mask m))
  in
  let current = set_of n current_mask in
  let next = Cobra_bitset.Bitset.create n in
  let ctx = Process.make_keyed_ctx ?pool ~dense_threshold:1 g ~master in
  chi_square_check "bips round" ~exact ~sample:(fun ~round ->
      Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source:0 ~current ~next;
      mask_of next)

(* Twelve conformance cases: {COBRA, BIPS} x {Fixed 2, Bernoulli 0.5,
   lazy Fixed 2} x {serial, sharded over a 2-wide pool}, each at its own
   master.  Petersen from C = {0,1,3} (COBRA) and A = {0,1,2,6} (BIPS,
   source 0; every vertex has a neighbour in A). *)
let conformance_cases =
  let petersen = Gen.petersen () in
  let variants =
    [ ("b=2", Process.Fixed 2, false); ("rho=0.5", Process.Bernoulli 0.5, false);
      ("b=2 lazy", Process.Fixed 2, true) ]
  in
  let paths = [ ("serial", false); ("sharded", true) ] in
  let case kind (vname, branching, lazy_) (pname, sharded) master =
    let run ?pool () =
      match kind with
      | `Cobra ->
          cobra_round_conforms ?pool petersen ~master ~branching ~lazy_ ~current_mask:0b1011 ()
      | `Bips ->
          bips_round_conforms ?pool petersen ~master ~branching ~lazy_ ~current_mask:0b1000111 ()
    in
    Alcotest.test_case
      (Printf.sprintf "%s %s %s" (match kind with `Cobra -> "cobra" | `Bips -> "bips") vname pname)
      `Slow
      (fun () ->
        if sharded then Cobra_parallel.Pool.with_pool ~num_domains:1 (fun pool -> run ~pool ())
        else run ())
  in
  List.concat_map
    (fun (k, kind) ->
      List.concat
        (List.mapi
           (fun v variant ->
             List.mapi (fun p path -> case kind variant path (1001 + (k * 6) + (v * 2) + p)) paths)
           variants))
    [ (0, `Cobra); (1, `Bips) ]

(* --- Exact cover times --- *)

let test_expected_cover_closed_forms () =
  check_float "K1" 0.0 (Cobra_chain.expected_cover (Graph.of_edges ~n:1 []) ~start:0 ());
  check_float "K2" 1.0 (Cobra_chain.expected_cover (Gen.complete 2) ~start:0 ());
  (* K3 from one vertex: round 1 covers both others w.p. 1/2; otherwise
     one is left, caught at rate 3/4 per round: E = 1 + 1/2 * 4/3 = 5/3. *)
  check_float "K3" ~eps:1e-9 (5.0 /. 3.0) (Cobra_chain.expected_cover (Gen.complete 3) ~start:0 ())

let test_cover_tail_monotone () =
  let tail = Cobra_chain.cover_tail (Gen.cycle 6) ~start:0 () in
  check_float "starts at 1" 1.0 tail.(0);
  for t = 1 to Array.length tail - 1 do
    if tail.(t) > tail.(t - 1) +. 1e-12 then Alcotest.failf "tail increased at %d" t
  done;
  check_bool "ends below eps" true (tail.(Array.length tail - 1) <= 1e-12)

let test_expected_cover_vs_montecarlo () =
  let g = Gen.cycle 7 in
  let exact = Cobra_chain.expected_cover g ~start:0 () in
  let rng = Rng.create 77 in
  let trials = 4000 in
  let sum = ref 0.0 in
  for _ = 1 to trials do
    match Cobra_core.Cobra.run_cover g rng ~start:0 () with
    | Some r -> sum := !sum +. float_of_int r
    | None -> Alcotest.fail "censored"
  done;
  let mc = !sum /. float_of_int trials in
  check_bool
    (Printf.sprintf "MC %.3f vs exact %.3f" mc exact)
    true
    (Float.abs (mc -. exact) < 0.2)

let test_hit_tail_structure () =
  let g = Gen.path 5 in
  let tail = Cobra_chain.hit_tail g ~c0:0b10000 ~target:0 ~horizon:15 () in
  check_float "t=0: not hit" 1.0 tail.(0);
  (* Distance 4: cannot hit before round 4. *)
  check_float "t=3: still certain miss" 1.0 tail.(3);
  check_bool "t=4: can hit" true (tail.(4) < 1.0);
  for t = 1 to 15 do
    if tail.(t) > tail.(t - 1) +. 1e-12 then Alcotest.failf "tail increased at %d" t
  done

let test_hit_tail_target_in_start () =
  let tail = Cobra_chain.hit_tail (Gen.complete 3) ~c0:0b001 ~target:0 ~horizon:3 () in
  Array.iter (fun p -> check_float "always hit at t=0" 0.0 p) tail

(* --- BIPS chain --- *)

let test_bips_rows_are_distributions () =
  let chain = Bips_chain.make (Gen.petersen ()) ~source:0 () in
  let states = Bips_chain.n_states chain in
  check_int "2^(n-1) states" 512 states;
  for a = 0 to states - 1 do
    let mask = Bips_chain.mask_of_state chain a in
    check_int "roundtrip" a (Bips_chain.state_of_mask chain mask);
    check_bool "contains source" true (Subset.mem mask 0)
  done;
  (* Spot-check row sums. *)
  List.iter
    (fun a ->
      let sum = ref 0.0 in
      for a' = 0 to states - 1 do
        sum :=
          !sum
          +. Bips_chain.transition_probability chain (Bips_chain.mask_of_state chain a)
               (Bips_chain.mask_of_state chain a')
      done;
      check_float "row sums to 1" ~eps:1e-9 1.0 !sum)
    [ 0; 17; 255; 511 ]

let test_bips_k2_transitions () =
  (* K2: vertex 1 always picks vertex 0 in A -> always infected. *)
  let chain = Bips_chain.make (Gen.complete 2) ~source:0 () in
  check_float "always to full" 1.0 (Bips_chain.transition_probability chain 0b01 0b11);
  check_float "never stays" 0.0 (Bips_chain.transition_probability chain 0b01 0b01)

let test_bips_path3_hand_computed () =
  (* P3 (0-1-2), source 0, A = {0}: vertex 1 has a = 1/2 so
     p1 = 1 - (1/2)^2 = 3/4; vertex 2 has a = 0 so p2 = 0. *)
  let chain = Bips_chain.make (Gen.path 3) ~source:0 () in
  check_float "to {0,1}" 0.75 (Bips_chain.transition_probability chain 0b001 0b011);
  check_float "stay {0}" 0.25 (Bips_chain.transition_probability chain 0b001 0b001);
  check_float "to {0,2} impossible" 0.0 (Bips_chain.transition_probability chain 0b001 0b101)

let test_bips_expected_infection_k2 () =
  let chain = Bips_chain.make (Gen.complete 2) ~source:0 () in
  check_float "K2 in one round" 1.0 (Bips_chain.expected_infection_time chain)

let test_bips_expected_vs_montecarlo () =
  let g = Gen.cycle 6 in
  let chain = Bips_chain.make g ~source:0 () in
  let exact = Bips_chain.expected_infection_time chain in
  let rng = Rng.create 41 in
  let trials = 4000 in
  let sum = ref 0.0 in
  for _ = 1 to trials do
    match Cobra_core.Bips.run_infection g rng ~source:0 () with
    | Some r -> sum := !sum +. float_of_int r
    | None -> Alcotest.fail "censored"
  done;
  let mc = !sum /. float_of_int trials in
  check_bool
    (Printf.sprintf "MC %.3f vs exact %.3f" mc exact)
    true
    (Float.abs (mc -. exact) < 0.25)

let test_bips_distribution_mass () =
  let chain = Bips_chain.make (Gen.cycle 5) ~source:0 () in
  List.iter
    (fun rounds ->
      let d = Bips_chain.distribution_after chain ~rounds in
      check_float "mass 1" ~eps:1e-9 1.0 (Array.fold_left ( +. ) 0.0 d))
    [ 0; 1; 3; 10 ]

let test_bips_avoid_tail_vs_simulation () =
  let g = Gen.path 4 in
  let chain = Bips_chain.make g ~source:0 () in
  let exact = Bips_chain.avoid_tail chain ~c:0b1000 ~horizon:8 in
  let rng = Rng.create 5 in
  let trials = 30_000 in
  List.iter
    (fun t ->
      let hits = ref 0 in
      for _ = 1 to trials do
        let a = Cobra_core.Bips.infected_after g rng ~rounds:t ~source:0 () in
        if not (Cobra_bitset.Bitset.mem a 3) then incr hits
      done;
      let freq = float_of_int !hits /. float_of_int trials in
      let p = exact.(t) in
      let sigma = sqrt (Float.max 1e-9 (p *. (1.0 -. p) /. float_of_int trials)) in
      if Float.abs (freq -. p) > (5.0 *. sigma) +. 0.002 then
        Alcotest.failf "t=%d: freq %.4f vs exact %.4f" t freq p)
    [ 0; 2; 4; 8 ]

(* --- Exact duality (the theorem, to machine precision) --- *)

let exact_duality_cases =
  [
    ("path6 b2", Gen.path 6, Process.Fixed 2, false, 0b100000, 0);
    ("path6 b1", Gen.path 6, Process.Fixed 1, false, 0b100000, 0);
    ("cycle7 rho.3", Gen.cycle 7, Process.Bernoulli 0.3, false, 0b1000, 0);
    ("K6 lazy", Gen.complete 6, Process.Fixed 2, true, 0b100100, 0);
    ("petersen b2", Gen.petersen (), Process.Fixed 2, false, 0b10000000, 1);
    ("star7 b3", Gen.star 7, Process.Fixed 3, false, 0b1000000, 1);
    ("grid3x3 lazy rho", Gen.grid ~dims:[ 3; 3 ], Process.Bernoulli 0.7, true, 0b100000000, 0);
  ]

let test_exact_duality () =
  List.iter
    (fun (name, g, branching, lazy_, c0, v) ->
      let r = Duality_exact.check g ~branching ~lazy_ ~c0 ~v ~horizon:14 () in
      if r.max_gap > 1e-10 then Alcotest.failf "%s: exact duality gap %.3e" name r.max_gap)
    exact_duality_cases

let test_exact_duality_report_shape () =
  let r = Duality_exact.check (Gen.cycle 5) ~c0:0b100 ~v:0 ~horizon:6 () in
  check_int "horizon recorded" 6 r.horizon;
  check_int "cobra length" 7 (Array.length r.cobra_tail);
  check_int "bips length" 7 (Array.length r.bips_tail);
  check_float "t=0 both 1 (v not in C)" 1.0 r.cobra_tail.(0);
  check_float "t=0 bips" 1.0 r.bips_tail.(0)

let exact_duality_random_property =
  QCheck2.Test.make ~name:"exact duality on random trees" ~count:15
    QCheck2.Gen.(pair (int_range 3 8) (int_bound 1000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n (Rng.create seed) in
      let c0 = 1 lsl (n - 1) in
      let r = Duality_exact.check g ~c0 ~v:0 ~horizon:10 () in
      r.max_gap < 1e-10)

let () =
  Alcotest.run "exact"
    [
      ( "subset",
        [
          Alcotest.test_case "basics" `Quick test_subset_basics;
          Alcotest.test_case "enumeration" `Quick test_subset_enumeration;
          Alcotest.test_case "neighborhood" `Quick test_subset_neighborhood;
        ] );
      ( "cobra chain",
        [
          Alcotest.test_case "K2 next" `Quick test_next_dist_k2;
          Alcotest.test_case "star hub" `Quick test_next_dist_star_hub;
          Alcotest.test_case "b=1" `Quick test_next_dist_b1;
          Alcotest.test_case "bernoulli endpoints" `Quick test_next_dist_bernoulli;
          Alcotest.test_case "mass" `Quick test_next_dist_sums_to_one;
          Alcotest.test_case "matches simulation" `Slow test_next_dist_matches_simulation;
          Alcotest.test_case "closed-form covers" `Quick test_expected_cover_closed_forms;
          Alcotest.test_case "cover tail monotone" `Quick test_cover_tail_monotone;
          Alcotest.test_case "cover vs MC" `Slow test_expected_cover_vs_montecarlo;
          Alcotest.test_case "hit tail" `Quick test_hit_tail_structure;
          Alcotest.test_case "hit tail trivial" `Quick test_hit_tail_target_in_start;
        ] );
      ( "bips chain",
        [
          Alcotest.test_case "rows are distributions" `Quick test_bips_rows_are_distributions;
          Alcotest.test_case "K2" `Quick test_bips_k2_transitions;
          Alcotest.test_case "P3 hand computed" `Quick test_bips_path3_hand_computed;
          Alcotest.test_case "expected K2" `Quick test_bips_expected_infection_k2;
          Alcotest.test_case "expected vs MC" `Slow test_bips_expected_vs_montecarlo;
          Alcotest.test_case "distribution mass" `Quick test_bips_distribution_mass;
          Alcotest.test_case "avoid tail vs simulation" `Slow test_bips_avoid_tail_vs_simulation;
        ] );
      ( "conformance",
        Alcotest.test_case "chi-square survival" `Quick test_gamma_q_reference :: conformance_cases );
      ( "duality (machine precision)",
        [
          Alcotest.test_case "named cases" `Quick test_exact_duality;
          Alcotest.test_case "report shape" `Quick test_exact_duality_report_shape;
          QCheck_alcotest.to_alcotest exact_duality_random_property;
        ] );
    ]
