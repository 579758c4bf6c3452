(* Golden determinism tests.

   The simulation kernels (Bitset iteration, the keyed Process steps,
   the Rounds loop the Cobra/Bips/Sis runners drive) are
   performance-tuned under a hard contract: for a fixed keyed master
   they must draw exactly the same keyed values, and therefore produce
   bit-identical runs.  These tests pin entire run fingerprints (round
   counts, transmission counts and trajectory hashes) at an explicit
   master, across graph families and branching variants.  All but the
   without-replacement golden were recorded, at [Keyed { master = seed }],
   from the per-process runners that the single [Rounds] loop replaced.

   A runner handed an [Rng.t] samples at the master of one
   [Rng.keyed_master] draw of it; the "master draw" group holds every
   runner to the explicit-master fingerprint at that drawn master, so
   the goldens pin the runners too.

   Run the executable with `--dump` to print the current fingerprints in
   the form of the [goldens] list below; only update the list when a
   change to the keyed draw order is both intended and understood. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Keyed = Cobra_prng.Keyed
module Process = Cobra_core.Process
module Rounds = Cobra_core.Rounds
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Sis = Cobra_core.Sis
module Trace = Cobra_obs.Trace

(* Order-sensitive polynomial hash, kept in the non-negative int range. *)
let hash_ints init xs = Array.fold_left (fun h x -> ((h * 1000003) + x) land max_int) init xs

let cobra_string ~rounds ~tx ~visited ~active =
  Printf.sprintf "rounds=%d tx=%d vh=%d ah=%d" rounds tx (hash_ints 17 visited)
    (hash_ints 17 active)

let cobra_run_string = function
  | None -> "censored"
  | Some (r : Cobra.run) ->
      cobra_string ~rounds:r.rounds ~tx:r.transmissions ~visited:r.visited_sizes
        ~active:r.active_sizes

(* COBRA at an explicit master, through the library runner: the round
   events carry every field of the detailed run. *)
let cobra_fp g ~seed ~branching ~lazy_ =
  let sink = Trace.memory () in
  let obs = Cobra_obs.Obs.create ~sink () in
  match
    Cobra.run_cover g (Rng.create 0) ~obs ~rng_mode:(Process.Keyed { master = seed }) ~branching
      ~lazy_ ~start:0 ()
  with
  | None -> "censored"
  | Some rounds ->
      let ended =
        List.filter_map
          (function
            | Trace.Round_ended { informed; active; messages; _ } ->
                Some (informed, active, messages)
            | _ -> None)
          (Trace.events sink)
      in
      let field f = Array.of_list (1 :: List.map f ended) in
      cobra_string ~rounds
        ~tx:(List.fold_left (fun acc (_, _, m) -> acc + m) 0 ended)
        ~visited:(field (fun (i, _, _) -> i))
        ~active:(field (fun (_, a, _) -> a))

let hitting_string = function None -> "censored" | Some t -> Printf.sprintf "hit=%d" t

let hitting_at g ~master ~start ~target =
  let ctx = Process.make_keyed_ctx g ~master in
  fst
    (Rounds.run ~max_rounds:(Cobra.default_max_rounds g) ~current:(Bitset.copy start)
       ~next:(Bitset.create (Graph.n g))
       ~step:(fun ~round ~current ~next ->
         ignore
           (Process.cobra_step_keyed g ctx ~round ~branching:(Process.Fixed 2) ~lazy_:false
              ~current ~next
             : int))
       ~stop:(fun current -> Bitset.mem current target))

let hitting_fp g ~seed ~start ~target =
  hitting_string (hitting_at g ~master:seed ~start:(Bitset.of_list (Graph.n g) start) ~target)

let bips_string = function
  | None -> "censored"
  | Some (t : Bips.trajectory) ->
      Printf.sprintf "rounds=%d sh=%d ch=%d" t.rounds (hash_ints 17 t.sizes)
        (hash_ints 17 t.candidate_sizes)

(* The BIPS trajectory from source 0, candidate set recorded before
   each round. *)
let bips_at g ~master ~branching ~lazy_ =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master in
  let cand = Bitset.create n in
  let sizes = ref [ 1 ] and cands = ref [] in
  let step ~round ~current ~next =
    Process.bips_candidate_set g ~source:0 ~current ~into:cand;
    cands := Bitset.cardinal cand :: !cands;
    Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source:0 ~current ~next;
    sizes := Bitset.cardinal next :: !sizes
  in
  Option.map
    (fun rounds ->
      {
        Bips.rounds;
        sizes = Array.of_list (List.rev !sizes);
        candidate_sizes = Array.of_list (List.rev !cands);
      })
    (fst
       (Rounds.run ~max_rounds:(Cobra.default_max_rounds g) ~current:(Bitset.of_list n [ 0 ])
          ~next:(Bitset.create n) ~step ~stop:(fun s -> Bitset.cardinal s = n)))

let bips_fp g ~seed ~branching ~lazy_ = bips_string (bips_at g ~master:seed ~branching ~lazy_)

let sis_string (outcome, sizes) =
  let o =
    match outcome with
    | Sis.Extinct r -> Printf.sprintf "extinct@%d" r
    | Sis.Saturated r -> Printf.sprintf "saturated@%d" r
    | Sis.Censored -> "censored"
  in
  Printf.sprintf "%s sh=%d" o (hash_ints 17 sizes)

let sis_at g ~master ~initial =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master in
  let sizes = ref [ Bitset.cardinal initial ] in
  let step ~round ~current ~next =
    Process.sis_step_keyed g ctx ~round ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next;
    sizes := Bitset.cardinal next :: !sizes
  in
  let outcome =
    match
      Rounds.run ~max_rounds:(Cobra.default_max_rounds g) ~current:(Bitset.copy initial)
        ~next:(Bitset.create n) ~step
        ~stop:(fun s -> Bitset.cardinal s = 0 || Bitset.cardinal s = n)
    with
    | None, _ -> Sis.Censored
    | Some r, s -> if Bitset.is_empty s then Sis.Extinct r else Sis.Saturated r
  in
  (outcome, Array.of_list (List.rev !sizes))

let sis_fp g ~seed ~initial =
  sis_string (sis_at g ~master:seed ~initial:(Bitset.of_list (Graph.n g) initial))

let without_replacement_fp g ~seed ~rounds =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master:seed in
  let current = Bitset.of_list n [ 0 ] and next = Bitset.create n in
  let h = ref 17 and tx = ref 0 in
  for round = 1 to rounds do
    tx := !tx + Process.cobra_step_without_replacement g ctx ~round ~b:2 ~current ~next;
    Bitset.blit ~src:next ~dst:current;
    h := hash_ints !h (Bitset.to_array current)
  done;
  Printf.sprintf "tx=%d h=%d" !tx !h

(* Graph instances are fixed once; generator randomness uses its own
   dedicated seeds so case fingerprints depend only on the run seed. *)
let hypercube6 = Gen.hypercube 6
let torus8 = Gen.torus ~dims:[ 8; 8 ]
let cycle63 = Gen.cycle 63 (* capacity on a bitset word boundary *)
let complete33 = Gen.complete 33
let lollipop16 = Gen.lollipop ~clique:16 ~tail:17
let regular4_64 = Gen.random_regular ~n:64 ~r:4 (Rng.create 42)
let petersen = Gen.petersen ()

let cases =
  [
    ("cobra hypercube6 b=2", fun () -> cobra_fp hypercube6 ~seed:101 ~branching:(Process.Fixed 2) ~lazy_:false);
    ("cobra hypercube6 b=1", fun () -> cobra_fp hypercube6 ~seed:102 ~branching:(Process.Fixed 1) ~lazy_:false);
    ("cobra torus8 b=2", fun () -> cobra_fp torus8 ~seed:103 ~branching:(Process.Fixed 2) ~lazy_:false);
    ("cobra torus8 rho=0.5", fun () -> cobra_fp torus8 ~seed:104 ~branching:(Process.Bernoulli 0.5) ~lazy_:false);
    ("cobra cycle63 b=2", fun () -> cobra_fp cycle63 ~seed:105 ~branching:(Process.Fixed 2) ~lazy_:false);
    ("cobra complete33 b=2", fun () -> cobra_fp complete33 ~seed:106 ~branching:(Process.Fixed 2) ~lazy_:false);
    ("cobra lollipop16 b=2 lazy", fun () -> cobra_fp lollipop16 ~seed:107 ~branching:(Process.Fixed 2) ~lazy_:true);
    ("cobra regular4-64 b=3", fun () -> cobra_fp regular4_64 ~seed:108 ~branching:(Process.Fixed 3) ~lazy_:false);
    ("cobra regular4-64 rho=0.25 lazy", fun () -> cobra_fp regular4_64 ~seed:109 ~branching:(Process.Bernoulli 0.25) ~lazy_:true);
    ("hitting torus8 {0,5}->37", fun () -> hitting_fp torus8 ~seed:110 ~start:[ 0; 5 ] ~target:37);
    ("bips hypercube6 b=2", fun () -> bips_fp hypercube6 ~seed:111 ~branching:(Process.Fixed 2) ~lazy_:false);
    ("bips regular4-64 rho=0.5", fun () -> bips_fp regular4_64 ~seed:112 ~branching:(Process.Bernoulli 0.5) ~lazy_:false);
    ("sis petersen {0,3}", fun () -> sis_fp petersen ~seed:113 ~initial:[ 0; 3 ]);
    ("without-replacement regular4-64", fun () -> without_replacement_fp regular4_64 ~seed:114 ~rounds:10);
  ]

(* Fingerprints at master = seed; see the header for their provenance. *)
let goldens =
  [
    ("cobra hypercube6 b=2", "rounds=11 tx=288 vh=1719335776830366513 ah=3979931368928538739");
    ("cobra hypercube6 b=1", "rounds=393 tx=393 vh=1111742354908879705 ah=2382184181694208077");
    ("cobra torus8 b=2", "rounds=15 tx=344 vh=1873392813032884313 ah=3149875840817013633");
    ("cobra torus8 rho=0.5", "rounds=29 tx=541 vh=2926875027214163745 ah=2222176787254066053");
    ("cobra cycle63 b=2", "rounds=50 tx=1430 vh=1237082665561882199 ah=3918506583379251379");
    ("cobra complete33 b=2", "rounds=8 tx=170 vh=1961618734903267979 ah=1140020988810964873");
    ("cobra lollipop16 b=2 lazy", "rounds=58 tx=2032 vh=1819626627872023138 ah=1779055166843461053");
    ("cobra regular4-64 b=3", "rounds=9 tx=516 vh=2233275219362403054 ah=4535408535572782386");
    ("cobra regular4-64 rho=0.25 lazy", "rounds=46 tx=624 vh=997741275362872807 ah=2711283898914590242");
    ("hitting torus8 {0,5}->37", "hit=4");
    ("bips hypercube6 b=2", "rounds=9 sh=860105323520547350 ch=3392435908966995523");
    ("bips regular4-64 rho=0.5", "rounds=19 sh=737989283527909152 ch=2752524180782091130");
    ("sis petersen {0,3}", "saturated@10 sh=4169792657404554986");
    ("without-replacement regular4-64", "tx=420 h=813255551819460171");
  ]

let dump () =
  List.iter (fun (name, fp) -> Printf.printf "    (%S, %S);\n" name (fp ())) cases

let test_golden (name, fp) golden () = Alcotest.(check string) name golden (fp ())

(* --- Runners sample at the master of one draw of their Rng --- *)

let drawn seed = Rng.keyed_master (Rng.create seed)

let test_cobra_master_draw () =
  List.iter
    (fun (g, seed, branching, lazy_) ->
      let explicit = cobra_fp g ~seed:(drawn seed) ~branching ~lazy_ in
      Alcotest.(check string) "run_cover_detailed" explicit
        (cobra_run_string (Cobra.run_cover_detailed g (Rng.create seed) ~branching ~lazy_ ~start:0 ()));
      Alcotest.(check string) "run_cover rounds"
        (List.hd (String.split_on_char ' ' explicit))
        (match Cobra.run_cover g (Rng.create seed) ~branching ~lazy_ ~start:0 () with
        | None -> "censored"
        | Some r -> Printf.sprintf "rounds=%d" r))
    [
      (hypercube6, 301, Process.Fixed 2, false);
      (torus8, 302, Process.Bernoulli 0.5, false);
      (lollipop16, 303, Process.Fixed 2, true);
    ]

let test_hitting_master_draw () =
  let start = Bitset.of_list (Graph.n torus8) [ 0; 5 ] in
  Alcotest.(check string) "hitting_time"
    (hitting_string (hitting_at torus8 ~master:(drawn 304) ~start ~target:37))
    (hitting_string (Cobra.hitting_time torus8 (Rng.create 304) ~start ~target:37 ()))

let test_bips_master_draw () =
  let branching = Process.Bernoulli 0.5 in
  Alcotest.(check string) "run_trajectory"
    (bips_string (bips_at regular4_64 ~master:(drawn 305) ~branching ~lazy_:false))
    (bips_string (Bips.run_trajectory regular4_64 (Rng.create 305) ~branching ~source:0 ()))

let test_sis_master_draw () =
  let initial = Bitset.of_list 10 [ 0; 3 ] in
  Alcotest.(check string) "run_trajectory"
    (sis_string (sis_at petersen ~master:(drawn 306) ~initial))
    (sis_string (Sis.run_trajectory petersen (Rng.create 306) ~initial ()))

let master_draw_tests =
  [
    Alcotest.test_case "cobra runners" `Quick test_cobra_master_draw;
    Alcotest.test_case "hitting time" `Quick test_hitting_master_draw;
    Alcotest.test_case "bips trajectory" `Quick test_bips_master_draw;
    Alcotest.test_case "sis trajectory" `Quick test_sis_master_draw;
  ]

(* --- Draw alignment across branching variants ---

   [Keyed.bernoulli] consumes no draw at p = 0 or p = 1 (see keyed.mli),
   so a [Bernoulli 1.0] run must replay draw-for-draw as [Fixed 2] and
   [Bernoulli 0.0] as [Fixed 1] — whole runs, not just distributions.
   The server's canonical job keys rely on it. *)

let check_variant_alignment g ~seed ~lazy_ ~degenerate ~fixed () =
  let fp branching = cobra_fp g ~seed ~branching ~lazy_ in
  Alcotest.(check string) "degenerate Bernoulli replays as Fixed" (fp (Process.Fixed fixed))
    (fp (Process.Bernoulli degenerate))

let test_bernoulli_degenerate_consumes_nothing () =
  let k = Keyed.create ~master:2024 in
  Keyed.position k ~round:1 ~vertex:0;
  let witness = Keyed.copy k in
  Alcotest.(check bool) "p=1 is true" true (Keyed.bernoulli k 1.0);
  Alcotest.(check bool) "p=0 is false" false (Keyed.bernoulli k 0.0);
  for i = 1 to 100 do
    Alcotest.(check int)
      (Printf.sprintf "draw %d aligned" i)
      (Keyed.int_below witness 1_000_003) (Keyed.int_below k 1_000_003)
  done

let alignment_tests =
  [
    Alcotest.test_case "bernoulli p∈{0,1} consumes no state" `Quick
      test_bernoulli_degenerate_consumes_nothing;
    Alcotest.test_case "Bernoulli 1.0 ≡ Fixed 2 (hypercube)" `Quick
      (check_variant_alignment hypercube6 ~seed:201 ~lazy_:false ~degenerate:1.0 ~fixed:2);
    Alcotest.test_case "Bernoulli 0.0 ≡ Fixed 1 (torus)" `Quick
      (check_variant_alignment torus8 ~seed:202 ~lazy_:false ~degenerate:0.0 ~fixed:1);
    Alcotest.test_case "Bernoulli 1.0 ≡ Fixed 2 (lollipop, lazy)" `Quick
      (check_variant_alignment lollipop16 ~seed:203 ~lazy_:true ~degenerate:1.0 ~fixed:2);
  ]

let () =
  if Array.exists (( = ) "--dump") Sys.argv then dump ()
  else begin
    if List.length goldens <> List.length cases then
      failwith "test_determinism: goldens out of sync with cases (run with --dump)";
    Alcotest.run "determinism"
      [
        ( "golden runs",
          List.map2
            (fun (name, fp) (gname, golden) ->
              if name <> gname then failwith "test_determinism: case/golden order mismatch";
              Alcotest.test_case name `Quick (test_golden (name, fp) golden))
            cases goldens );
        ("master draw", master_draw_tests);
        ("stream alignment", alignment_tests);
      ]
  end
