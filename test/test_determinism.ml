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
   The two graph goldens pin [Gen.random_regular]'s output; they were
   recorded from the Hashtbl switch loop that its slot table replaced.
   The "csr digests" group pins every registered family's CSR at two
   sizes and two generator seeds.

   A runner handed an [Rng.t] samples at the master of one
   [Rng.keyed_master] draw of it; the "master draw" group holds every
   runner to the explicit-master fingerprint at that drawn master, so
   the goldens pin the runners too.

   Run the executable with `--dump` to print the current fingerprints in
   the form of the [goldens] and [family_goldens] lists below; only
   update a list when a change to the keyed draw order or to a
   generator's output is both intended and understood. *)

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

(* A generated graph, down to its edge order and every vertex's
   neighbour order. *)
let graph_fp family ~n ~seed =
  let g = Gen.by_name family ~n (Rng.create seed) in
  let edges = Array.of_list (List.concat_map (fun (u, v) -> [ u; v ]) (Graph.edges g)) in
  let adj = Array.concat (List.init (Graph.n g) (Graph.neighbors g)) in
  Printf.sprintf "n=%d m=%d eh=%d ah=%d" (Graph.n g) (Graph.m g) (hash_ints 17 edges)
    (hash_ints 17 adj)

(* Every registered family's CSR, offsets then adjacency, as one MD5
   digest of their little-endian int32 bytes. *)
let csr_digest g =
  let buf = Buffer.create 4096 in
  let add a =
    for i = 0 to Bigarray.Array1.dim a - 1 do
      Buffer.add_int32_le buf (Bigarray.Array1.get a i)
    done
  in
  add (Graph.csr_offsets g);
  add (Graph.csr_adjacency g);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest_key family ~n ~seed = Printf.sprintf "%s n=%d gseed=%d" family n seed

let family_cases =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun n ->
          List.map
            (fun seed ->
              ( digest_key family ~n ~seed,
                fun () -> csr_digest (Gen.by_name family ~n (Rng.create seed)) ))
            [ 1; 2 ])
        [ 64; 512 ])
    Gen.family_names

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
    ("graph regular-8 n=512", fun () -> graph_fp "regular-8" ~n:512 ~seed:115);
    ("graph regular-16 n=1024", fun () -> graph_fp "regular-16" ~n:1024 ~seed:116);
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
    ("graph regular-8 n=512", "n=512 m=2048 eh=627542504037025153 ah=3703136067600202259");
    ("graph regular-16 n=1024", "n=1024 m=8192 eh=2156758636698729979 ah=2563984862826648369");
  ]

(* Per-family CSR digests, keyed by [digest_key]: recorded from the
   generators as they stood before every generator was moved onto
   [Builder] and the switch chain onto slot-indexed edge records. *)
let family_goldens =
  [
    ("complete n=64 gseed=1", "e8b7b993542f347f7bea741d7988921e");
    ("complete n=64 gseed=2", "e8b7b993542f347f7bea741d7988921e");
    ("complete n=512 gseed=1", "e4b7d20ff1d37965e0dfed41e699413b");
    ("complete n=512 gseed=2", "e4b7d20ff1d37965e0dfed41e699413b");
    ("path n=64 gseed=1", "ec5e942d69b3357b07ef7f81be916578");
    ("path n=64 gseed=2", "ec5e942d69b3357b07ef7f81be916578");
    ("path n=512 gseed=1", "13d2636d2304ddceb35ef4bae7bee001");
    ("path n=512 gseed=2", "13d2636d2304ddceb35ef4bae7bee001");
    ("cycle n=64 gseed=1", "68d100cded1d9f770155f0a66cc4bbaa");
    ("cycle n=64 gseed=2", "68d100cded1d9f770155f0a66cc4bbaa");
    ("cycle n=512 gseed=1", "1b3e13cc3a5355f6a1a1b98a398624ad");
    ("cycle n=512 gseed=2", "1b3e13cc3a5355f6a1a1b98a398624ad");
    ("star n=64 gseed=1", "298521a52d0185a8f64efe82e84444eb");
    ("star n=64 gseed=2", "298521a52d0185a8f64efe82e84444eb");
    ("star n=512 gseed=1", "8e969cc83e98b07e9c53a61b7f1d7a82");
    ("star n=512 gseed=2", "8e969cc83e98b07e9c53a61b7f1d7a82");
    ("wheel n=64 gseed=1", "0810984df64b87e18962980fe921515d");
    ("wheel n=64 gseed=2", "0810984df64b87e18962980fe921515d");
    ("wheel n=512 gseed=1", "7c0134285d5a1019c25555d600264f93");
    ("wheel n=512 gseed=2", "7c0134285d5a1019c25555d600264f93");
    ("binary-tree n=64 gseed=1", "c15a5280674163e21e57dfa93ee9a168");
    ("binary-tree n=64 gseed=2", "c15a5280674163e21e57dfa93ee9a168");
    ("binary-tree n=512 gseed=1", "2d6dfcc7a595e788b5c50e3bf448e286");
    ("binary-tree n=512 gseed=2", "2d6dfcc7a595e788b5c50e3bf448e286");
    ("grid2d n=64 gseed=1", "8f71694b2b90ca9d39a499c604afd1c8");
    ("grid2d n=64 gseed=2", "8f71694b2b90ca9d39a499c604afd1c8");
    ("grid2d n=512 gseed=1", "6afc75619411679830f51e9f2b03d51a");
    ("grid2d n=512 gseed=2", "6afc75619411679830f51e9f2b03d51a");
    ("grid3d n=64 gseed=1", "a0836948584d7cd22f80de43d2f32928");
    ("grid3d n=64 gseed=2", "a0836948584d7cd22f80de43d2f32928");
    ("grid3d n=512 gseed=1", "f88eb7f0c8352deee1dc01e0e087b16f");
    ("grid3d n=512 gseed=2", "f88eb7f0c8352deee1dc01e0e087b16f");
    ("torus2d n=64 gseed=1", "ecbecde7e939afd1000b3964ef75a578");
    ("torus2d n=64 gseed=2", "ecbecde7e939afd1000b3964ef75a578");
    ("torus2d n=512 gseed=1", "30bf686b31cafb5ed764889eb11803c2");
    ("torus2d n=512 gseed=2", "30bf686b31cafb5ed764889eb11803c2");
    ("torus3d n=64 gseed=1", "674bab42ec21cfd3b2cf23b03ac25a39");
    ("torus3d n=64 gseed=2", "674bab42ec21cfd3b2cf23b03ac25a39");
    ("torus3d n=512 gseed=1", "520956d7f201815202a3615edbc822aa");
    ("torus3d n=512 gseed=2", "520956d7f201815202a3615edbc822aa");
    ("hypercube n=64 gseed=1", "ca60a0e993c45fb93db06d9ed88bb372");
    ("hypercube n=64 gseed=2", "ca60a0e993c45fb93db06d9ed88bb372");
    ("hypercube n=512 gseed=1", "40ec59fa7b8dee0580b3afb953cc0abe");
    ("hypercube n=512 gseed=2", "40ec59fa7b8dee0580b3afb953cc0abe");
    ("lollipop n=64 gseed=1", "68fa08b3526cfff117274f3d77468d49");
    ("lollipop n=64 gseed=2", "68fa08b3526cfff117274f3d77468d49");
    ("lollipop n=512 gseed=1", "813678611699942a14474ac0c33c4298");
    ("lollipop n=512 gseed=2", "813678611699942a14474ac0c33c4298");
    ("barbell n=64 gseed=1", "50b68c8bd110336479bb88c7f5c177bf");
    ("barbell n=64 gseed=2", "50b68c8bd110336479bb88c7f5c177bf");
    ("barbell n=512 gseed=1", "f471c777a1998fdf98358d2a8fdf26c1");
    ("barbell n=512 gseed=2", "f471c777a1998fdf98358d2a8fdf26c1");
    ("ladder n=64 gseed=1", "543b0e18a0faaaab0746323b21067c49");
    ("ladder n=64 gseed=2", "543b0e18a0faaaab0746323b21067c49");
    ("ladder n=512 gseed=1", "810b6c8c7fd21b58ca3cfc8a572bf1d4");
    ("ladder n=512 gseed=2", "810b6c8c7fd21b58ca3cfc8a572bf1d4");
    ("petersen n=64 gseed=1", "77d157253dc17ee80f1486c9b3d4a9de");
    ("petersen n=64 gseed=2", "77d157253dc17ee80f1486c9b3d4a9de");
    ("petersen n=512 gseed=1", "77d157253dc17ee80f1486c9b3d4a9de");
    ("petersen n=512 gseed=2", "77d157253dc17ee80f1486c9b3d4a9de");
    ("random-tree n=64 gseed=1", "5a60e03fedcfc35636928a48bab91735");
    ("random-tree n=64 gseed=2", "35907d227b218e7cecabef9cf54f9a58");
    ("random-tree n=512 gseed=1", "6dbd0e5adba71e310ec2e436db6121c0");
    ("random-tree n=512 gseed=2", "218e39fbccbc3fc5a052db5096e67373");
    ("gnp n=64 gseed=1", "e67353fd819e8831dc3b5f7b6f11249c");
    ("gnp n=64 gseed=2", "1c77a2204ca38565e0615f0c08da84af");
    ("gnp n=512 gseed=1", "ca125d7f7ba1c03f7f7967282a98c61f");
    ("gnp n=512 gseed=2", "a354e22b44dad45dacd771d954403472");
    ("regular-3 n=64 gseed=1", "96aaefa80d92272e88d6a63c051ee1fd");
    ("regular-3 n=64 gseed=2", "b86944a6c53d36c9c3c57cf31b2ae7a1");
    ("regular-3 n=512 gseed=1", "7ed84a8675158a63f27a57fc42e3531c");
    ("regular-3 n=512 gseed=2", "d066398a8463a1c70356da3c3f083362");
    ("regular-4 n=64 gseed=1", "82b581fca8336d1395d2f19032dcf8df");
    ("regular-4 n=64 gseed=2", "fbb73295e2205ed8eea0d8b6c479bb41");
    ("regular-4 n=512 gseed=1", "da7ed7a6c196207be97ec6bb3d22d5f5");
    ("regular-4 n=512 gseed=2", "50b0e74bb438990d1ef64e22281bcd4d");
    ("regular-8 n=64 gseed=1", "9ffd79d7135265e73e6b613deebb4e88");
    ("regular-8 n=64 gseed=2", "2902d717a863a7efe1052f757abda5f3");
    ("regular-8 n=512 gseed=1", "6ce1d23f86f7077cd263b3fcda8a40ae");
    ("regular-8 n=512 gseed=2", "115caa4a2b4034358a0bd915cde07190");
    ("regular-16 n=64 gseed=1", "b8d66f664575dfe83369c6017ca38c0f");
    ("regular-16 n=64 gseed=2", "a1ee62722607effe504c0337b0716f02");
    ("regular-16 n=512 gseed=1", "f0f115a1b617736a3337d809c3cd5bed");
    ("regular-16 n=512 gseed=2", "6ff5e134d13bb6be1e8859c6fd2cd4d5");
    ("cycle-matching n=64 gseed=1", "4926bfc356e5c533462ad9854cc085df");
    ("cycle-matching n=64 gseed=2", "3597922b735640b0c2d9bf1f5bae1e2a");
    ("cycle-matching n=512 gseed=1", "54dcf0c2210da7abe3f51a77c75ef2fb");
    ("cycle-matching n=512 gseed=2", "aaa60b06062ce11b8a36afe3b56946b6");
    ("small-world n=64 gseed=1", "595f6a5ff3af4eed6737cb914628893f");
    ("small-world n=64 gseed=2", "0f6f3a26b8158cda00ff34cc71bec53c");
    ("small-world n=512 gseed=1", "783d9a71ddecdc13fd623785994646da");
    ("small-world n=512 gseed=2", "3ae2e81ca2f559d89a5c67eb718f66a2");
    ("pref-attach n=64 gseed=1", "e99bdf9db90067a0c5fd3b0f25ab210b");
    ("pref-attach n=64 gseed=2", "ec3ceb250d9958441ddd24400ca717d2");
    ("pref-attach n=512 gseed=1", "b6ff019f8d9ab51416b7bc452ea3895c");
    ("pref-attach n=512 gseed=2", "5e755244270a26ac24ee0df8f2dd45ae");
    ("ccc n=64 gseed=1", "d151b94875ac0445eb6a2d52d97f39af");
    ("ccc n=64 gseed=2", "d151b94875ac0445eb6a2d52d97f39af");
    ("ccc n=512 gseed=1", "9ee88196ee061997253cd4fe70d863c0");
    ("ccc n=512 gseed=2", "9ee88196ee061997253cd4fe70d863c0");
    ("broom n=64 gseed=1", "d53dfce24bafd5a5aa84b61996d993a6");
    ("broom n=64 gseed=2", "d53dfce24bafd5a5aa84b61996d993a6");
    ("broom n=512 gseed=1", "34302e1cb56c32b0635c722990378f69");
    ("broom n=512 gseed=2", "34302e1cb56c32b0635c722990378f69");
    ("chunglu:2.5 n=64 gseed=1", "f8986d2b93921a219efdb4439b710dfa");
    ("chunglu:2.5 n=64 gseed=2", "86a5c1e5b50054d259b7670ba552f77a");
    ("chunglu:2.5 n=512 gseed=1", "1bd065c5a2155a511f957db99b508a5b");
    ("chunglu:2.5 n=512 gseed=2", "05b6b365f0b661c33ac8777de9fd3cdf");
    ("config:2.5 n=64 gseed=1", "09444005840935b799eb6fcab7fcda1a");
    ("config:2.5 n=64 gseed=2", "40c042ca28e98752202a3a8eb78c3f1d");
    ("config:2.5 n=512 gseed=1", "60720e1e1cfbfb0dbd61ccd316bdebbe");
    ("config:2.5 n=512 gseed=2", "81422ddef944908184b67bc301efddb5");
    ("ba:4 n=64 gseed=1", "0c4c839e3a9c4e1988c8661f5d9466d6");
    ("ba:4 n=64 gseed=2", "4da2983e44fa66d4cb4e59ad6e29a23c");
    ("ba:4 n=512 gseed=1", "35b1b7518ecea6a86016555328cfc809");
    ("ba:4 n=512 gseed=2", "c491b99f5546f77626f14688e907004a");
  ]

let dump () =
  let print = List.iter (fun (name, fp) -> Printf.printf "    (%S, %S);\n" name (fp ())) in
  print_endline "(* goldens *)";
  print cases;
  print_endline "(* family_goldens *)";
  print family_cases

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
    if List.length goldens <> List.length cases
       || List.map fst family_goldens <> List.map fst family_cases
    then failwith "test_determinism: goldens out of sync with cases (run with --dump)";
    Alcotest.run "determinism"
      [
        ( "golden runs",
          List.map2
            (fun (name, fp) (gname, golden) ->
              if name <> gname then failwith "test_determinism: case/golden order mismatch";
              Alcotest.test_case name `Quick (test_golden (name, fp) golden))
            cases goldens );
        ( "csr digests",
          List.map
            (fun family ->
              Alcotest.test_case family `Quick (fun () ->
                  List.iter
                    (fun (key, fp) ->
                      if String.starts_with ~prefix:(family ^ " ") key then
                        Alcotest.(check string) key (List.assoc key family_goldens) (fp ()))
                    family_cases))
            Gen.family_names );
        ("master draw", master_draw_tests);
        ("stream alignment", alignment_tests);
      ]
  end
