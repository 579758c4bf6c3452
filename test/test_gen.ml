(* Tests for the graph generators: size/degree formulas, regularity,
   connectivity, and validity of the randomised families. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_complete () =
  let g = Gen.complete 7 in
  check_int "n" 7 (Graph.n g);
  check_int "m" 21 (Graph.m g);
  check_bool "regular" true (Graph.is_regular g);
  check_int "degree" 6 (Graph.max_degree g)

let test_path () =
  let g = Gen.path 10 in
  check_int "m" 9 (Graph.m g);
  check_int "end degree" 1 (Graph.degree g 0);
  check_int "inner degree" 2 (Graph.degree g 5);
  check_bool "connected" true (Props.is_connected g)

let test_cycle () =
  let g = Gen.cycle 9 in
  check_int "m" 9 (Graph.m g);
  check_bool "2-regular" true (Graph.is_regular g && Graph.max_degree g = 2);
  check_bool "connected" true (Props.is_connected g)

let test_star () =
  let g = Gen.star 8 in
  check_int "m" 7 (Graph.m g);
  check_int "hub degree" 7 (Graph.degree g 0);
  check_int "leaf degree" 1 (Graph.degree g 3)

let test_wheel () =
  let g = Gen.wheel 8 in
  check_int "m" 14 (Graph.m g);
  check_int "hub degree" 7 (Graph.degree g 0);
  check_int "rim degree" 3 (Graph.degree g 4)

let test_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  check_int "n" 7 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  check_int "left degree" 4 (Graph.degree g 0);
  check_int "right degree" 3 (Graph.degree g 5);
  check_bool "bipartite" true (Props.is_bipartite g)

let test_binary_tree () =
  let g = Gen.binary_tree 15 in
  check_int "m" 14 (Graph.m g);
  check_bool "connected" true (Props.is_connected g);
  check_int "root degree" 2 (Graph.degree g 0);
  check_int "leaf degree" 1 (Graph.degree g 14)

let test_grid () =
  let g = Gen.grid ~dims:[ 3; 4 ] in
  check_int "n" 12 (Graph.n g);
  (* 2*(3*3) + 3*... rows: 3 rows of 3 horizontal edges = 9; columns: 4 cols of 2 = 8. *)
  check_int "m" 17 (Graph.m g);
  check_bool "connected" true (Props.is_connected g);
  let g3 = Gen.grid ~dims:[ 2; 2; 2 ] in
  check_int "3d n" 8 (Graph.n g3);
  check_int "3d m" 12 (Graph.m g3)

let test_torus () =
  let g = Gen.torus ~dims:[ 4; 5 ] in
  check_int "n" 20 (Graph.n g);
  check_bool "4-regular" true (Graph.is_regular g && Graph.max_degree g = 4);
  check_int "m" 40 (Graph.m g);
  (* Length-2 dimensions degrade to single edges, keeping the graph simple. *)
  let ladder_like = Gen.torus ~dims:[ 2; 4 ] in
  check_bool "2xk torus stays simple" true (Graph.max_degree ladder_like = 3)

let test_hypercube () =
  let g = Gen.hypercube 5 in
  check_int "n" 32 (Graph.n g);
  check_int "m" 80 (Graph.m g);
  check_bool "5-regular" true (Graph.is_regular g && Graph.max_degree g = 5);
  check_bool "bipartite" true (Props.is_bipartite g);
  check_int "diameter = d" 5 (Props.diameter g)

let test_lollipop () =
  let g = Gen.lollipop ~clique:6 ~tail:4 in
  check_int "n" 10 (Graph.n g);
  check_int "m" (15 + 4) (Graph.m g);
  check_bool "connected" true (Props.is_connected g);
  check_int "tail end degree" 1 (Graph.degree g 9);
  check_int "attachment degree" 6 (Graph.degree g 0)

let test_barbell () =
  let g = Gen.barbell ~clique:5 ~bridge:3 in
  check_int "n" 13 (Graph.n g);
  check_int "m" (10 + 10 + 4) (Graph.m g);
  check_bool "connected" true (Props.is_connected g);
  let direct = Gen.barbell ~clique:4 ~bridge:0 in
  check_int "bridge 0 n" 8 (Graph.n direct);
  check_int "bridge 0 m" 13 (Graph.m direct);
  check_bool "bridge 0 connected" true (Props.is_connected direct)

let test_ladder () =
  let g = Gen.ladder 6 in
  check_int "n" 12 (Graph.n g);
  check_int "m" 16 (Graph.m g)

let test_petersen () =
  let g = Gen.petersen () in
  check_int "n" 10 (Graph.n g);
  check_int "m" 15 (Graph.m g);
  check_bool "3-regular" true (Graph.is_regular g && Graph.max_degree g = 3);
  check_int "diameter" 2 (Props.diameter g);
  check_bool "not bipartite" false (Props.is_bipartite g)

let test_gnp_extremes () =
  let rng = Rng.create 1 in
  let empty = Gen.erdos_renyi_gnp ~n:20 ~p:0.0 rng in
  check_int "p=0 no edges" 0 (Graph.m empty);
  let full = Gen.erdos_renyi_gnp ~n:10 ~p:1.0 rng in
  check_int "p=1 complete" 45 (Graph.m full)

let test_gnp_density () =
  let rng = Rng.create 2 in
  let n = 300 and p = 0.05 in
  let g = Gen.erdos_renyi_gnp ~n ~p rng in
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let m = float_of_int (Graph.m g) in
  check_bool
    (Printf.sprintf "m=%.0f near expected %.0f" m expected)
    true
    (Float.abs (m -. expected) < 4.0 *. sqrt expected)

let test_connected_gnp () =
  let rng = Rng.create 3 in
  let n = 60 in
  let p = 2.0 *. log (float_of_int n) /. float_of_int n in
  let g = Gen.connected_gnp ~n ~p rng in
  check_bool "connected" true (Props.is_connected g)

let test_random_regular_validity () =
  let rng = Rng.create 4 in
  List.iter
    (fun (n, r) ->
      let g = Gen.random_regular ~n ~r rng in
      check_int (Printf.sprintf "n=%d" n) n (Graph.n g);
      check_bool
        (Printf.sprintf "%d-regular on %d vertices" r n)
        true
        (Graph.is_regular g && Graph.max_degree g = r);
      check_bool "connected" true (Props.is_connected g))
    [ (10, 3); (21, 4); (50, 3); (40, 8); (33, 16) ]

let test_random_regular_randomises () =
  (* Two different seeds should essentially never give the same graph. *)
  let g1 = Gen.random_regular ~n:30 ~r:4 (Rng.create 10) in
  let g2 = Gen.random_regular ~n:30 ~r:4 (Rng.create 11) in
  check_bool "different samples" false (Graph.edges g1 = Graph.edges g2)

(* The switch phase allocates nothing: 30 switches per edge allocate no
   more than none do, at two sizes. *)
let test_random_regular_switches_allocate_nothing () =
  List.iter
    (fun n ->
      let gen switches_per_edge () =
        ignore
          (Sys.opaque_identity
             (Gen.random_regular ~n ~r:8 ~switches_per_edge ~ensure_connected:false (Rng.create 3)))
      in
      let w = Alloc.words (gen 30) -. Alloc.words (gen 0) in
      check_bool (Printf.sprintf "n=%d: %.0f minor words for %d switches" n w (30 * 4 * n)) true
        (w <= 64.))
    [ 1024; 4096 ]

(* A whole call, circulant start, switches, Builder and connectivity
   check, allocates at most 512 minor words: the slot table, the edge
   records and the builder's buffer are major-heap arrays. *)
let test_random_regular_allocates_little () =
  let w =
    Alloc.words (fun () ->
        ignore (Sys.opaque_identity (Gen.random_regular ~n:512 ~r:8 (Rng.create 3))))
  in
  check_bool (Printf.sprintf "%.0f minor words" w) true (w <= 512.)

let test_random_regular_errors () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "odd n*r" (Invalid_argument "Gen.random_regular: n * r must be even")
    (fun () -> ignore (Gen.random_regular ~n:5 ~r:3 rng));
  Alcotest.check_raises "r >= n" (Invalid_argument "Gen.random_regular: need r < n") (fun () ->
      ignore (Gen.random_regular ~n:4 ~r:4 rng))

let test_random_tree () =
  let rng = Rng.create 6 in
  for n = 2 to 40 do
    let g = Gen.random_tree ~n rng in
    check_int (Printf.sprintf "tree edges n=%d" n) (n - 1) (Graph.m g);
    check_bool "connected" true (Props.is_connected g)
  done

(* --- Gen_extra --- *)

module Gen_extra = Cobra_graph.Gen_extra

let same_graph msg a b =
  check_int (msg ^ ": n") (Graph.n a) (Graph.n b);
  Alcotest.(check (list (pair int int))) (msg ^ ": edges") (Graph.edges a) (Graph.edges b)

let test_cartesian_product_known () =
  (* P2 x P2 = C4 (up to labels; both are 4-vertex 2-regular connected). *)
  let p2 = Gen.path 2 in
  let c4ish = Gen_extra.cartesian_product p2 p2 in
  check_int "n" 4 (Graph.n c4ish);
  check_bool "2-regular" true (Graph.is_regular c4ish && Graph.max_degree c4ish = 2);
  (* Pk x Pl is the k x l grid with matching encoding. *)
  same_graph "P3 x P4 = grid 3x4" (Gen.grid ~dims:[ 3; 4 ])
    (Gen_extra.cartesian_product (Gen.path 3) (Gen.path 4));
  (* Q3 x K2 = Q4: compare degree sequence, size and diameter. *)
  let q4 = Gen_extra.cartesian_product (Gen.hypercube 3) (Gen.complete 2) in
  check_int "Q4 vertices" 16 (Graph.n q4);
  check_bool "Q4 regular" true (Graph.is_regular q4 && Graph.max_degree q4 = 4);
  check_int "Q4 diameter" 4 (Props.diameter q4)

let test_cycle_plus_matching () =
  let rng = Rng.create 11 in
  for _ = 1 to 10 do
    let g = Gen_extra.cycle_plus_matching ~n:40 rng in
    check_bool "3-regular" true (Graph.is_regular g && Graph.max_degree g = 3);
    check_int "m = 3n/2" 60 (Graph.m g);
    check_bool "connected (contains the cycle)" true (Props.is_connected g)
  done;
  Alcotest.check_raises "odd n" (Invalid_argument "Gen_extra.cycle_plus_matching: need even n >= 6")
    (fun () -> ignore (Gen_extra.cycle_plus_matching ~n:7 rng))

let test_cycle_plus_matching_expands () =
  (* The point of the construction: a much larger gap than the bare
     cycle at the same size. *)
  let rng = Rng.create 12 in
  let g = Gen_extra.cycle_plus_matching ~n:100 rng in
  let gap = 1.0 -. (Cobra_spectral.Eigen.spectrum g).lambda in
  let cycle_gap = 1.0 -. (Cobra_spectral.Eigen.spectrum (Gen.cycle 101)).lambda in
  check_bool
    (Printf.sprintf "expander gap %.4f >> cycle gap %.5f" gap cycle_gap)
    true
    (gap > 20.0 *. cycle_gap)

let test_watts_strogatz () =
  let rng = Rng.create 13 in
  let beta0 = Gen_extra.watts_strogatz ~n:30 ~k:4 ~beta:0.0 rng in
  check_bool "beta=0 is the ring lattice" true
    (Graph.is_regular beta0 && Graph.max_degree beta0 = 4);
  check_int "m = nk/2" 60 (Graph.m beta0);
  let rewired = Gen_extra.watts_strogatz ~n:30 ~k:4 ~beta:0.5 rng in
  check_bool "rewiring keeps it simple" true (Graph.m rewired <= 60 && Graph.m rewired > 40);
  Alcotest.check_raises "odd k"
    (Invalid_argument "Gen_extra.watts_strogatz: need even k with 2 <= k < n") (fun () ->
      ignore (Gen_extra.watts_strogatz ~n:10 ~k:3 ~beta:0.1 rng))

let test_barabasi_albert () =
  let rng = Rng.create 14 in
  let g = Gen_extra.barabasi_albert ~n:60 ~m:2 rng in
  check_int "n" 60 (Graph.n g);
  check_bool "connected" true (Props.is_connected g);
  (* Seed clique contributes 3 edges, each newcomer m = 2. *)
  check_int "m" (3 + (2 * 57)) (Graph.m g);
  check_bool "has a hub" true (Graph.max_degree g >= 6);
  Alcotest.check_raises "bad m" (Invalid_argument "Gen_extra.barabasi_albert: need 1 <= m < n")
    (fun () -> ignore (Gen_extra.barabasi_albert ~n:5 ~m:0 rng))

let test_cube_connected_cycles () =
  let g = Gen_extra.cube_connected_cycles 3 in
  check_int "n = d 2^d" 24 (Graph.n g);
  check_bool "3-regular" true (Graph.is_regular g && Graph.max_degree g = 3);
  check_bool "connected" true (Props.is_connected g);
  let g4 = Gen_extra.cube_connected_cycles 4 in
  check_int "CCC(4)" 64 (Graph.n g4);
  check_bool "still 3-regular" true (Graph.is_regular g4 && Graph.max_degree g4 = 3)

let test_caterpillar_and_broom () =
  let cat = Gen_extra.caterpillar ~spine:5 ~legs:3 in
  check_int "caterpillar n" 20 (Graph.n cat);
  check_int "caterpillar edges" 19 (Graph.m cat);
  check_bool "caterpillar is a tree" true (Props.is_connected cat && Graph.m cat = Graph.n cat - 1);
  let br = Gen_extra.broom ~handle:6 ~bristles:4 in
  check_int "broom n" 10 (Graph.n br);
  check_bool "broom is a tree" true (Props.is_connected br && Graph.m br = 9);
  check_int "broom head degree" 5 (Graph.degree br 5);
  check_int "broom handle-end degree" 1 (Graph.degree br 0)

let product_regularity_property =
  QCheck2.Test.make ~name:"product of regular graphs is regular with summed degree" ~count:20
    QCheck2.Gen.(pair (int_range 3 8) (int_range 3 8))
    (fun (a, b) ->
      let g = Gen_extra.cartesian_product (Gen.cycle a) (Gen.cycle b) in
      Graph.n g = a * b && Graph.is_regular g && Graph.max_degree g = 4
      && Props.is_connected g)

let test_by_name_all_families () =
  let rng = Rng.create 7 in
  List.iter
    (fun name ->
      let g = Gen.by_name name ~n:40 rng in
      check_bool (name ^ " connected") true (Props.is_connected g);
      check_bool (name ^ " non-trivial") true (Graph.n g >= 2))
    Gen.family_names

(* Every seed-free family adds its edges to one Builder, so a whole
   [Gen.by_name] call at n = 1 024 allocates at most 512 minor words,
   where a tuple list cost thousands (3.1 M for complete). *)
let test_seed_free_families_allocate_little () =
  List.iter
    (fun name ->
      let build () = ignore (Sys.opaque_identity (Gen.by_name name ~n:1024 (Rng.create 1))) in
      build ();
      let w = Alloc.words build in
      check_bool (Printf.sprintf "%s: %.0f minor words" name w) true (w <= 512.))
    [
      "path"; "cycle"; "star"; "wheel"; "complete"; "binary-tree"; "grid2d"; "torus2d";
      "torus3d"; "hypercube"; "lollipop"; "barbell"; "ladder"; "petersen"; "ccc"; "broom";
    ]

let test_by_name_unknown () =
  let rng = Rng.create 8 in
  Alcotest.check_raises "unknown family" (Invalid_argument "Gen.by_name: unknown family \"nope\"")
    (fun () -> ignore (Gen.by_name "nope" ~n:10 rng))

let test_generator_errors () =
  Alcotest.check_raises "cycle too small" (Invalid_argument "Gen.cycle: n must be >= 3")
    (fun () -> ignore (Gen.cycle 2));
  Alcotest.check_raises "hypercube dim" (Invalid_argument "Gen.hypercube: dimension must be >= 1")
    (fun () -> ignore (Gen.hypercube 0));
  Alcotest.check_raises "lollipop tail" (Invalid_argument "Gen.lollipop: tail must be >= 1")
    (fun () -> ignore (Gen.lollipop ~clique:4 ~tail:0))

(* Random trees are uniform over labelled trees; at least check the
   degree distribution is non-degenerate (leaves exist, max degree
   varies). *)
let tree_leaf_test =
  QCheck2.Test.make ~name:"random trees have leaves" ~count:50 QCheck2.Gen.(int_range 3 60)
    (fun n ->
      let g = Gen.random_tree ~n (Rng.create n) in
      let leaves = ref 0 in
      for u = 0 to n - 1 do
        if Graph.degree g u = 1 then incr leaves
      done;
      !leaves >= 2)

let regular_switch_preserves_test =
  QCheck2.Test.make ~name:"random_regular always simple r-regular" ~count:25
    QCheck2.Gen.(pair (int_range 8 40) (int_range 3 6))
    (fun (n, r) ->
      let n = if n * r mod 2 = 1 then n + 1 else n in
      let g = Gen.random_regular ~n ~r ~ensure_connected:false (Rng.create (n + r)) in
      Graph.is_regular g && Graph.max_degree g = r && Graph.n g = n)

(* The slot-table generator against the Hashtbl one it replaced
   ([Regular_oracle]): the same draws and accept/reject decisions, so
   the same edge list in the same order, and the same failure when no
   connected sample is reached (r = 1 never connects n > 2). *)
let regular_matches_oracle_test =
  let outcome f =
    match f () with
    | g -> Ok (Graph.edges g, List.init (Graph.n g) (Graph.neighbors g))
    | exception (Failure msg | Invalid_argument msg) -> Error msg
  in
  QCheck2.Test.make ~name:"random_regular equals the Hashtbl oracle" ~count:200
    QCheck2.Gen.(tup5 (int_range 2 60) (int_range 1 9) (int_bound 10_000) (int_range 0 40) bool)
    (fun (n, r, seed, switches_per_edge, ensure_connected) ->
      let r = min r (n - 1) in
      let n = if n * r mod 2 = 1 then n + 1 else n in
      outcome (fun () ->
          Gen.random_regular ~n ~r ~switches_per_edge ~ensure_connected (Rng.create seed))
      = outcome (fun () ->
          Regular_oracle.random_regular ~n ~r ~switches_per_edge ~ensure_connected
            (Rng.create seed)))

let () =
  Alcotest.run "gen"
    [
      ( "deterministic families",
        [
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "wheel" `Quick test_wheel;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "lollipop" `Quick test_lollipop;
          Alcotest.test_case "barbell" `Quick test_barbell;
          Alcotest.test_case "ladder" `Quick test_ladder;
          Alcotest.test_case "petersen" `Quick test_petersen;
        ] );
      ( "random families",
        [
          Alcotest.test_case "gnp extremes" `Quick test_gnp_extremes;
          Alcotest.test_case "gnp density" `Quick test_gnp_density;
          Alcotest.test_case "connected gnp" `Quick test_connected_gnp;
          Alcotest.test_case "random regular valid" `Quick test_random_regular_validity;
          Alcotest.test_case "random regular randomises" `Quick test_random_regular_randomises;
          Alcotest.test_case "random regular errors" `Quick test_random_regular_errors;
          Alcotest.test_case "random regular switches allocate nothing" `Quick
            test_random_regular_switches_allocate_nothing;
          Alcotest.test_case "random regular allocates little" `Quick
            test_random_regular_allocates_little;
          Alcotest.test_case "random tree" `Quick test_random_tree;
        ] );
      ( "gen_extra",
        [
          Alcotest.test_case "cartesian products" `Quick test_cartesian_product_known;
          Alcotest.test_case "cycle+matching" `Quick test_cycle_plus_matching;
          Alcotest.test_case "cycle+matching expands" `Quick test_cycle_plus_matching_expands;
          Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "cube-connected cycles" `Quick test_cube_connected_cycles;
          Alcotest.test_case "caterpillar/broom" `Quick test_caterpillar_and_broom;
          QCheck_alcotest.to_alcotest product_regularity_property;
        ] );
      ( "registry",
        [
          Alcotest.test_case "by_name all" `Quick test_by_name_all_families;
          Alcotest.test_case "seed-free families allocate little" `Quick
            test_seed_free_families_allocate_little;
          Alcotest.test_case "by_name unknown" `Quick test_by_name_unknown;
          Alcotest.test_case "generator errors" `Quick test_generator_errors;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest tree_leaf_test;
          QCheck_alcotest.to_alcotest regular_switch_preserves_test;
          QCheck_alcotest.to_alcotest regular_matches_oracle_test;
        ] );
    ]
