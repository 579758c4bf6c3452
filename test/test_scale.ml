(* Scale smoke tests: the engines must handle five-digit vertex counts
   comfortably (the bitset representation and CSR layout exist for
   this).  Kept under ~10 seconds total. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let n = 20_000

let big_graph =
  lazy (Gen.random_regular ~n ~r:8 ~switches_per_edge:5 (Rng.create 1))

let test_generation () =
  let g = Lazy.force big_graph in
  check_int "n" n (Graph.n g);
  check_int "m" (n * 4) (Graph.m g);
  check_bool "8-regular" true (Graph.is_regular g && Graph.max_degree g = 8);
  check_bool "connected" true (Props.is_connected g)

let test_cover_at_scale () =
  let g = Lazy.force big_graph in
  match Cobra_core.Cobra.run_cover g (Rng.create 2) ~start:0 () with
  | Some rounds ->
      (* log2(20000) ~ 14.3; an expander covers in O(log n). *)
      check_bool (Printf.sprintf "covered in %d rounds" rounds) true
        (rounds >= 15 && rounds <= 60)
  | None -> Alcotest.fail "censored at scale"

let test_bips_round_at_scale () =
  let g = Lazy.force big_graph in
  let rng = Rng.create 3 in
  let current = Bitset.create n and next = Bitset.create n in
  for v = 0 to (n / 2) - 1 do
    Bitset.add current (v * 2)
  done;
  Process.bips_step g rng ~branching:(Process.Fixed 2) ~lazy_:false ~source:0 ~current ~next;
  (* Half the graph infected on an 8-regular expander: most vertices
     have infected neighbours, so the next set stays large. *)
  check_bool "next set large" true (Bitset.cardinal next > n / 3)

let test_bfs_and_spectral_at_scale () =
  let g = Lazy.force big_graph in
  let d = Props.bfs_distances g 0 in
  check_bool "finite distances" true (Array.for_all (fun x -> x >= 0) d);
  check_bool "small diameter estimate" true (Props.diameter_lower_bound g <= 12);
  (* Lanczos with a loose tolerance is fast even at n=20k. *)
  let lambda = Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-4 ~max_iter:2_000 g in
  check_bool (Printf.sprintf "expander lambda %.3f" lambda) true (lambda > 0.3 && lambda < 0.9)

let test_walk_cover_at_scale () =
  (* b = 1 walk on K_n at n=20k: coupon collector, ~ n ln n ~ 2e5 steps. *)
  let g = Gen.complete 2000 in
  match Cobra_core.Walk.cover_time g (Rng.create 4) ~start:0 () with
  | Some steps -> check_bool "order n log n" true (steps > 2000 && steps < 200_000)
  | None -> Alcotest.fail "walk censored"

let () =
  Alcotest.run "scale"
    [
      ( "n = 20k",
        [
          Alcotest.test_case "generation" `Slow test_generation;
          Alcotest.test_case "cobra cover" `Slow test_cover_at_scale;
          Alcotest.test_case "bips round" `Slow test_bips_round_at_scale;
          Alcotest.test_case "bfs + spectral" `Slow test_bfs_and_spectral_at_scale;
          Alcotest.test_case "walk cover" `Slow test_walk_cover_at_scale;
        ] );
    ]
