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
  let ctx = Process.make_keyed_ctx g ~master:3 in
  let current = Bitset.create n and next = Bitset.create n in
  for v = 0 to (n / 2) - 1 do
    Bitset.add current (v * 2)
  done;
  Process.bips_step_keyed g ctx ~round:1 ~branching:(Process.Fixed 2) ~lazy_:false ~source:0
    ~current ~next;
  (* Half the graph infected on an 8-regular expander: most vertices
     have infected neighbours, so the next set stays large. *)
  check_bool "next set large" true (Bitset.cardinal next > n / 3)

let test_bfs_and_spectral_at_scale () =
  let g = Lazy.force big_graph in
  let d = Props.bfs_distances g 0 in
  check_bool "finite distances" true (Array.for_all (fun x -> x >= 0) d);
  check_bool "small diameter estimate" true (Props.diameter_lower_bound g <= 12);
  (* Lanczos with a loose tolerance is fast even at n=20k. *)
  let lambda = (Cobra_spectral.Eigen.spectrum ~tol:1e-4 ~max_iter:2_000 g).lambda in
  check_bool (Printf.sprintf "expander lambda %.3f" lambda) true (lambda > 0.3 && lambda < 0.9)

let test_walk_cover_at_scale () =
  (* b = 1 walk on K_n at n=20k: coupon collector, ~ n ln n ~ 2e5 steps. *)
  let g = Gen.complete 2000 in
  match Cobra_core.Walk.cover_time g (Rng.create 4) ~start:0 () with
  | Some steps -> check_bool "order n log n" true (steps > 2000 && steps < 200_000)
  | None -> Alcotest.fail "walk censored"

(* A power-law sample with thousands of components, shared by the
   n = 10^6 cases. *)
let chung_lu = lazy (Cobra_graph.Chung_lu.power_law ~n:1_000_000 ~exponent:2.5 (Rng.create 5))

(* Component labelling: one BFS per component over n-arrays is O(k n),
   minutes at this size.  The labels are checked against the structure
   directly, and their count against an independent union-find. *)
let test_components_at_scale () =
  let g = Lazy.force chung_lu in
  let n = Graph.n g in
  let labels, k = Props.components g in
  check_bool "several components" true (k > 1);
  Graph.iter_edges g (fun u v ->
      if labels.(u) <> labels.(v) then Alcotest.failf "edge %d-%d joins two labels" u v);
  let sizes = Array.make k 0 in
  let next_new = ref 0 in
  Array.iter
    (fun l ->
      if l < 0 || l >= k then Alcotest.failf "label %d outside [0, %d)" l k;
      if sizes.(l) = 0 then begin
        if l <> !next_new then Alcotest.failf "label %d first seen before %d" l !next_new;
        incr next_new
      end;
      sizes.(l) <- sizes.(l) + 1)
    labels;
  check_int "sizes sum to n" n (Array.fold_left ( + ) 0 sizes);
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let roots = ref n in
  Graph.iter_edges g (fun u v ->
      let ru = find u and rv = find v in
      if ru <> rv then begin
        parent.(ru) <- rv;
        decr roots
      end);
  check_int "k = union-find count" !roots k

(* A million one-vertex levels: a search that did work proportional to
   n on every level, even n/63 words of a bitset, would take minutes. *)
let test_path_sweep_at_scale () =
  let g = Gen.path 1_000_000 in
  check_int "start heuristic" 0 (Cobra_core.Estimate.start_heuristic g);
  check_int "diameter lower bound" 999_999 (Props.diameter_lower_bound g)

(* The skewed-degree sample switches direction between levels; the
   result must still be the queue BFS's. *)
let test_sweep_vs_oracle_at_scale () =
  let g = Lazy.force chung_lu in
  check_bool "bfs_distances from 0" true (Props.bfs_distances g 0 = Bfs_oracle.bfs_distances g 0);
  Alcotest.(check (pair int int)) "double sweep" (Bfs_oracle.double_sweep g) (Props.double_sweep g)

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
      ( "n = 10^6",
        [
          Alcotest.test_case "chung-lu components" `Slow test_components_at_scale;
          Alcotest.test_case "path double sweep" `Slow test_path_sweep_at_scale;
          Alcotest.test_case "chung-lu sweeps vs oracle" `Slow test_sweep_vs_oracle_at_scale;
        ] );
    ]
