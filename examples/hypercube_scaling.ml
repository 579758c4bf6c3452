(* Hypercube scaling — the paper's running example.

   The SPAA'17 paper highlights the hypercube: n = 2^d vertices, degree
   r = log2 n, conductance and (lazy) eigenvalue gap Theta(1/log n).
   Successive papers give cover-time bounds O(log^8 n) (SPAA'16),
   O(log^4 n) (PODC'16) and O(log^3 n) (this paper), while the truth is
   conjectured to be Theta(log n).

   This example measures lazy-COBRA cover times over a dimension sweep,
   prints them against all three bound formulas, and fits the poly-log
   growth exponent.

   Run with:  dune exec examples/hypercube_scaling.exe *)

module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Eigen = Cobra_spectral.Eigen
module Bounds = Cobra_core.Bounds
module Estimate = Cobra_core.Estimate
module Regress = Cobra_stats.Regress
module Table = Cobra_stats.Table

let () =
  Cobra_parallel.Pool.with_pool (fun pool ->
      let dims = [ 4; 5; 6; 7; 8; 9; 10 ] in
      let trials = 32 in
      let t =
        Table.create
          [
            ("d", Table.Right); ("n", Table.Right); ("measured", Table.Right);
            ("O(log^3 n)", Table.Right); ("O(log^4 n)", Table.Right);
            ("O(log^8 n)", Table.Right);
          ]
      in
      let points = ref [] in
      List.iter
        (fun d ->
          let g = Gen.hypercube d in
          let n = Graph.n g in
          let gap = 1.0 -. (Eigen.spectrum g).lazy_lambda in
          let est = Estimate.cover_time ~pool ~master_seed:42 ~trials ~lazy_:true ~start:0 g in
          points := (float_of_int n, est.summary.mean) :: !points;
          Table.add_row t
            [
              string_of_int d; string_of_int n; Printf.sprintf "%.1f" est.summary.mean;
              Table.cell_f (Bounds.this_paper_regular ~n ~r:d ~lambda:(1.0 -. gap));
              Table.cell_f (Bounds.podc16_regular ~n ~lambda:(1.0 -. gap));
              Table.cell_f (Bounds.spaa16_regular ~n ~r:d ~phi:(1.0 /. float_of_int d));
            ])
        dims;
      print_string (Table.render t);
      let ns = Array.of_list (List.rev_map fst !points) in
      let ys = Array.of_list (List.rev_map snd !points) in
      let fit = Regress.fit_exponent_vs_log ns ys in
      Printf.printf
        "\nmeasured cover time grows like log^%.2f n (R^2 = %.3f)\n\
         paper's bound: log^3 n; conjectured truth: log n\n"
        fit.slope fit.r2)
