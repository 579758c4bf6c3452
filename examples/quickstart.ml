(* Quickstart: build a graph, run one COBRA process, estimate its cover
   time, and compare with the paper's Theorem 1.1 bound.

   Run with:  dune exec examples/quickstart.exe *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Rng = Cobra_prng.Rng

let () =
  (* A 512-vertex hypercube-like expander: random 8-regular graph. *)
  let rng = Rng.create 42 in
  let g = Gen.random_regular ~n:512 ~r:8 rng in
  Format.printf "graph: %a@." Graph.pp_stats g;

  (* One COBRA run, watching the informed set grow. *)
  (match Cobra_core.Cobra.run_cover_detailed g rng ~start:0 () with
  | Some run ->
      Format.printf "one COBRA run covered the graph in %d rounds (%d transmissions)@."
        run.rounds run.transmissions;
      Format.printf "informed-set growth:";
      Array.iteri
        (fun t size -> if t mod 2 = 0 then Format.printf " %d:%d" t size)
        run.visited_sizes;
      Format.printf "@."
  | None -> Format.printf "COBRA run hit the round cap (should not happen here)@.");

  (* Monte-Carlo estimate of the cover time, in parallel. *)
  Cobra_parallel.Pool.with_pool (fun pool ->
      let est =
        Cobra_core.Estimate.cover_time ~pool ~master_seed:7 ~trials:64 g
      in
      Format.printf "cover time over 64 trials: %a@." Cobra_stats.Summary.pp est.summary;

      (* Compare with the paper's bounds. *)
      let n = Graph.n g and m = Graph.m g in
      let lambda = (Cobra_spectral.Eigen.spectrum g).lambda in
      let general = Cobra_core.Bounds.this_paper_general ~n ~m ~dmax:(Graph.max_degree g) in
      let regular = Cobra_core.Bounds.this_paper_regular ~n ~r:8 ~lambda in
      let lower =
        Cobra_core.Bounds.lower_bound ~n ~diameter:(Props.diameter g)
      in
      Format.printf "lambda = %.4f (gap %.4f)@." lambda (1.0 -. lambda);
      Format.printf "bounds: lower %.1f <= measured %.1f <= thm1.2 %.1f <= thm1.1 %.1f@."
        lower est.summary.mean regular general)
