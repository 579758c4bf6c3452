(* bips-sim: BIPS infection-time experiments, with optional trajectory
   and phase reporting.

   Examples:
     bips-sim --family regular-8 -n 512 --trials 100
     bips-sim --family hypercube -n 256 --trajectory
     bips-sim --family torus2d -n 400 --phases *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Process = Cobra_core.Process
module Bips = Cobra_core.Bips
module Phases = Cobra_core.Phases

open Cmdliner

let family_arg =
  let doc = "Graph family. One of: " ^ String.concat ", " Gen.family_names ^ "." in
  Arg.(value & opt string "regular-8" & info [ "family" ] ~docv:"NAME" ~doc)

let graph_file_arg =
  let doc = "Read the graph from an edge-list file." in
  Arg.(value & opt (some file) None & info [ "graph" ] ~docv:"FILE" ~doc)

let n_arg = Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"Target vertex count.")
let trials_arg = Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let source_arg =
  let doc = "Persistent source vertex (default 0)." in
  Arg.(value & opt int 0 & info [ "source" ] ~docv:"V" ~doc)

let rho_arg =
  let doc = "Fractional branching 1 + RHO." in
  Arg.(value & opt (some float) None & info [ "rho" ] ~docv:"RHO" ~doc)

let lazy_arg = Arg.(value & flag & info [ "lazy" ] ~doc:"Lazy neighbour selection.")

let trajectory_arg =
  let doc = "Print one sample trajectory: infected and candidate set sizes per round." in
  Arg.(value & flag & info [ "trajectory" ] ~doc)

let phases_arg =
  let doc = "Decompose trials into start/bulk/tail phases (Sections 4-5 of the paper)." in
  Arg.(value & flag & info [ "phases" ] ~doc)

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K" ~doc:"Extra worker domains.")

let run family file n trials seed source rho lazy_ trajectory phases domains =
  let g =
    match file with
    | Some path -> Cobra_graph.Graph_io.read_file path
    | None -> Gen.by_name family ~n (Cobra_prng.Rng.create seed)
  in
  let branching = match rho with Some r -> Process.Bernoulli r | None -> Process.Fixed 2 in
  Format.printf "graph: %a@." Graph.pp_stats g;
  let lambda = (Cobra_spectral.Eigen.spectrum g).lambda in
  Format.printf "lambda = %.4f (gap %.4f)%s@." lambda (1.0 -. lambda)
    (if lambda >= 0.9999 then "  [degenerate: bipartite or disconnected]" else "");
  Cobra_parallel.Pool.with_pool ?num_domains:domains (fun pool ->
      let est =
        Cobra_core.Estimate.infection_time ~pool ~master_seed:seed ~trials ~branching ~lazy_
          ~source g
      in
      if est.censored > 0 then
        Format.printf "WARNING: %d/%d trials hit the round cap@." est.censored trials;
      Format.printf "infection time: %a@." Cobra_stats.Summary.pp est.summary;
      Format.printf "median %.1f, q90 %.1f@." est.median est.q90;

      if trajectory then begin
        let rng = Cobra_prng.Rng.create (seed + 1) in
        match Bips.run_trajectory g rng ~branching ~lazy_ ~source () with
        | Some t ->
            Format.printf "@.sample trajectory (round: |A_t| / |C_{t+1}|):@.";
            Array.iteri
              (fun i size ->
                if i < Array.length t.candidate_sizes then
                  Format.printf "  %4d: %6d / %d@." i size t.candidate_sizes.(i)
                else Format.printf "  %4d: %6d@." i size)
              t.sizes
        | None -> Format.printf "trajectory run hit the round cap@."
      end;

      if phases then begin
        let threshold = Phases.default_small_threshold ~n:(Graph.n g) ~lambda in
        let splits =
          Cobra_parallel.Montecarlo.run ~pool ~master_seed:(seed + 2) ~trials (fun ~trial rng ->
              ignore trial;
              match Bips.run_trajectory g rng ~branching ~lazy_ ~source () with
              | Some t ->
                  Some (Phases.split ~n:(Graph.n g) ~small_threshold:threshold ~sizes:t.sizes)
              | None -> None)
        in
        match List.filter_map Fun.id (Array.to_list splits) with
        | [] -> Format.printf "no completed trajectories to decompose@."
        | completed ->
            let start, bulk, tail = Phases.mean_splits completed in
            Format.printf
              "@.phase means over %d runs (threshold |A| >= %d):@.  start %.1f, bulk %.1f, tail %.1f rounds@."
              (List.length completed) threshold start bulk tail
      end)

let cmd =
  let doc = "Estimate BIPS infection times and inspect infection growth" in
  let term =
    Term.(
      const run $ family_arg $ graph_file_arg $ n_arg $ trials_arg $ seed_arg $ source_arg
      $ rho_arg $ lazy_arg $ trajectory_arg $ phases_arg $ domains_arg)
  in
  Cmd.v (Cmd.info "bips-sim" ~version:"1.0.0" ~doc) term

let () = exit (Cli.eval cmd)
