(* cobra-sim: Monte-Carlo COBRA cover-time experiments from the command
   line.

   Examples:
     cobra-sim --family hypercube -n 256 --trials 100
     cobra-sim --family lollipop -n 200 --rho 0.5 --trials 50 --histogram
     cobra-sim --graph my.graph --start 0 --lazy *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Process = Cobra_core.Process
module Estimate = Cobra_core.Estimate

open Cmdliner

let family_arg =
  let doc =
    "Graph family to generate. One of: " ^ String.concat ", " Gen.family_names ^ "."
  in
  Arg.(value & opt string "regular-8" & info [ "family" ] ~docv:"NAME" ~doc)

let graph_file_arg =
  let doc = "Read the graph from an edge-list file instead of generating one." in
  Arg.(value & opt (some file) None & info [ "graph" ] ~docv:"FILE" ~doc)

let n_arg =
  let doc = "Target vertex count for generated families." in
  Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc)

let trials_arg =
  let doc = "Number of Monte-Carlo trials." in
  Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T" ~doc)

let seed_arg =
  let doc = "Master seed (results are a deterministic function of it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let b_arg =
  let doc = "Integer branching factor b (ignored when --rho is given)." in
  Arg.(value & opt int 2 & info [ "b" ] ~docv:"B" ~doc)

let rho_arg =
  let doc = "Fractional branching: expected factor 1 + RHO (Section 6 of the paper)." in
  Arg.(value & opt (some float) None & info [ "rho" ] ~docv:"RHO" ~doc)

let lazy_arg =
  let doc = "Use the lazy variant (each pick stays home with probability 1/2)." in
  Arg.(value & flag & info [ "lazy" ] ~doc)

let start_arg =
  let doc = "Start vertex (default: a diametral vertex found by double BFS sweep)." in
  Arg.(value & opt (some int) None & info [ "start" ] ~docv:"V" ~doc)

let max_rounds_arg =
  let doc = "Round cap per trial (default: scales with the graph)." in
  Arg.(value & opt (some int) None & info [ "max-rounds" ] ~docv:"R" ~doc)

let domains_arg =
  let doc = "Extra worker domains (default: cores - 1)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K" ~doc)

let histogram_arg =
  let doc = "Print an ASCII histogram of the per-trial cover times." in
  Arg.(value & flag & info [ "histogram" ] ~doc)

let load_graph family file n seed =
  match file with
  | Some path -> Cobra_graph.Graph_io.read_file path
  | None -> Gen.by_name family ~n (Cobra_prng.Rng.create seed)

let run family file n trials seed b rho lazy_ start max_rounds domains histogram =
  let g = load_graph family file n seed in
  let branching =
    match rho with Some r -> Process.Bernoulli r | None -> Process.Fixed b
  in
  Process.validate_branching branching;
  (* One double sweep gives the header's diameter bound and the default
     start vertex, which is what Estimate.start_heuristic would pick. *)
  let far, diameter_lb = Props.double_sweep g in
  let start = Option.value start ~default:far in
  Format.printf "graph: %a, diameter >= %d@." Graph.pp_stats g diameter_lb;
  Format.printf "process: COBRA E[b] = %g%s, %d trials, seed %d@."
    (Process.expected_branching_factor branching)
    (if lazy_ then " (lazy)" else "")
    trials seed;
  Cobra_parallel.Pool.with_pool ?num_domains:domains (fun pool ->
      let est =
        Estimate.cover_time ~pool ~master_seed:seed ~trials ~branching ~lazy_ ?max_rounds ~start g
      in
      if est.censored > 0 then
        Format.printf "WARNING: %d/%d trials hit the round cap and are excluded@." est.censored
          trials;
      Format.printf "cover time: %a@." Cobra_stats.Summary.pp est.summary;
      Format.printf "median %.1f, q90 %.1f@." est.median est.q90;
      if not (Float.is_nan est.mean_transmissions) then
        Format.printf "mean transmissions per run: %.0f (%.2f per vertex)@."
          est.mean_transmissions
          (est.mean_transmissions /. float_of_int (Graph.n g));
      if histogram && est.summary.count > 1 then begin
        (* Re-run the estimate's trials (same per-trial streams, so the
           same values) to collect them for the histogram. *)
        let raw =
          Cobra_parallel.Montecarlo.run ~pool ~master_seed:seed ~trials (fun ~trial:_ rng ->
              match Cobra_core.Cobra.run_cover g rng ~branching ~lazy_ ?max_rounds ~start () with
              | Some r -> float_of_int r
              | None -> nan)
        in
        let finite = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list raw)) in
        if Array.length finite > 0 then
          print_string (Cobra_stats.Histogram.render (Cobra_stats.Histogram.of_array finite))
      end)

let cmd =
  let doc = "Estimate COBRA cover times on generated or loaded graphs" in
  let term =
    Term.(
      const run $ family_arg $ graph_file_arg $ n_arg $ trials_arg $ seed_arg $ b_arg $ rho_arg
      $ lazy_arg $ start_arg $ max_rounds_arg $ domains_arg $ histogram_arg)
  in
  Cmd.v (Cmd.info "cobra-sim" ~version:"1.0.0" ~doc) term

let () = exit (Cli.eval cmd)
