(* cobra-graph-tool: generate, inspect, ingest and export graphs.

   Examples:
     cobra-graph-tool gen --family hypercube -n 256 -o cube.graph
     cobra-graph-tool info cube.graph
     cobra-graph-tool info --family lollipop -n 100 --spectral
     cobra-graph-tool dot --family petersen -n 10
     cobra-graph-tool generate --family chunglu:2.5 -n 100000 --format snap -o web.snap
     cat web.snap | cobra-graph-tool ingest -
     cobra-graph-tool ingest soc-LiveJournal.txt --remap -o lj.graph
     cobra-graph-tool pack lj.graph -o lj.cgr --verify
     cobra-graph-tool info lj.cgr *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Props = Cobra_graph.Props
module Graph_io = Cobra_graph.Graph_io
module Eigen = Cobra_spectral.Eigen
module Conductance = Cobra_spectral.Conductance

open Cmdliner

let family_arg =
  let doc = "Graph family. One of: " ^ String.concat ", " Gen.family_names ^ "." in
  Arg.(value & opt string "regular-8" & info [ "family" ] ~docv:"NAME" ~doc)

let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Target vertex count.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let file_pos =
  let doc = "Edge-list file to read (generated family used when omitted)." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let output_arg =
  let doc = "Output path (stdout when omitted)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let spectral_arg =
  let doc = "Also compute lambda, the lazy gap and a conductance estimate." in
  Arg.(value & flag & info [ "spectral" ] ~doc)

let obtain file family n seed =
  match file with
  | Some path -> Graph_io.read_file path
  | None -> Gen.by_name family ~n (Cobra_prng.Rng.create seed)

let emit output text =
  match output with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Printf.printf "wrote %s\n" path

(* A [-o whatever.cgr] means the packed binary format regardless of the
   subcommand's text format flags; [Graph_io.write_file] dispatches. *)
let is_cgr_output = function Some path -> Filename.check_suffix path ".cgr" | None -> false

let gen_cmd =
  let run family n seed output =
    let g = Gen.by_name family ~n (Cobra_prng.Rng.create seed) in
    if is_cgr_output output then begin
      let path = Option.get output in
      Graph_io.write_file path g;
      Printf.printf "wrote %s\n" path
    end
    else emit output (Graph_io.to_string g)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph and write it as an edge list (or .cgr binary)")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ output_arg)

let info_cmd =
  let run file family n seed spectral =
    let g = obtain file family n seed in
    Format.printf "%a@." Graph.pp_stats g;
    Format.printf "storage: packed int32, %d bytes (%.2f bytes/entry)@."
      (Graph.storage_bytes g)
      (float_of_int (Graph.storage_bytes g) /. float_of_int (max 1 (2 * Graph.m g)));
    let connected = Props.is_connected g in
    Format.printf "connected: %b, bipartite: %b@." connected (Props.is_bipartite g);
    if connected && Graph.n g > 1 then begin
      if Graph.n g <= 4096 then Format.printf "diameter: %d@." (Props.diameter g)
      else Format.printf "diameter: >= %d (double sweep)@." (Props.diameter_lower_bound g);
      Format.printf "average degree: %.2f@." (Props.average_degree g);
      let hist = Props.degree_histogram g in
      if List.length hist <= 12 then begin
        Format.printf "degree histogram:";
        List.iter (fun (d, c) -> Format.printf " %d:%d" d c) hist;
        Format.printf "@."
      end;
      if spectral then begin
        let lambda = Eigen.second_eigenvalue g in
        Format.printf "lambda (abs 2nd eigenvalue of P): %.6f, gap: %.6f@." lambda
          (1.0 -. lambda);
        Format.printf "lazy lambda: %.6f, lazy gap: %.6f@."
          (Eigen.lazy_second_eigenvalue g) (Eigen.lazy_eigenvalue_gap g);
        let phi_upper = Conductance.sweep_upper_bound g in
        Format.printf "conductance: <= %.6f (sweep cut)" phi_upper;
        if Graph.n g <= 20 then Format.printf ", = %.6f (exact)" (Conductance.exact g);
        Format.printf "@.";
        if Graph.n g <= 1024 then begin
          (match Cobra_spectral.Mixing.mixing_time ~lazy_:true g with
          | Some t -> Format.printf "lazy mixing time (TV <= 1/4): %d rounds@." t
          | None -> Format.printf "lazy mixing time: did not mix within the cap@.");
          if Graph.n g <= 512 then
            Format.printf "max hitting time (walk): %.1f; Matthews cover bound: %.1f@."
              (Cobra_core.Walk_theory.max_hitting_time g)
              (Cobra_core.Walk_theory.matthews_upper g)
        end
      end
    end
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print structural (and optionally spectral) statistics")
    Term.(const run $ file_pos $ family_arg $ n_arg $ seed_arg $ spectral_arg)

let dot_cmd =
  let run file family n seed output =
    let g = obtain file family n seed in
    emit output (Graph_io.to_dot g)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a graph in Graphviz DOT format")
    Term.(const run $ file_pos $ family_arg $ n_arg $ seed_arg $ output_arg)

(* --- Degree-distribution stats shared by ingest/generate ---

   Everything printed here is a pure function of the graph, so two
   ingestion paths that build the same CSR print byte-identical blocks —
   the property the CI parity check diffs. *)
let print_degree_stats ppf g =
  let n = Graph.n g in
  Format.fprintf ppf "n=%d m=%d@." n (Graph.m g);
  Format.fprintf ppf "degree: min=%d max=%d avg=%.4f@." (Graph.min_degree g)
    (Graph.max_degree g) (Props.average_degree g);
  if n > 0 then begin
    let degs = Array.init n (Graph.degree g) in
    Array.sort Int.compare degs;
    let pct p = degs.(min (n - 1) (int_of_float (float_of_int n *. p))) in
    Format.fprintf ppf "degree percentiles: p50=%d p90=%d p99=%d@." (pct 0.5) (pct 0.9)
      (pct 0.99);
    (match Props.degree_tail_exponent g with
    | Some gamma -> Format.fprintf ppf "tail exponent (CCDF fit): %.3f@." gamma
    | None -> Format.fprintf ppf "tail exponent (CCDF fit): n/a@.");
    let hist = Props.degree_histogram g in
    if List.length hist <= 12 then begin
      Format.fprintf ppf "degree histogram:";
      List.iter (fun (d, c) -> Format.fprintf ppf " %d:%d" d c) hist;
      Format.fprintf ppf "@."
    end
  end;
  let labels, k = Props.components g in
  ignore labels;
  Format.fprintf ppf "components: %d@." k

let input_format_arg =
  let formats = [ ("snap", `Snap); ("cobra", `Cobra) ] in
  let doc = "Input format: $(b,snap) (header-less edge list) or $(b,cobra) (native header)." in
  Arg.(value & opt (enum formats) `Snap & info [ "format" ] ~docv:"FMT" ~doc)

let ingest_pos =
  let doc = "Edge-list file to ingest; $(b,-) reads standard input (pipes work)." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let remap_arg =
  let doc = "Renumber sparse/non-contiguous vertex ids densely in first-seen order." in
  Arg.(value & flag & info [ "remap" ] ~doc)

let strict_arg =
  let doc = "Fail on self-loop lines instead of dropping them (SNAP input only)." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let giant_arg =
  let doc = "Keep only the largest connected component (renumbered densely)." in
  Arg.(value & flag & info [ "giant" ] ~doc)

let with_input file f =
  if file = "-" then f stdin
  else begin
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
  end

let ingest_cmd =
  let run file format remap strict giant output =
    let timer = Cobra_obs.Timer.start () in
    let g, stats =
      with_input file (fun ic ->
          match format with
          | `Snap ->
              let g, s = Graph_io.read_stream_stats ~remap ~drop_self_loops:(not strict) ic in
              (g, Some s)
          | `Cobra -> (Graph_io.read_channel ic, None))
    in
    let g = if giant then Props.largest_component g else g in
    let elapsed = Cobra_obs.Timer.elapsed_s timer in
    (* Graph-derived stats to stdout (deterministic, diffable);
       ingestion accounting and throughput to stderr. *)
    print_degree_stats Format.std_formatter g;
    (match stats with
    | Some s ->
        Printf.eprintf "ingest: %d edge lines, %d comments, %d self-loops dropped%s\n"
          s.Graph_io.edge_lines s.Graph_io.comments s.Graph_io.self_loops
          (if remap then Printf.sprintf ", %d ids remapped" s.Graph_io.remapped_ids else "")
    | None -> ());
    Printf.eprintf "ingest: %d edges in %.3fs (%.2f Medges/s)\n" (Graph.m g) elapsed
      (if elapsed > 0.0 then float_of_int (Graph.m g) /. elapsed /. 1e6 else 0.0);
    match output with
    | None -> ()
    | Some path ->
        Graph_io.write_file path g;
        Printf.eprintf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Stream an edge list (file or pipe) into a CSR graph and report stats")
    Term.(
      const run $ ingest_pos $ input_format_arg $ remap_arg $ strict_arg
      $ giant_arg $ output_arg)

let pack_cmd =
  let out_arg =
    let doc = "Output .cgr path." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.cgr" ~doc)
  in
  let verify_arg =
    let doc = "Reload the written file through both the eager and the mmap loader and \
               check the CSR round-trips exactly." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run file family n seed output verify =
    let g = obtain file family n seed in
    let timer = Cobra_obs.Timer.start () in
    Cobra_graph.Cgr.write output g;
    let write_s = Cobra_obs.Timer.elapsed_s timer in
    let entries = Graph.n g + 1 + (2 * Graph.m g) in
    Printf.printf "wrote %s: n=%d m=%d, %d bytes (%.2f bytes/entry) in %.3fs\n" output
      (Graph.n g) (Graph.m g)
      (32 + (4 * entries))
      (float_of_int (32 + (4 * entries)) /. float_of_int (max 1 (2 * Graph.m g)))
      write_s;
    if verify then begin
      let same h =
        Graph.n h = Graph.n g
        && Graph.m h = Graph.m g
        && Graph.csr_offsets h = Graph.csr_offsets g
        && Graph.csr_adjacency h = Graph.csr_adjacency g
      in
      let eager = Cobra_graph.Cgr.read_eager output in
      let mapped = Cobra_graph.Cgr.read_mmap output in
      if same eager && same mapped then Printf.printf "verify: eager and mmap reload OK\n"
      else begin
        Printf.eprintf "verify: reload does NOT match the source graph\n";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Pack a graph (edge-list file, .cgr file, or generated family) into the .cgr \
          binary format: int32 CSR, mmap-openable in O(1)")
    Term.(const run $ file_pos $ family_arg $ n_arg $ seed_arg $ out_arg $ verify_arg)

let output_format_arg =
  let formats = [ ("cobra", `Cobra); ("snap", `Snap); ("dot", `Dot) ] in
  let doc = "Output format: $(b,cobra) (native), $(b,snap) (header-less) or $(b,dot)." in
  Arg.(value & opt (enum formats) `Cobra & info [ "format" ] ~docv:"FMT" ~doc)

let stats_arg =
  let doc = "Also print degree-distribution statistics (to stderr)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let generate_cmd =
  let run family n seed format stats output =
    let g = Gen.by_name family ~n (Cobra_prng.Rng.create seed) in
    if is_cgr_output output then begin
      let path = Option.get output in
      Graph_io.write_file path g;
      Printf.printf "wrote %s\n" path
    end
    else begin
      let text =
        match format with
        | `Cobra -> Graph_io.to_string g
        | `Snap -> Graph_io.to_snap ~comment:(Printf.sprintf "%s n=%d seed=%d" family n seed) g
        | `Dot -> Graph_io.to_dot g
      in
      emit output text
    end;
    if stats then print_degree_stats Format.err_formatter g
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a graph family (including parameterized chunglu:/config:/ba: power-law \
          families) in cobra, snap or dot format")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ output_format_arg $ stats_arg $ output_arg)

let tol_arg =
  Arg.(value & opt float 1e-10 & info [ "tol" ] ~docv:"TOL" ~doc:"Lanczos residual tolerance.")

let threads_arg =
  let doc = "Extra domains sharding the matrix-vector products (0 = serial)." in
  Arg.(value & opt int 0 & info [ "threads" ] ~docv:"K" ~doc)

let spectral_cmd =
  let run file family n seed tol threads =
    let g = obtain file family n seed in
    Format.printf "%a@." Graph.pp_stats g;
    if not (Props.is_connected g) then begin
      Format.printf "graph is disconnected: lambda = 1 (no spectral mixing)@.";
      exit 1
    end;
    Cobra_parallel.Pool.with_pool ~num_domains:threads (fun pool ->
        let obs = Cobra_obs.Obs.create () in
        (* lambda_2 (signed) and its eigenvector drive everything else:
           lambda needs one more solve for the bottom end, the lazy
           quantities are arithmetic on lambda_2, the sweep cut reuses
           the vector. *)
        (match Eigen.second_eigenvalue_r ~obs ~tol ~pool g with
        | Ok lambda ->
            Format.printf "lambda (abs 2nd eigenvalue of P): %.10f, gap: %.6g@." lambda
              (1.0 -. lambda)
        | Error nc ->
            Format.printf
              "lambda: NOT CONVERGED after %d iterations (%d matvecs): best %.10f, residual %.3g@."
              nc.Eigen.iterations nc.Eigen.matvecs nc.Eigen.best nc.Eigen.residual);
        let lambda2, v2 = Eigen.second_eigenvector ~obs ~tol ~pool g in
        Format.printf "lambda_2 (signed): %.10f@." lambda2;
        Format.printf "lazy lambda: %.10f, lazy gap: %.6g@."
          ((1.0 +. lambda2) /. 2.0)
          ((1.0 -. lambda2) /. 2.0);
        Format.printf "bipartite: %b@." (Props.is_bipartite g);
        let phi_upper = Conductance.sweep_of_vector g v2 in
        Format.printf "conductance: <= %.6f (sweep cut)" phi_upper;
        if Graph.n g <= 20 then Format.printf ", = %.6f (exact)" (Conductance.exact g);
        Format.printf "@.";
        Format.printf "solver telemetry:";
        List.iter
          (fun (name, view) ->
            match view with
            | Cobra_obs.Metrics.Counter_v v -> Format.printf " %s=%d" name v
            | Cobra_obs.Metrics.Gauge_v v -> Format.printf " %s=%.3g" name v
            | Cobra_obs.Metrics.Histogram_v _ -> ())
          (Cobra_obs.Metrics.snapshot (Cobra_obs.Obs.metrics obs));
        Format.printf "@.")
  in
  Cmd.v
    (Cmd.info "spectral"
       ~doc:"Eigenvalues, gaps and conductance, by deflated thick-restart Lanczos")
    Term.(const run $ file_pos $ family_arg $ n_arg $ seed_arg $ tol_arg $ threads_arg)

let main_cmd =
  let doc = "Generate and inspect the graph families used by the COBRA experiments" in
  Cmd.group
    (Cmd.info "cobra-graph-tool" ~version:"1.0.0" ~doc)
    [ gen_cmd; info_cmd; dot_cmd; spectral_cmd; ingest_cmd; generate_cmd; pack_cmd ]

let () = exit (Cli.eval main_cmd)
