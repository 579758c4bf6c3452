(* The benchmark: one workload per invocation.

     cobra_bench.exe --workload cover-cgr|experiments-full|serve-mixed
                     --seed N --seconds S --trace 0|1 --bound B
                     [--work-dir DIR] [--server-exe PATH]

   The seed is the only source of the workload's inputs.  With --trace 0
   the run measures the end-to-end metrics with tracing off; with
   --trace 1 it records spans around the benchmark's calls into each
   layer and reports the per-layer metrics, self times and the tracing
   overhead.  Every run checks the outputs it produced.  The last line
   of standard output is one JSON object: correct, attempted, failed and
   the metrics with their units.  --bound is the tolerance of the
   "auto-tuned step never loses" check (run.py passes the request_ms
   bound of BENCHMARK.json).  perfbench/run.py builds this program and
   runs it. *)

module Json = Cobra_obs.Json

let end_to_end =
  [ ("setup_s", "s"); ("request_ms", "ms"); ("tail_ms", "ms"); ("peak_rss_mb", "MB") ]

(* Per-layer metrics; a workload that does not exercise a layer reports
   0 for it (perfbench/layers.json says which workload moves which). *)
let per_layer =
  [
    ("workload.cover_auto_s", "s"); ("workload.round_ms", "ms");
    ("trace.overhead_cover_s", "s"); ("trace.overhead_tables_s", "s");
    ("trace.overhead_job_p50_ms", "ms");
    ("graph.generate_s", "s"); ("graph.cgr_write_s", "s"); ("graph.cgr_open_ms", "ms");
    ("graph.first_scan_s", "s"); ("graph.bytes_per_entry", "B");
    ("graph.job_generate_ms_p50", "ms");
    ("estimator.start_heuristic_s", "s"); ("estimator.trials", "count");
    ("estimator.censored", "count"); ("estimator.unaccounted_frac", "ratio");
    ("estimator.unaccounted_base_s", "s");
    ("trial.s_p50", "s"); ("trial.rounds_mean", "rounds"); ("trial.unaccounted_frac", "ratio");
    ("trial.unaccounted_base_s", "s");
    ("round.count", "count"); ("round.step_ms_p50", "ms"); ("round.step_frac", "ratio");
    ("round.union_ms_p50", "ms"); ("round.dense_frac", "ratio");
    ("round.frontier_mean", "vertices");
    ("round.transmissions_per_s", "1/s");
    ("phase.step_serial_ms", "ms"); ("phase.step_sharded_ms", "ms"); ("phase.step_auto_ms", "ms");
    ("phase.barrier_us", "us"); ("phase.merge_ms", "ms"); ("phase.draws_ms", "ms");
    ("phase.auto_vs_best", "ratio"); ("phase.sharded_vs_serial", "ratio");
    ("substrate.memcpy_gbps", "GB/s"); ("substrate.csr_scan_gbps", "GB/s");
    ("substrate.csr_scan_vs_memcpy", "ratio"); ("substrate.csr_vs_llc", "ratio");
    ("substrate.bitset_sweep_gbps", "GB/s"); ("substrate.keyed_draws_per_s", "1/s");
    ("montecarlo.trials", "count"); ("montecarlo.trial_ms_p50", "ms");
    ("montecarlo.trials_per_s", "1/s");
    ("spectral.solves", "count"); ("spectral.matvecs", "count"); ("walk.cg_iterations", "count");
  ]
  @ List.init 16 (fun i -> (Printf.sprintf "experiments.e%02d_s" (i + 1), "s"))
  @ [
      ("server.exec_ms_p50", "ms"); ("server.exec_ms_p99", "ms"); ("server.wait_ms_p99", "ms");
      ("server.ping_ms_p50", "ms"); ("server.cache_hit_frac", "ratio"); ("server.deduped", "count");
      ("server.overloaded", "count"); ("serve.gen_lag_ms_p99", "ms");
    ]

let usage () =
  prerr_endline
    "usage: cobra_bench.exe --workload cover-cgr|experiments-full|serve-mixed --seed N \
     --seconds S --trace 0|1 --bound B [--work-dir DIR] [--server-exe PATH]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg ?default name =
    match (Hashtbl.find_opt args name, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> usage ()
  in
  let num conv name ?default () =
    match conv (arg ?default name) with Some v -> v | None -> usage ()
  in
  let workload = arg "workload" in
  let seed = num int_of_string_opt "seed" () in
  let seconds = num float_of_string_opt "seconds" () in
  let trace =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let bound = num float_of_string_opt "bound" () in
  let work_dir = arg "work-dir" ~default:"perfbench/_work" in
  let server_exe = arg "server-exe" ~default:"_build/default/bin/cobra_serve.exe" in
  Util.mkdir_p work_dir;
  let workers = Util.nproc () in
  let llc = Util.llc_bytes () in
  let host =
    Json.Obj
      [
        ("nproc", Json.Int workers);
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("llc_bytes", Json.Int llc);
        ("memcpy_bytes", Json.Int (Util.memcpy_bytes llc));
        ("ocaml_version", Json.String Sys.ocaml_version);
        (* git would search the parent directories of a checkout that is
           not a repository itself. *)
        ( "git_revision",
          Json.String
            (if Sys.file_exists ".git" then Cobra_obs.Manifest.git_revision () else "none") );
        ("source_digest", Json.String (Util.source_digest ()));
      ]
  in
  Printf.printf "host %s\n%!" (Json.to_string host);
  let out, spans =
    match workload with
    | "cover-cgr" -> Cover.run ~seed ~seconds ~trace ~work_dir ~workers ~llc ~round_bound:bound
    | "experiments-full" -> Tables.run ~seed ~seconds ~trace ~workers
    | "serve-mixed" -> Serve.run ~seed ~seconds ~trace ~server_exe ~workers
    | _ -> usage ()
  in
  let wanted = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match Outcome.find out name with
          | Some v -> v
          | None when trace -> 0.0
          | None -> failwith ("end-to-end metric not measured: " ^ name)
        in
        (name, value, unit))
      wanted
  in
  Printf.printf "metric failed_frac %.6f ratio (%d of %d operations)\n"
    (float_of_int out.failed /. float_of_int (max 1 out.attempted)) out.failed out.attempted;
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s %.6g %s\n" name v unit) metrics;
  if trace then begin
    Span.print_report spans;
    let path = Filename.concat work_dir (Printf.sprintf "spans-%s-%d.json" workload seed) in
    Span.write spans path;
    Printf.printf "spans written to %s\n" path
  end;
  let metrics_json =
    Json.Obj
      (List.map
         (fun (name, v, unit) ->
           (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
         metrics)
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (out.failed = 0));
        ("attempted", Json.Int out.attempted);
        ("failed", Json.Int out.failed);
        ("metrics", metrics_json);
      ]
  in
  let oc =
    open_out
      (Filename.concat work_dir
         (Printf.sprintf "result-%s-%d-trace%d.json" workload seed (Bool.to_int trace)))
  in
  output_string oc (Json.to_string (Json.Obj [ ("host", host); ("result", result) ]) ^ "\n");
  close_out oc;
  print_endline (Json.to_string result)
