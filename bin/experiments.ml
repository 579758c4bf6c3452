(* The experiment harness CLI: regenerates every table in EXPERIMENTS.md.

   Usage:
     cobra-experiments list
     cobra-experiments run e4 [--full] [--seed N] [--domains K]
     cobra-experiments run all --full [--obs-out DIR] [--journal DIR] [--deadline SECS]
     cobra-experiments run all --full --resume DIR   # continue a killed run

   Long sweeps are fault tolerant: with --journal every completed trial
   is checkpointed to DIR/journal.jsonl, Ctrl-C cancels cooperatively
   (in-flight chunks finish, the journal is flushed) and --resume
   replays checkpointed trials so the regenerated tables are
   bit-identical to an uninterrupted run with the same seed.  A trial
   that raises is reported with its backtrace and writes no checkpoint;
   the rest of its sweep is checkpointed, and --resume runs it again. *)

module Experiment = Cobra_experiments.Experiment
module Registry = Cobra_experiments.Registry
module Obs = Cobra_obs.Obs
module Pool = Cobra_parallel.Pool
module Montecarlo = Cobra_parallel.Montecarlo
module Journal = Cobra_parallel.Journal

open Cmdliner

let seed_arg =
  let doc = "Master seed; every number in the output is a deterministic function of it." in
  Arg.(value & opt int 2017 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc = "Worker domains to add to the pool (default: cores - 1)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K" ~doc)

let full_arg =
  let doc = "Run at full scale (the EXPERIMENTS.md numbers) instead of quick scale." in
  Arg.(value & flag & info [ "full" ] ~doc)

let out_arg =
  let doc =
    "Also write each experiment's output to $(docv)/<id>.txt (directory is created)."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let obs_out_arg =
  let doc =
    "Write observability artefacts to $(docv)/<id>/: manifest.json (seed, scale, domain \
     count, OCaml version, git revision, hostname), metrics.json (trial latency \
     histograms, throughput, wall time) and events.jsonl (one trace event per line)."
  in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"DIR" ~doc)

let journal_arg =
  let doc =
    "Checkpoint every completed Monte-Carlo trial to $(docv)/journal.jsonl (directory is \
     created, an existing journal is truncated).  A run killed by Ctrl-C, a deadline or a \
     crashing trial can then be continued with --resume $(docv); a trial that raised \
     wrote no checkpoint and runs again."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Resume from the checkpoints in $(docv)/journal.jsonl: already-completed trials are \
     replayed into the tables instead of re-simulated, newly completed trials are appended \
     to the same journal.  Because trials are seeded deterministically, the resumed run's \
     tables are bit-identical to an uninterrupted run with the same seed and scale."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)

let deadline_arg =
  let doc =
    "Abort any single Monte-Carlo sweep that runs longer than $(docv) seconds.  The \
     experiment owning the sweep is reported incomplete (its checkpoints are kept for \
     --resume) and the harness moves on to the next experiment."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiment.t) -> Printf.printf "%-4s %s\n     %s\n" e.id e.title e.claim)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available experiments") Term.(const run $ const ())

let mkdir_p dir =
  let rec ensure dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      ensure (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  ensure dir

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* One observability context per experiment; [finish] persists the
   manifest and the metrics snapshot next to the event stream.  [finish]
   also runs when the experiment is interrupted, so a killed run leaves
   complete manifests behind. *)
let obs_for obs_out (e : Experiment.t) ~seed ~scale ~domains =
  match obs_out with
  | None -> (Obs.null, fun () -> ())
  | Some dir ->
      let edir = Filename.concat dir e.id in
      mkdir_p edir;
      let obs = Obs.create ~sink:(Cobra_obs.Trace.jsonl (Filename.concat edir "events.jsonl")) () in
      let finish () =
        let manifest = Experiment.manifest e ~master_seed:seed ~scale ~domains in
        write_file (Filename.concat edir "manifest.json")
          (Cobra_obs.Json.to_string_pretty (Cobra_obs.Manifest.to_json manifest) ^ "\n");
        write_file (Filename.concat edir "metrics.json")
          (Cobra_obs.Json.to_string_pretty
             (Cobra_obs.Report.to_json (Cobra_obs.Metrics.snapshot (Obs.metrics obs)))
          ^ "\n");
        Obs.close obs
      in
      (obs, finish)

let journal_of ~journal ~resume =
  match (resume, journal) with
  | None, None -> Ok None
  | Some rdir, Some jdir when rdir <> jdir ->
      Error
        (Printf.sprintf
           "--journal %s conflicts with --resume %s: --resume already appends new \
            checkpoints to its own journal"
           jdir rdir)
  | Some dir, _ ->
      mkdir_p dir;
      let j = Journal.load (Filename.concat dir "journal.jsonl") in
      Printf.printf "[resume] %s: %d checkpointed trials loaded%s\n%!" (Journal.path j)
        (Journal.loaded j)
        (if Journal.malformed j > 0 then
           Printf.sprintf " (%d malformed lines skipped)" (Journal.malformed j)
         else "");
      Ok (Some j)
  | None, Some dir ->
      mkdir_p dir;
      Ok (Some (Journal.create (Filename.concat dir "journal.jsonl")))

let resume_hint journal =
  match journal with
  | Some j -> Printf.sprintf "; resume with --resume %s" (Filename.dirname (Journal.path j))
  | None -> ""

let run_experiments ids seed domains full out obs_out journal_dir resume_dir deadline =
  let scale = if full then Experiment.Full else Experiment.Quick in
  Option.iter mkdir_p out;
  (match deadline with
  | Some d when not (d > 0.0) ->
      prerr_endline "--deadline must be positive";
      exit 2
  | _ -> ());
  match (Registry.select ids, journal_of ~journal:journal_dir ~resume:resume_dir) with
  | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      exit 1
  | Ok experiments, Ok journal ->
      (* Ctrl-C and SIGTERM cancel cooperatively: in-flight chunks
         finish, completed trials are checkpointed and manifests
         written, then the harness exits with the conventional code for
         the signal (130 for SIGINT, 143 for SIGTERM).  A second signal
         aborts immediately. *)
      let cancel = Pool.Cancel.create () in
      let signal_exit = ref 130 in
      let on_signal signum =
        let code = if signum = Sys.sigterm then 143 else 130 in
        signal_exit := code;
        if Pool.Cancel.cancelled cancel then exit code
        else begin
          prerr_endline
            "\n[interrupt] cancelling after in-flight chunks; checkpointing completed \
             trials (signal again to abort hard)";
          Pool.Cancel.cancel cancel
        end
      in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      let failed = ref [] in
      let interrupted = ref false in
      Fun.protect
        ~finally:(fun () ->
          match journal with
          | Some j ->
              if Journal.appended j > 0 || Journal.replayed j > 0 then
                Printf.printf "[journal] %s: %d trials replayed, %d checkpoints appended\n%!"
                  (Journal.path j) (Journal.replayed j) (Journal.appended j);
              Journal.close j
          | None -> ())
        (fun () ->
          Pool.with_pool ?num_domains:domains (fun pool ->
              List.iter
                (fun (e : Experiment.t) ->
                  if not !interrupted then begin
                    Option.iter (fun j -> Journal.set_experiment j e.id) journal;
                    print_string (Experiment.header e);
                    let obs, finish =
                      obs_for obs_out e ~seed ~scale ~domains:(Pool.size pool)
                    in
                    let timer = Cobra_obs.Timer.start () in
                    match
                      Fun.protect
                        ~finally:(fun () -> finish ())
                        (fun () ->
                          Montecarlo.with_context ?journal ~cancel ?deadline_s:deadline (fun () ->
                              Experiment.run_observed ~obs e ~pool ~master_seed:seed ~scale))
                    with
                    | output ->
                        print_string output;
                        (match out with
                        | Some dir ->
                            write_file
                              (Filename.concat dir (e.id ^ ".txt"))
                              (Experiment.header e ^ output)
                        | None -> ());
                        Printf.printf "[%s finished in %.1fs]\n\n%!" e.id
                          (Cobra_obs.Timer.elapsed_s timer)
                    | exception Montecarlo.Interrupted { reason = `Cancelled; completed; total }
                      ->
                        interrupted := true;
                        Printf.printf
                          "[%s interrupted: %d/%d trials of the current sweep done%s]\n%!"
                          e.id completed total (resume_hint journal)
                    | exception Montecarlo.Interrupted { reason = `Deadline; completed; total }
                      ->
                        failed := (e.id, "deadline exceeded") :: !failed;
                        Printf.printf
                          "[%s abandoned: sweep deadline exceeded after %d/%d trials%s]\n\n%!"
                          e.id completed total (resume_hint journal)
                    | exception exn ->
                        (* A failing trial: the rest of its ensemble is
                           checkpointed, so report and move on to the next
                           experiment. *)
                        failed := (e.id, Printexc.to_string exn) :: !failed;
                        Printf.printf "[%s failed: %s%s]\n%s\n%!" e.id (Printexc.to_string exn)
                          (resume_hint journal) (Printexc.get_backtrace ())
                  end)
                experiments));
      if !interrupted then exit !signal_exit;
      match List.rev !failed with
      | [] -> ()
      | failures ->
          List.iter
            (fun (id, msg) -> Printf.eprintf "experiment %s did not complete: %s\n" id msg)
            failures;
          exit 1

let run_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (e1 .. e16), or 'all'." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let term =
    Term.(
      const run_experiments $ ids_arg $ seed_arg $ domains_arg $ full_arg $ out_arg
      $ obs_out_arg $ journal_arg $ resume_arg $ deadline_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run experiments and print their tables") term

let main_cmd =
  let doc = "Reproduce the quantitative claims of Cooper, Radzik, Rivera (SPAA 2017)" in
  let info = Cmd.info "cobra-experiments" ~version:"1.0.0" ~doc in
  Cmd.group info [ list_cmd; run_cmd ]

let () = exit (Cli.eval main_cmd)
