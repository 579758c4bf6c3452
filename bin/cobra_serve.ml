(* The resident simulation daemon.

   Usage:
     cobra-serve [--host H] [--port P] [--domains K] [--cache N]
                 [--journal DIR] [--obs-out DIR] [--deadline SECS]

   Boots a Cobra_server.Server, prints the bound address (port 0 picks
   an ephemeral port, handy for tests), then waits for SIGINT/SIGTERM.
   Either signal shuts down gracefully: the in-flight job is cancelled
   cooperatively, the job journal and obs sinks flush, and the process
   exits 130 (SIGINT) or 143 (SIGTERM).  With --journal, a server
   stopped mid-job, by a signal or by kill -9, runs its unfinished jobs
   again from trial 0 at the next boot.  Flag defaults other than
   --port come from Server.default_config. *)

module Server = Cobra_server.Server
open Cmdliner

let default = Server.default_config

let host_arg = Cli.host_arg ~default:default.host ~doc:"Numeric address to bind."

let port_arg =
  let doc = "TCP port to listen on; 0 picks an ephemeral port." in
  Arg.(value & opt int 4740 & info [ "port" ] ~docv:"PORT" ~doc)

let domains_arg =
  let doc = "Worker domains to add to the shared pool (default: cores - 1)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K" ~doc)

let cache_arg =
  let doc = "Result cache capacity (LRU entries)." in
  Arg.(value & opt int default.cache_capacity & info [ "cache" ] ~docv:"N" ~doc)

let queue_client_arg =
  let doc = "Per-client queue bound; beyond it submissions get $(b,overloaded)." in
  Arg.(value & opt int default.queue_per_client & info [ "queue-per-client" ] ~docv:"N" ~doc)

let queue_global_arg =
  let doc = "Global queue bound across all clients." in
  Arg.(value & opt int default.queue_global & info [ "queue-global" ] ~docv:"N" ~doc)

let journal_arg =
  let doc =
    "Persist every job's accepted, done and failed records to $(docv)/jobs.jsonl; at \
     boot, completed results preload the cache and unfinished jobs run again from trial \
     0 with bit-identical results."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)

let obs_arg =
  let doc =
    "Stream per-job trace events to $(docv)/events.jsonl and write a metrics snapshot to \
     $(docv)/metrics.json at shutdown."
  in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"DIR" ~doc)

let deadline_arg =
  let doc = "Default per-job deadline in seconds for submissions that carry none." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let max_frame_arg =
  let doc = "Largest accepted request frame, in bytes." in
  Arg.(value & opt int default.max_frame & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let serve host port domains cache queue_per_client queue_global journal_dir obs_dir deadline
    max_frame =
  if cache < 1 || queue_per_client < 1 || queue_global < queue_per_client || max_frame < 8
  then begin
    prerr_endline "invalid sizing: need cache >= 1, 1 <= queue-per-client <= queue-global";
    exit 2
  end;
  (match deadline with
  | Some d when not (d > 0.0) ->
      prerr_endline "--deadline must be positive";
      exit 2
  | _ -> ());
  let cfg =
    {
      Server.host;
      port;
      pool_domains = domains;
      cache_capacity = cache;
      queue_per_client;
      queue_global;
      journal_dir;
      obs_dir;
      max_frame;
      default_deadline_s = deadline;
    }
  in
  match Server.start cfg with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot listen on %s:%d: %s\n" host port (Unix.error_message e);
      exit 1
  | srv ->
      Printf.printf "[cobra-serve] listening on %s:%d\n%!" host (Server.port srv);
      (match journal_dir with
      | Some dir -> Printf.printf "[cobra-serve] journal: %s\n%!" dir
      | None -> ());
      let stop_code = Atomic.make 0 in
      let on_signal signum =
        let code = if signum = Sys.sigterm then 143 else 130 in
        Atomic.set stop_code code;
        Server.request_stop srv
      in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      while Atomic.get stop_code = 0 do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      prerr_endline "[cobra-serve] shutting down";
      Server.stop srv;
      exit (Atomic.get stop_code)

let main_cmd =
  let doc = "Resident COBRA simulation server" in
  let term =
    Term.(
      const serve $ host_arg $ port_arg $ domains_arg $ cache_arg $ queue_client_arg
      $ queue_global_arg $ journal_arg $ obs_arg $ deadline_arg $ max_frame_arg)
  in
  Cmd.v (Cmd.info "cobra-serve" ~version:"1.0.0" ~doc) term

let () = exit (Cli.eval main_cmd)
