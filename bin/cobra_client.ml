(* Client CLI for the resident simulation server.

   Usage:
     cobra-client ping   [--port P] [--count N]
     cobra-client stats  [--port P]
     cobra-client submit [--port P] --family lollipop --n 256 --trials 24 ...
     cobra-client load   [--port P] --clients 8 --qps 200 --duration 10

   `load` doubles as the load-test driver: K client domains each hold
   one connection and submit jobs drawn from a pool of --distinct seeds
   (so a fraction of requests exercise the result cache), paced to an
   aggregate --qps.  Per-request latencies aggregate into p50/p95/p99,
   mean and throughput, which it prints. *)

module Server = Cobra_server.Server
module Client = Cobra_server.Client
module Proto = Cobra_server.Proto
module Json = Cobra_obs.Json
module Quantile = Cobra_stats.Quantile
module Summary = Cobra_stats.Summary
open Cmdliner

let host_arg =
  let doc = "Server address." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "Server port." in
  Arg.(value & opt int 4740 & info [ "port" ] ~docv:"PORT" ~doc)

let connect host port =
  match Client.connect ~host ~port () with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot connect to %s:%d: %s\n" host port (Unix.error_message e);
      exit 1

(* --- job shape arguments, shared by submit and load --- *)

let kind_arg =
  let doc = "Estimate $(docv): cover_time or infection_time." in
  let kind_conv =
    Arg.conv
      ( (fun s ->
          match Proto.kind_of_string (String.lowercase_ascii (String.trim s)) with
          | Ok k -> Ok k
          | Error m -> Error (`Msg m)),
        fun fmt k -> Format.pp_print_string fmt (Proto.kind_to_string k) )
  in
  Arg.(value & opt kind_conv Proto.Cover_time & info [ "kind" ] ~docv:"KIND" ~doc)

let family_arg default =
  let doc = "Graph family (see cobra-graph-tool for the list)." in
  Arg.(value & opt string default & info [ "family" ] ~docv:"FAMILY" ~doc)

let n_arg default =
  let doc = "Number of vertices." in
  Arg.(value & opt int default & info [ "n"; "size" ] ~docv:"N" ~doc)

let gseed_arg =
  let doc = "Graph construction seed (random families)." in
  Arg.(value & opt int 0 & info [ "gseed" ] ~docv:"SEED" ~doc)

let branch_arg =
  let doc = "Fixed branching factor b." in
  Arg.(value & opt int 2 & info [ "b"; "branching" ] ~docv:"B" ~doc)

let rho_arg =
  let doc = "Bernoulli branching parameter; overrides --b when given." in
  Arg.(value & opt (some float) None & info [ "rho" ] ~docv:"RHO" ~doc)

let lazy_arg =
  let doc = "Use the lazy variant (stay with probability 1/2)." in
  Arg.(value & flag & info [ "lazy" ] ~doc)

let max_rounds_arg =
  let doc = "Round cap; trials that hit it are censored." in
  Arg.(value & opt (some int) None & info [ "max-rounds" ] ~docv:"R" ~doc)

let trials_arg default =
  let doc = "Monte-Carlo trials." in
  Arg.(value & opt int default & info [ "trials" ] ~docv:"T" ~doc)

let seed_arg =
  let doc = "Master seed for the trial ensemble." in
  Arg.(value & opt int 2017 & info [ "seed" ] ~docv:"SEED" ~doc)

let deadline_arg =
  let doc = "Per-job deadline in seconds." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let make_job kind family n gseed b rho lazy_ max_rounds trials master_seed : Proto.job =
  let branching =
    match rho with
    | Some rho -> Cobra_core.Process.Bernoulli rho
    | None -> Cobra_core.Process.Fixed b
  in
  { kind; graph = { family; n; gseed }; branching; lazy_; max_rounds; trials; master_seed }

(* --- ping --- *)

let ping host port count =
  let c = connect host port in
  let rtts =
    Array.init count (fun _ ->
        let t0 = Unix.gettimeofday () in
        match Client.request c Proto.Ping with
        | Proto.Pong -> (Unix.gettimeofday () -. t0) *. 1000.0
        | _ ->
            prerr_endline "unexpected reply to ping";
            exit 1)
  in
  Client.close c;
  let s = Summary.of_array rtts in
  Printf.printf "%d pings to %s:%d: min %.3f ms, mean %.3f ms, max %.3f ms\n" count host port
    s.min s.mean s.max

let ping_cmd =
  let count_arg =
    let doc = "Number of pings." in
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Measure request round-trip time")
    Term.(const ping $ host_arg $ port_arg $ count_arg)

(* --- stats --- *)

let stats host port =
  let c = connect host port in
  (match Client.request c Proto.Stats with
  | Proto.Stats_reply j -> print_endline (Json.to_string_pretty j)
  | _ ->
      prerr_endline "unexpected reply to stats";
      exit 1);
  Client.close c

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print server statistics")
    Term.(const stats $ host_arg $ port_arg)

(* --- submit --- *)

let print_result ~cached ~server_ms (r : Proto.job_result) =
  Printf.printf "%s in %.1f ms (server)\n"
    (if cached then "cache hit" else "simulated")
    server_ms;
  Printf.printf "  n        %d\n" r.n;
  Printf.printf "  trials   %d completed, %d censored\n" r.count r.censored;
  Printf.printf "  mean     %.2f rounds  (stddev %.2f)\n" r.mean r.stddev;
  Printf.printf "  median   %.1f   q90 %.1f   min %.0f   max %.0f\n" r.median r.q90 r.min
    r.max;
  if not (Float.is_nan r.mean_transmissions) then
    Printf.printf "  mean transmissions per trial  %.0f\n" r.mean_transmissions

let submit host port kind family n gseed b rho lazy_ max_rounds trials seed deadline =
  let job = make_job kind family n gseed b rho lazy_ max_rounds trials seed in
  let c = connect host port in
  (match Client.request c (Proto.Submit { job; deadline_s = deadline }) with
  | Proto.Result { cached; server_ms; result } ->
      print_result ~cached ~server_ms result;
      Client.close c
  | Proto.Error { code; message } ->
      Printf.eprintf "error (%s): %s\n" (Proto.error_code_to_string code) message;
      Client.close c;
      exit (match code with Proto.Overloaded -> 75 | _ -> 1)
  | _ ->
      prerr_endline "unexpected reply to submit";
      exit 1);
  ()

let submit_cmd =
  let term =
    Term.(
      const submit $ host_arg $ port_arg $ kind_arg $ family_arg "lollipop" $ n_arg 256
      $ gseed_arg $ branch_arg $ rho_arg $ lazy_arg $ max_rounds_arg $ trials_arg 24
      $ seed_arg $ deadline_arg)
  in
  Cmd.v (Cmd.info "submit" ~doc:"Submit one estimation job and print the result") term

(* --- load test --- *)

type worker_report = {
  latencies_s : float list;
  ok : int;
  cached : int;
  overloaded : int;
  errors : int;
}

let load_worker ~host ~port ~deadline ~until ~period ~offset ~distinct ~base_job ~seed idx =
  let c = Client.connect ~host ~port () in
  let rep = ref { latencies_s = []; ok = 0; cached = 0; overloaded = 0; errors = 0 } in
  let next = ref (Unix.gettimeofday () +. offset) in
  let k = ref 0 in
  (try
     while Unix.gettimeofday () < until do
       if period > 0.0 then begin
         let now = Unix.gettimeofday () in
         if !next > now then Unix.sleepf (Float.min (!next -. now) (until -. now));
         next := Float.max !next now +. period
       end;
       if Unix.gettimeofday () < until then begin
         let variant = (((idx * 7919) + !k) mod distinct + distinct) mod distinct in
         incr k;
         let job = { base_job with Proto.master_seed = seed + variant } in
         let t0 = Unix.gettimeofday () in
         match Client.request c (Proto.Submit { job; deadline_s = deadline }) with
         | Proto.Result { cached; _ } ->
             let dt = Unix.gettimeofday () -. t0 in
             let r = !rep in
             rep :=
               {
                 r with
                 latencies_s = dt :: r.latencies_s;
                 ok = r.ok + 1;
                 cached = (r.cached + if cached then 1 else 0);
               }
         | Proto.Error { code = Proto.Overloaded; _ } ->
             rep := { !rep with overloaded = !rep.overloaded + 1 };
             Unix.sleepf 0.005
         | Proto.Error _ | Proto.Pong | Proto.Stats_reply _ ->
             rep := { !rep with errors = !rep.errors + 1 }
       end
     done
   with Cobra_server.Wire.Closed | Unix.Unix_error _ | Failure _ ->
     rep := { !rep with errors = !rep.errors + 1 });
  Client.close c;
  !rep

let load host port clients qps duration distinct kind family n gseed b rho lazy_ max_rounds
    trials seed deadline =
  if clients < 1 || duration <= 0.0 || distinct < 1 then begin
    prerr_endline "need --clients >= 1, --duration > 0, --distinct >= 1";
    exit 2
  end;
  let base_job = make_job kind family n gseed b rho lazy_ max_rounds trials seed in
  (* Fail fast (and warm the first seed) before spawning K domains. *)
  let probe = connect host port in
  (match
     Client.request probe (Proto.Submit { job = base_job; deadline_s = deadline })
   with
  | Proto.Result _ -> ()
  | Proto.Error { code; message } ->
      Printf.eprintf "probe job rejected (%s): %s\n" (Proto.error_code_to_string code)
        message;
      exit 1
  | _ ->
      prerr_endline "unexpected reply to probe job";
      exit 1);
  Client.close probe;
  let period = if qps > 0.0 then float_of_int clients /. qps else 0.0 in
  let until = Unix.gettimeofday () +. duration in
  Printf.printf
    "[load] %d clients, %s, %.0fs, %d distinct jobs (%s n=%d trials=%d) against %s:%d\n%!"
    clients
    (if qps > 0.0 then Printf.sprintf "%.0f req/s aggregate" qps else "max rate")
    duration distinct family n trials host port;
  let workers =
    List.init clients (fun i ->
        Domain.spawn (fun () ->
            load_worker ~host ~port ~deadline ~until ~period
              ~offset:(if period > 0.0 then float_of_int i *. period /. float_of_int clients
                       else 0.0)
              ~distinct ~base_job ~seed i))
  in
  let reports = List.map Domain.join workers in
  let lat =
    Array.of_list (List.concat_map (fun r -> r.latencies_s) reports)
  in
  let ok = List.fold_left (fun a r -> a + r.ok) 0 reports in
  let cached = List.fold_left (fun a r -> a + r.cached) 0 reports in
  let overloaded = List.fold_left (fun a r -> a + r.overloaded) 0 reports in
  let errors = List.fold_left (fun a r -> a + r.errors) 0 reports in
  if ok = 0 then begin
    Printf.eprintf "no request completed (%d overloaded, %d errors)\n" overloaded errors;
    exit 1
  end;
  let throughput = float_of_int ok /. duration in
  let p50 = Quantile.quantile lat 0.5 in
  let p95 = Quantile.quantile lat 0.95 in
  let p99 = Quantile.quantile lat 0.99 in
  let mean = (Summary.of_array lat).mean in
  Printf.printf "[load] %d ok (%d cache hits, %.1f%%), %d overloaded, %d errors\n" ok cached
    (100.0 *. float_of_int cached /. float_of_int ok)
    overloaded errors;
  Printf.printf "[load] throughput %.1f req/s\n" throughput;
  Printf.printf "[load] latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  mean %.2f ms\n"
    (p50 *. 1e3) (p95 *. 1e3) (p99 *. 1e3) (mean *. 1e3)

let load_cmd =
  let clients_arg =
    let doc = "Concurrent client connections (one domain each)." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"K" ~doc)
  in
  let qps_arg =
    let doc = "Aggregate request rate; 0 means as fast as the server answers." in
    Arg.(value & opt float 0.0 & info [ "qps" ] ~docv:"Q" ~doc)
  in
  let duration_arg =
    let doc = "Test duration in seconds." in
    Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let distinct_arg =
    let doc =
      "Number of distinct jobs (master seeds) cycled through; small values exercise the \
       result cache, large values the simulator."
    in
    Arg.(value & opt int 8 & info [ "distinct" ] ~docv:"J" ~doc)
  in
  let term =
    Term.(
      const load $ host_arg $ port_arg $ clients_arg $ qps_arg $ duration_arg
      $ distinct_arg $ kind_arg $ family_arg "complete" $ n_arg 128 $ gseed_arg
      $ branch_arg $ rho_arg $ lazy_arg $ max_rounds_arg $ trials_arg 4 $ seed_arg
      $ deadline_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive the server with concurrent clients and print latency quantiles")
    term

let main_cmd =
  let doc = "Client for the resident COBRA simulation server" in
  let info = Cmd.info "cobra-client" ~version:"1.0.0" ~doc in
  Cmd.group info [ ping_cmd; stats_cmd; submit_cmd; load_cmd ]

let () = exit (Cli.eval main_cmd)
