type failure = { exn : exn; backtrace : Printexc.raw_backtrace; attempts : int }

exception Interrupted of { reason : [ `Cancelled | `Deadline ]; completed : int; total : int }

(* The harness-wide fault-tolerance settings (journal, cancel token,
   deadline, retry budget) would otherwise have to thread through every
   layer between the CLI and the innermost sweep (experiments -> Common
   -> Estimate -> here).  They are process-wide concerns — one journal,
   one SIGINT token per run — so they live in an ambient context scoped
   by [with_context], the only way to set them.  The context is only
   read in the submitting thread, never in workers. *)
type context = {
  journal : Journal.t option;
  cancel : Pool.Cancel.t option;
  deadline_s : float option;
  retries : int;
}

let no_context = { journal = None; cancel = None; deadline_s = None; retries = 0 }
let ambient = ref no_context

let with_context ?journal ?cancel ?deadline_s ?(retries = 0) f =
  let saved = !ambient in
  ambient := { journal; cancel; deadline_s; retries };
  Fun.protect ~finally:(fun () -> ambient := saved) f

(* Upper bounds in milliseconds for the per-trial latency histogram:
   roughly 1-3-10 per decade from 100us to 30s. *)
let latency_buckets_ms =
  [| 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1_000.0; 3_000.0; 10_000.0; 30_000.0 |]

type 'a slot = Not_run | Done of 'a | Failed of failure

let run_results ?(obs = Cobra_obs.Obs.null) ?codec ~pool ~master_seed ~trials f =
  if trials < 1 then invalid_arg "Montecarlo: trials must be >= 1";
  let { journal; cancel; deadline_s; retries } = !ambient in
  if retries < 0 then invalid_arg "Montecarlo: retries must be >= 0";
  let sweep =
    match (journal, codec) with
    | Some j, Some _ -> Some (Journal.begin_sweep j ~master_seed ~trials)
    | _ -> None
  in
  let slots = Array.make trials Not_run in
  let replayed = Array.make trials false in
  (* Replay checkpointed trials before the sweep: their workers never
     run, so a resumed run only pays for the missing work. *)
  (match (sweep, codec) with
  | Some sw, Some codec ->
      for trial = 0 to trials - 1 do
        match Journal.find sw ~trial with
        | None -> ()
        | Some json -> (
            match codec.Journal.decode json with
            | Some v ->
                slots.(trial) <- Done v;
                replayed.(trial) <- true
            | None -> ())
      done
  | _ -> ());
  let observing = Cobra_obs.Obs.enabled obs in
  (* Workers write latencies into trial-indexed slots; the registry, the
     sink and the journal are only touched from this domain, after the
     join. *)
  let latencies_ms = if observing then Array.make trials 0.0 else [||] in
  let wall = Cobra_obs.Timer.start () in
  let body trial =
    if not replayed.(trial) then begin
      let timer = if observing then Some (Cobra_obs.Timer.start ()) else None in
      let rec attempt k =
        match f ~trial (Cobra_prng.Rng.for_trial ~master:master_seed ~trial) with
        | v -> slots.(trial) <- Done v
        | exception e ->
            let backtrace = Printexc.get_raw_backtrace () in
            if k < retries then attempt (k + 1)
            else slots.(trial) <- Failed { exn = e; backtrace; attempts = k + 1 }
      in
      attempt 0;
      match timer with
      | Some t -> latencies_ms.(trial) <- Cobra_obs.Timer.elapsed_s t *. 1_000.0
      | None -> ()
    end
  in
  let interrupted =
    match Pool.parallel_for pool ~lo:0 ~hi:trials ?cancel ?deadline_s body with
    | () -> None
    | exception Pool.Cancelled -> Some `Cancelled
    | exception Pool.Deadline_exceeded -> Some `Deadline
  in
  let total_s = Cobra_obs.Timer.elapsed_s wall in
  (* Checkpoint everything that ran, in trial order, before reporting
     anything else: an interrupt must never lose completed work. *)
  (match (sweep, codec) with
  | Some sw, Some codec ->
      Array.iteri
        (fun trial slot ->
          if not replayed.(trial) then
            match slot with
            | Done v -> Journal.record_ok sw ~trial (codec.Journal.encode v)
            | Failed { exn; backtrace; attempts } ->
                Journal.record_failure sw ~trial ~exn:(Printexc.to_string exn)
                  ~backtrace:(Printexc.raw_backtrace_to_string backtrace)
                  ~attempts
            | Not_run -> ())
        slots;
      Option.iter Journal.flush journal
  | _ -> ());
  let completed =
    Array.fold_left (fun acc -> function Done _ -> acc + 1 | _ -> acc) 0 slots
  in
  let missing =
    Array.fold_left (fun acc -> function Not_run -> acc + 1 | _ -> acc) 0 slots
  in
  (* A token that trips after the last chunk finished interrupts
     nothing: only report an interruption when trials actually went
     unexecuted. *)
  match (interrupted, missing > 0) with
  | Some reason, true -> raise (Interrupted { reason; completed; total = trials })
  | _ ->
      if observing then begin
        let metrics = Cobra_obs.Obs.metrics obs in
        Cobra_obs.Metrics.add
          (Cobra_obs.Metrics.counter metrics ~scope:"montecarlo" "trials")
          trials;
        Cobra_obs.Metrics.set
          (Cobra_obs.Metrics.gauge metrics ~scope:"montecarlo" "trials_per_sec")
          (if total_s > 0.0 then float_of_int trials /. total_s else 0.0);
        let histogram =
          Cobra_obs.Metrics.histogram metrics ~scope:"montecarlo" ~buckets:latency_buckets_ms
            "trial_latency_ms"
        in
        Array.iteri
          (fun trial latency_ms ->
            if not replayed.(trial) then begin
              Cobra_obs.Metrics.observe histogram latency_ms;
              Cobra_obs.Obs.emit obs (Cobra_obs.Trace.Trial_completed { trial; latency_ms })
            end)
          latencies_ms;
        let n_replayed = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 replayed in
        if n_replayed > 0 then
          Cobra_obs.Metrics.add
            (Cobra_obs.Metrics.counter metrics ~scope:"montecarlo" "trials_replayed")
            n_replayed
      end;
      Array.map
        (function
          | Done v -> Ok v
          | Failed fl -> Error fl
          | Not_run -> assert false (* missing = 0 here *))
        slots

let run ?obs ?codec ~pool ~master_seed ~trials f =
  let results = run_results ?obs ?codec ~pool ~master_seed ~trials f in
  (* Failure isolation means the rest of the ensemble completed and was
     checkpointed before we re-raise; the first failing trial's original
     exception and backtrace surface unchanged. *)
  Array.iter
    (function
      | Error { exn; backtrace; _ } -> Printexc.raise_with_backtrace exn backtrace
      | Ok _ -> ())
    results;
  Array.map (function Ok v -> v | Error _ -> assert false) results
