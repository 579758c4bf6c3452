exception Interrupted of { reason : [ `Cancelled | `Deadline ]; completed : int; total : int }

(* The harness-wide fault-tolerance settings (journal, cancel token,
   deadline) would otherwise have to thread through every layer between
   the CLI and the innermost sweep (experiments -> Common -> Estimate ->
   here).  They are process-wide concerns — one journal, one SIGINT
   token per run — so they live in an ambient context scoped by
   [with_context], the only way to set them.  The context is only read
   in the submitting thread, never in workers. *)
type context = {
  journal : Journal.t option;
  cancel : Pool.Cancel.t option;
  deadline_s : float option;
}

let ambient = ref { journal = None; cancel = None; deadline_s = None }

let with_context ?journal ?cancel ?deadline_s f =
  let saved = !ambient in
  ambient := { journal; cancel; deadline_s };
  Fun.protect ~finally:(fun () -> ambient := saved) f

(* Upper bounds in milliseconds for the per-trial latency histogram:
   roughly 1-3-10 per decade from 100us to 30s. *)
let latency_buckets_ms =
  [| 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1_000.0; 3_000.0; 10_000.0; 30_000.0 |]

(* A replayed trial is never executed, journaled or observed again. *)
type 'a slot =
  | Not_run
  | Replayed of 'a
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace  (* captured at the raise site *)

let run ?(obs = Cobra_obs.Obs.null) ?codec ~pool ~master_seed ~trials f =
  if trials < 1 then invalid_arg "Montecarlo: trials must be >= 1";
  let { journal; cancel; deadline_s } = !ambient in
  let sweep =
    match (journal, codec) with
    | Some j, Some _ -> Some (Journal.begin_sweep j ~master_seed ~trials)
    | _ -> None
  in
  let slots = Array.make trials Not_run in
  (* Replay checkpointed trials before the sweep: their workers never
     run, so a resumed run only pays for the missing work. *)
  (match (sweep, codec) with
  | Some sw, Some codec ->
      for trial = 0 to trials - 1 do
        match Option.bind (Journal.find sw ~trial) codec.Journal.decode with
        | Some v -> slots.(trial) <- Replayed v
        | None -> ()
      done
  | _ -> ());
  let observing = Cobra_obs.Obs.enabled obs in
  (* Workers write results and latencies into trial-indexed slots; the
     registry, the sink and the journal are only touched from this
     domain, after the join. *)
  let latencies_ms = if observing then Array.make trials 0.0 else [||] in
  let wall = Cobra_obs.Timer.start () in
  let body trial =
    match slots.(trial) with
    | Replayed _ -> ()
    | _ -> (
        let timer = if observing then Some (Cobra_obs.Timer.start ()) else None in
        (* Every trial runs even when another fails: the failure is
           deterministic, so the others are worth keeping. *)
        (slots.(trial) <-
           (match f ~trial (Cobra_prng.Rng.for_trial ~master:master_seed ~trial) with
           | v -> Done v
           | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
        match timer with
        | Some t -> latencies_ms.(trial) <- Cobra_obs.Timer.elapsed_s t *. 1_000.0
        | None -> ())
  in
  let interrupted =
    match Pool.parallel_for pool ~lo:0 ~hi:trials ?cancel ?deadline_s body with
    | () -> None
    | exception Pool.Cancelled -> Some `Cancelled
    | exception Pool.Deadline_exceeded -> Some `Deadline
  in
  let total_s = Cobra_obs.Timer.elapsed_s wall in
  (* Checkpoint everything that completed, in trial order, before
     reporting anything else: neither an interrupt nor a failing trial
     may lose completed work. *)
  (match (sweep, codec) with
  | Some sw, Some codec ->
      Array.iteri
        (fun trial -> function
          | Done v -> Journal.record_ok sw ~trial (codec.Journal.encode v)
          | Not_run | Replayed _ | Failed _ -> ())
        slots;
      Option.iter Journal.flush journal
  | _ -> ());
  let count p = Array.fold_left (fun acc slot -> if p slot then acc + 1 else acc) 0 slots in
  (* A token that trips after the last chunk finished interrupts
     nothing: only report an interruption when trials actually went
     unexecuted. *)
  (match interrupted with
  | Some reason when count (function Not_run -> true | _ -> false) > 0 ->
      raise
        (Interrupted
           {
             reason;
             completed = count (function Done _ | Replayed _ -> true | _ -> false);
             total = trials;
           })
  | _ -> ());
  if observing then begin
    let metrics = Cobra_obs.Obs.metrics obs in
    Cobra_obs.Metrics.add (Cobra_obs.Metrics.counter metrics ~scope:"montecarlo" "trials") trials;
    Cobra_obs.Metrics.set
      (Cobra_obs.Metrics.gauge metrics ~scope:"montecarlo" "trials_per_sec")
      (if total_s > 0.0 then float_of_int trials /. total_s else 0.0);
    let histogram =
      Cobra_obs.Metrics.histogram metrics ~scope:"montecarlo" ~buckets:latency_buckets_ms
        "trial_latency_ms"
    in
    Array.iteri
      (fun trial latency_ms ->
        match slots.(trial) with
        | Replayed _ -> ()
        | _ ->
            Cobra_obs.Metrics.observe histogram latency_ms;
            Cobra_obs.Obs.emit obs (Cobra_obs.Trace.Trial_completed { trial; latency_ms }))
      latencies_ms;
    let n_replayed = count (function Replayed _ -> true | _ -> false) in
    if n_replayed > 0 then
      Cobra_obs.Metrics.add
        (Cobra_obs.Metrics.counter metrics ~scope:"montecarlo" "trials_replayed")
        n_replayed
  end;
  (* The rest of the ensemble completed and was checkpointed; the first
     failing trial's original exception and backtrace surface
     unchanged. *)
  Array.map
    (function
      | Done v | Replayed v -> v
      | Failed (e, backtrace) -> Printexc.raise_with_backtrace e backtrace
      | Not_run -> assert false (* no interruption left a trial unexecuted *))
    slots
