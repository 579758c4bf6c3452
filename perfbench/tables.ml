(* Workload experiments-full: all 16 registered experiments at Full scale
   on one shared pool, each called through its Experiment.run.

   Thousands of short Monte-Carlo trials on small graphs: this loads
   trial-level parallelism, the sequential and sparse-frontier kernels
   and the Lanczos/CG solves, while keyed round sharding and .cgr storage
   do almost nothing.  Every run regenerates the tables twice, with the
   observability context off and on; the tables must match byte for
   byte, and the second pass feeds the montecarlo/spectral/walk metric
   scopes the per-layer rows read. *)

module Experiment = Cobra_experiments.Experiment
module Registry = Cobra_experiments.Registry
module Obs = Cobra_obs.Obs
module Trace = Cobra_obs.Trace
module Metrics = Cobra_obs.Metrics
module Pool = Cobra_parallel.Pool

let setup_reps = 31

(* Master seeds at which all 16 verdicts are PASS (checked with
   [cobra-experiments run all --full --seed N] when this benchmark was
   written); the run seed picks one.  Some verdicts are statistical and
   fail at some seeds (E9 at seed 4: a sample mean of walk cover steps
   above Matthews' bound on the expectation), and a run must expect no
   failed operation; a change that turns one of these into a FAIL still
   shows as one. *)
let master_seeds = [| 1; 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 2017 |]

(* A pool is ready once every worker domain has run part of a loop. *)
let ready_pool ~workers =
  let pool = Pool.create ~num_domains:(workers - 1) () in
  let seen = Array.init (Pool.size pool) (fun _ -> Atomic.make false) in
  while not (Array.for_all Atomic.get seen) do
    Pool.parallel_chunked pool ~lo:0 ~hi:(64 * Pool.size pool) ~chunk:1 (fun ~worker ~lo:_ ~hi:_ ->
        Atomic.set seen.(worker) true)
  done;
  pool

(* Every experiment renders exactly one verdict line. *)
let passed output =
  List.filter (String.starts_with ~prefix:"verdict: ") (String.split_on_char '\n' output)
  = [ "verdict: PASS" ]

(* One regeneration of every table: (id, output or error, seconds). *)
let pass spans ~pool ~master_seed ~obs =
  List.map
    (fun (e : Experiment.t) ->
      Span.new_group spans;
      let output, s =
        Util.time (fun () ->
            Span.with_span spans ("experiment." ^ e.id) (fun () ->
                match e.run ~obs ~pool ~master_seed ~scale:Experiment.Full with
                | out -> Ok out
                | exception exn -> Error (Printexc.to_string exn)))
      in
      (e.id, output, s))
    Registry.all

let counter snapshot name =
  match List.assoc_opt name snapshot with Some (Metrics.Counter_v c) -> c | _ -> 0

let run ~seed ~seconds ~trace ~workers =
  let out = Outcome.create () in
  let k = Array.length master_seeds in
  let master_seed = master_seeds.(((seed mod k) + k) mod k) in
  Outcome.note "experiments-full master seed %d" master_seed;
  let setups =
    Array.init setup_reps (fun i ->
        let pool, s = Util.time (fun () -> ready_pool ~workers) in
        if i < setup_reps - 1 then Pool.shutdown pool;
        (pool, s))
  in
  let pool = fst setups.(setup_reps - 1) in
  Outcome.set out "setup_s" (Util.median (Array.map snd setups));
  let untraced = Span.create ~enabled:false in
  let total results = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 results in
  (* Untraced passes for as long as the run lasts (at least one). *)
  let rec passes acc busy =
    if acc <> [] && busy >= seconds then List.rev acc
    else
      let r = pass untraced ~pool ~master_seed ~obs:Obs.null in
      passes (r :: acc) (busy +. total r)
  in
  let plain = passes [] 0.0 in
  let tables_s = Util.median (Array.of_list (List.map total plain)) in
  let spans = Span.create ~enabled:trace in
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  let observed = pass spans ~pool ~master_seed ~obs in
  Pool.shutdown pool;
  List.iter
    (fun results ->
      List.iter
        (fun (id, output, _) ->
          Outcome.check out
            (match output with Ok o -> passed o | Error _ -> false)
            (Printf.sprintf "experiment %s: %s" id
               (match output with Ok _ -> "verdict is not PASS" | Error e -> "raised " ^ e)))
        results)
    [ List.hd plain; observed ];
  List.iter2
    (fun (id, a, _) (_, b, _) ->
      Outcome.check out (a = b)
        (Printf.sprintf "experiment %s: tables differ with obs on and off" id))
    (List.hd plain) observed;
  Outcome.set out "request_ms" (tables_s *. 1e3);
  Outcome.set out "tail_ms" (Util.tail (Array.of_list (List.map (fun r -> total r *. 1e3) plain)));
  Outcome.set out "peak_rss_mb" (Util.peak_rss_mb ());
  if trace then begin
    let observed_s = total observed in
    Outcome.set out "trace.overhead_tables_s" (observed_s -. tables_s);
    List.iter
      (fun (id, _, _) ->
        let num = int_of_string (String.sub id 1 (String.length id - 1)) in
        Outcome.set out
          (Printf.sprintf "experiments.e%02d_s" num)
          (Util.sum (Span.durations spans ("experiment." ^ id))))
      observed;
    let snapshot = Metrics.snapshot (Obs.metrics obs) in
    let latencies =
      Array.of_list
        (List.filter_map
           (function Trace.Trial_completed { latency_ms; _ } -> Some latency_ms | _ -> None)
           (Trace.events sink))
    in
    let trials = counter snapshot "montecarlo/trials" in
    Outcome.set out "montecarlo.trials" (float_of_int trials);
    Outcome.set out "montecarlo.trial_ms_p50" (Util.median latencies);
    Outcome.set out "montecarlo.trials_per_s" (float_of_int trials /. observed_s);
    Outcome.set out "spectral.solves"
      (float_of_int
         (List.fold_left
            (fun acc s -> acc + counter snapshot ("spectral/solves_" ^ s))
            0 [ "lanczos"; "power"; "jacobi" ]));
    Outcome.set out "spectral.matvecs" (float_of_int (counter snapshot "spectral/matvecs"));
    Outcome.set out "walk.cg_iterations" (float_of_int (counter snapshot "walk/cg_iterations"))
  end;
  Obs.close obs;
  (out, spans)
