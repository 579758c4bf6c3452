module Graph = Cobra_graph.Graph
module Props = Cobra_graph.Props

type result = {
  summary : Cobra_stats.Summary.stats;
  median : float;
  q90 : float;
  censored : int;
  mean_transmissions : float;
  values : float array;
}

let start_heuristic g =
  if Graph.n g = 0 then invalid_arg "Estimate.start_heuristic: empty graph";
  fst (Props.double_sweep g)

(* Gather per-trial (value, transmissions) observations, where a negative
   value marks a censored trial.  The codec lets a harness-level journal
   checkpoint and replay individual trials (see Montecarlo.with_context). *)
let trial_codec =
  Cobra_parallel.Journal.(pair float_ float_)

let summarise obs ~trials =
  let completed = Array.of_list (List.filter (fun (v, _) -> v >= 0.0) (Array.to_list obs)) in
  let values = Array.map fst completed and txs = Array.map snd completed in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  (* With no completed trial this is the empty sample's summary: count 0
     and every statistic nan. *)
  let median, q90 =
    match values with
    | [||] -> (nan, nan)
    | _ -> (
        match Cobra_stats.Quantile.quantiles values [ 0.5; 0.9 ] with
        | [ median; q90 ] -> (median, q90)
        | _ -> assert false)
  in
  {
    summary = Cobra_stats.Summary.of_array values;
    median;
    q90;
    censored = trials - Array.length completed;
    mean_transmissions = mean txs;
    values;
  }

let collect ?obs ~pool ~master_seed ~trials run_one =
  if trials < 1 then invalid_arg "Estimate: trials must be >= 1";
  let obs =
    Cobra_parallel.Montecarlo.run ?obs ~codec:trial_codec ~pool ~master_seed ~trials run_one
  in
  summarise obs ~trials

let trial_master ~master_seed ~trial =
  Cobra_prng.Rng.keyed_master (Cobra_prng.Rng.for_trial ~master:master_seed ~trial)

(* Trial-level or round-level parallelism, chosen from the workload's
   shape: with at least as many trials as workers, whole trials keep
   every worker busy with no per-round barrier; with fewer, the pool is
   better spent sharding the rounds of trials run one after another,
   provided the graph is large enough for any round to shard.  Every
   trial draws its keyed master from its own Montecarlo stream either
   way, so both schedules give bit-identical results. *)
let collect_process ?obs ~pool ?dense_threshold ~master_seed ~trials g run_one =
  let threshold = Option.value dense_threshold ~default:Process.default_dense_threshold in
  if trials < Cobra_parallel.Pool.size pool && Graph.n g > threshold then
    Cobra_parallel.Pool.with_pool ~num_domains:0 (fun serial ->
        collect ?obs ~pool:serial ~master_seed ~trials (fun ~trial:_ rng ->
            run_one ~pool:(Some pool) rng))
  else collect ?obs ~pool ~master_seed ~trials (fun ~trial:_ rng -> run_one ~pool:None rng)

let cover_time ?obs ~pool ?dense_threshold ~master_seed ~trials ?branching ?lazy_ ?max_rounds
    ?start g =
  let start = match start with Some s -> s | None -> start_heuristic g in
  collect_process ?obs ~pool ?dense_threshold ~master_seed ~trials g (fun ~pool rng ->
      match
        Cobra.run_cover_detailed g rng ?branching ?lazy_ ?max_rounds ?pool ?dense_threshold ~start
          ()
      with
      | Some r -> (float_of_int r.rounds, float_of_int r.transmissions)
      | None -> (-1.0, nan))

(* The frozen perfbench harness calls the estimator by this name. *)
let cover_time_keyed = cover_time

let infection_time ?obs ~pool ?dense_threshold ~master_seed ~trials ?branching ?lazy_
    ?max_rounds ?source g =
  let source = match source with Some s -> s | None -> start_heuristic g in
  let r =
    collect_process ?obs ~pool ?dense_threshold ~master_seed ~trials g (fun ~pool rng ->
        match
          Bips.run_infection g rng ?branching ?lazy_ ?max_rounds ?pool ?dense_threshold ~source ()
        with
        | Some t -> (float_of_int t, nan)
        | None -> (-1.0, nan))
  in
  { r with mean_transmissions = nan }

let walk_cover_time ?obs ~pool ~master_seed ~trials ?lazy_ ?max_steps ?start g =
  let start = match start with Some s -> s | None -> start_heuristic g in
  let r =
    collect ?obs ~pool ~master_seed ~trials (fun ~trial rng ->
        ignore trial;
        match Walk.cover_time g rng ?lazy_ ?max_steps ~start () with
        | Some t -> (float_of_int t, float_of_int t)
        | None -> (-1.0, nan))
  in
  r

let multi_walk_cover_time ?obs ~pool ~master_seed ~trials ~k ?lazy_ ?max_rounds ?start g =
  let start = match start with Some s -> s | None -> start_heuristic g in
  collect ?obs ~pool ~master_seed ~trials (fun ~trial rng ->
      ignore trial;
      match Walk.multi_cover_time g rng ?lazy_ ?max_rounds ~k ~start () with
      | Some t -> (float_of_int t, float_of_int (t * k))
      | None -> (-1.0, nan))
