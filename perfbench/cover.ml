(* Workload cover-cgr: COBRA cover time on one large packed graph.

   Set-up generates ba:8 at n = 10^6 (about 8·10^6 edges), writes it with
   Cgr.write, maps it back with Cgr.read_mmap and starts a pool as wide as
   the machine.  The work is repeated one-trial calls of
   Estimate.cover_time_keyed, about 53 rounds each, whose dense rounds
   load the keyed step, the scratch merge, the keyed draws and scans of
   the mapped CSR.  Monte-Carlo trial parallelism, the sequential kernels
   and the spectral code stay idle.

   The traced run replaces the estimator by the benchmark's own trial
   loop over Process.cobra_step_keyed and Bitset.union_into, with spans
   around each call, then replays single calls on the densest frontier a
   trial produced (the phase rows) and measures the machine's own
   bandwidths (the substrate rows). *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Cgr = Cobra_graph.Cgr
module Bitset = Cobra_bitset.Bitset
module Keyed = Cobra_prng.Keyed
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Estimate = Cobra_core.Estimate

let family = "ba:8"
let n = 1_000_000
let setup_reps = 3
let branching = Process.Fixed 2

(* The kernel's default dense threshold, passed explicitly: a pinned
   threshold turns the A/B auto-tuner off, whose path choices made single
   calls range from 1.6 to 3.7 s on the same graph.  So the end-to-end
   rows do not measure the default scheduling the programs use; only the
   traced run times it (workload.cover_auto_s, phase.step_auto_ms), and
   a change to the auto-tuner moves no end-to-end metric. *)
let dense_threshold = 1024

type setup = {
  g : Graph.t;
  pool : Pool.t;
  setup_s : float;
  generate_s : float;
  write_s : float;
  open_s : float;
}

let setup_once ~path ~gseed ~workers =
  let t0 = Util.now () in
  let built, generate_s = Util.time (fun () -> Gen.by_name family ~n (Rng.create gseed)) in
  let (), write_s = Util.time (fun () -> Cgr.write path built) in
  let g, open_s = Util.time (fun () -> Cgr.read_mmap path) in
  let pool = Pool.create ~num_domains:(workers - 1) () in
  { g; pool; setup_s = Util.seconds_since t0; generate_s; write_s; open_s }

(* Per-round facts of one trial of the benchmark's own loop. *)
type round_log = { mutable frontiers : int list; mutable tx : int list }

(* The densest frontier seen, kept for the phase replays. *)
type capture = { mutable set : Bitset.t option; mutable round : int; mutable master : int }

(* One COBRA trial driven from public calls: Cobra.run_loop's round
   structure with a span around every step and visited-set union. *)
let own_trial spans g ~pool ~master ~start ~log ~capture =
  let nv = Graph.n g in
  let ctx = Process.make_keyed_ctx ~pool ~dense_threshold g ~master in
  let current = ref (Bitset.create nv) and next = ref (Bitset.create nv) in
  let visited = Bitset.create nv in
  Bitset.add !current start;
  Bitset.add visited start;
  let max_rounds = Cobra.default_max_rounds g in
  let rec go round =
    if Bitset.cardinal visited = nv then Some (round - 1)
    else if round > max_rounds then None
    else begin
      let c = Bitset.cardinal !current in
      (match capture with
      | Some cap
        when c > (match cap.set with Some s -> Bitset.cardinal s | None -> dense_threshold) ->
          cap.set <- Some (Bitset.copy !current);
          cap.round <- round;
          cap.master <- master
      | _ -> ());
      let sent =
        Span.with_span spans "round" (fun () ->
            let sent =
              Span.with_span spans "round.step" (fun () ->
                  Process.cobra_step_keyed g ctx ~round ~branching ~lazy_:false ~current:!current
                    ~next:!next)
            in
            let tmp = !current in
            current := !next;
            next := tmp;
            Span.with_span spans "round.union" (fun () -> Bitset.union_into ~into:visited !current);
            sent)
      in
      log.frontiers <- c :: log.frontiers;
      log.tx <- sent :: log.tx;
      go (round + 1)
    end
  in
  go 1

(* The replay reference: the library's own single-run entry point. *)
let reference_rounds g ~pool ~master ~start =
  Cobra.run_cover g (Rng.create 0) ~pool ~rng_mode:(Process.Keyed { master }) ~dense_threshold
    ~start ()

(* One full read of the CSR arrays, as a neighbour scan does. *)
let scan_csr g =
  let open Bigarray in
  match Graph.csr g with
  | Graph.Csr_packed { offsets; adj } ->
      let acc = ref 0 in
      for i = 0 to Array1.dim offsets - 1 do
        acc := !acc + Int32.to_int (Array1.unsafe_get offsets i)
      done;
      for i = 0 to Array1.dim adj - 1 do
        acc := !acc + Int32.to_int (Array1.unsafe_get adj i)
      done;
      ignore (Sys.opaque_identity !acc)
  | Graph.Csr_boxed { offsets; adj } ->
      ignore (Sys.opaque_identity (Array.fold_left ( + ) (Array.fold_left ( + ) 0 offsets) adj))

let median_ms ~reps f =
  Util.median (Array.init reps (fun _ -> snd (Util.time f) *. 1e3))

(* Phase rows: single public calls replayed on a captured dense frontier
   (what bench/profile.exe printed). *)
let phases out g ~pool ~master ~frontier ~round ~round_bound =
  let nv = Graph.n g in
  let next = Bitset.create nv in
  let step ctx () =
    ignore
      (Process.cobra_step_keyed g ctx ~round ~branching ~lazy_:false ~current:frontier ~next : int)
  in
  let reps = 7 in
  let serial = median_ms ~reps (step (Process.make_keyed_ctx g ~master)) in
  let sharded =
    median_ms ~reps (step (Process.make_keyed_ctx ~pool ~dense_threshold:1 g ~master))
  in
  let auto_ctx = Process.make_keyed_ctx ~pool g ~master in
  (* The first two dense rounds of a context probe both paths. *)
  step auto_ctx ();
  step auto_ctx ();
  let auto = median_ms ~reps (step auto_ctx) in
  let size = Pool.size pool in
  let barrier_us =
    1e3 *. median_ms ~reps:400 (fun () -> Pool.parallel_for pool ~lo:0 ~hi:size ~chunk:1 ignore)
  in
  let produced = Bitset.copy next in
  let srcs = Array.init size (fun _ -> Bitset.create nv) in
  let merges =
    Array.init reps (fun _ ->
        Array.iter (fun s -> Bitset.blit ~src:produced ~dst:s) srcs;
        let into = Bitset.create nv in
        snd
          (Util.time (fun () ->
               ignore
                 (Bitset.drain_words_range ~into srcs ~lo:0 ~hi:(Bitset.num_words into) : int)))
        *. 1e3)
  in
  let k = Keyed.create ~master in
  let out_buf = Array.make 2 0 in
  let draws () =
    let base = Keyed.round_base k ~round in
    Bitset.iter
      (fun u ->
        Keyed.position_at k ~base ~vertex:u;
        let d = Graph.degree g u in
        if d > 0 then Keyed.int_below_run k d ~out:out_buf ~count:2)
      frontier
  in
  let best = Float.min serial sharded in
  Outcome.set out "phase.step_serial_ms" serial;
  Outcome.set out "phase.step_sharded_ms" sharded;
  Outcome.set out "phase.step_auto_ms" auto;
  Outcome.set out "phase.barrier_us" barrier_us;
  Outcome.set out "phase.merge_ms" (Util.median merges);
  Outcome.set out "phase.draws_ms" (median_ms ~reps draws);
  Outcome.set out "phase.auto_vs_best" (auto /. best);
  Outcome.note "phase frontier=%d round=%d pool=%d" (Bitset.cardinal frontier) round size;
  if Domain.recommended_domain_count () > 1 then
    Outcome.set out "phase.sharded_vs_serial" (sharded /. serial)
  else Outcome.note "phase.sharded_vs_serial unmeasured: Domain.recommended_domain_count = 1";
  (* DESIGN §7.1: the auto-tuned step never loses to either fixed path. *)
  Outcome.note "phase.auto_never_loses=%b (auto %.3f ms vs best %.3f ms, bound %.2f)"
    (auto <= best *. (1.0 +. round_bound))
    auto best round_bound

(* Substrate rows: the machine's own rates, with the bytes each rate
   divides by computed from the array sizes. *)
let substrate out g ~llc ~frontier =
  let open Bigarray in
  let bytes = Util.memcpy_bytes llc in
  let src = Array1.create char c_layout bytes and dst = Array1.create char c_layout bytes in
  Array1.fill src 'c';
  Array1.fill dst 'd';
  let memcpy_s = median_ms ~reps:3 (fun () -> Array1.blit src dst) /. 1e3 in
  let memcpy_gbps = float_of_int bytes /. memcpy_s /. 1e9 in
  Outcome.note "substrate memcpy buffer=%d bytes (4 x LLC %d bytes), computed from array size"
    bytes llc;
  let csr_bytes = Graph.storage_bytes g in
  let scan_s = median_ms ~reps:3 (fun () -> scan_csr g) /. 1e3 in
  let csr_gbps = float_of_int csr_bytes /. scan_s /. 1e9 in
  let nw = Bitset.num_words frontier in
  let into = Bitset.create (Graph.n g) in
  let sweep_s = median_ms ~reps:101 (fun () -> Bitset.union_into ~into frontier) /. 1e3 in
  let draws = 1 lsl 20 in
  let buf = Array.make draws 0 in
  let k = Keyed.create ~master:1 in
  let draw_s =
    median_ms ~reps:5 (fun () -> Keyed.int_below_run k 1000 ~out:buf ~count:draws) /. 1e3
  in
  Outcome.set out "substrate.memcpy_gbps" memcpy_gbps;
  Outcome.set out "substrate.csr_scan_gbps" csr_gbps;
  Outcome.set out "substrate.csr_scan_vs_memcpy" (csr_gbps /. memcpy_gbps);
  Outcome.set out "substrate.csr_vs_llc" (float_of_int csr_bytes /. float_of_int (max 1 llc));
  if csr_bytes < llc then
    Outcome.note
      "substrate CSR (%d bytes) fits in the LLC (%d bytes): csr_scan_gbps is a cache rate"
      csr_bytes llc;
  (* A sweep reads two word arrays and writes one, 8 bytes a word. *)
  Outcome.set out "substrate.bitset_sweep_gbps" (float_of_int (3 * 8 * nw) /. sweep_s /. 1e9);
  Outcome.set out "substrate.keyed_draws_per_s" (float_of_int draws /. draw_s)

(* Calls per run at least; the traced run makes three executions of
   each trial (estimator, traced loop, reference) and needs fewer. *)
let min_calls ~trace = if trace then 3 else 8

(* Auto-tuned calls the traced run times beside the pinned ones. *)
let auto_calls = 3

let run ~seed ~seconds ~trace ~work_dir ~workers ~llc ~round_bound =
  let out = Outcome.create () in
  let rng = Rng.create seed in
  let gseed = Rng.int_below rng (1 lsl 30) in
  let path = Filename.concat work_dir "cover.cgr" in
  let setups =
    List.init setup_reps (fun i ->
        if i > 0 then Gc.full_major ();
        let s = setup_once ~path ~gseed ~workers in
        if i < setup_reps - 1 then Pool.shutdown s.pool;
        s)
  in
  let med f = Util.median (Array.of_list (List.map f setups)) in
  let { g; pool; _ } = List.nth setups (setup_reps - 1) in
  Outcome.note "cover-cgr graph %s n=%d m=%d storage=%d bytes pool=%d" family (Graph.n g)
    (Graph.m g) (Graph.storage_bytes g) (Pool.size pool);
  Outcome.set out "setup_s" (med (fun s -> s.setup_s));
  (* The first scan after mapping pays the page faults; in the untraced
     run the first estimator call pays them instead. *)
  if trace then Outcome.set out "graph.first_scan_s" (snd (Util.time (fun () -> scan_csr g)));
  let spans = Span.create ~enabled:trace in
  let capture = { set = None; round = 0; master = 0 } in
  let log = { frontiers = []; tx = [] } in
  let est_s = ref [] and round_ms = ref [] and traced_s = ref [] in
  let trial_rounds = ref [] in
  let busy = ref 0.0 and i = ref 0 in
  let show = Option.fold ~none:"censored" ~some:string_of_int in
  while !i < min_calls ~trace || !busy < seconds do
    let master_seed = Rng.int_below rng (1 lsl 30) in
    let master = Estimate.trial_master ~master_seed ~trial:0 in
    let r, s =
      Util.time (fun () ->
          Estimate.cover_time_keyed ~pool ~dense_threshold ~master_seed ~trials:1 g)
    in
    busy := !busy +. s;
    est_s := s :: !est_s;
    let est_rounds = if r.censored = 0 then Some (int_of_float r.summary.mean) else None in
    Outcome.check out (r.censored = 0) (Printf.sprintf "cover-cgr trial %d censored" !i);
    Option.iter (fun k -> round_ms := (s *. 1e3 /. float_of_int k) :: !round_ms) est_rounds;
    Outcome.note "cover-cgr call %d: %.3f s, %s rounds" !i s (show est_rounds);
    (* The benchmark's own loop must agree with the library: with the
       estimator on the first trial of an untraced run, and with both the
       estimator and Cobra.run_cover on every traced trial. *)
    if trace || !i = 0 then begin
      let own, own_s =
        Util.time (fun () ->
            Span.new_group spans;
            Span.with_span spans "estimator" (fun () ->
                let start =
                  Span.with_span spans "estimator.start_heuristic" (fun () ->
                      Estimate.start_heuristic g)
                in
                Span.with_span spans "trial" (fun () ->
                    own_trial spans g ~pool ~master ~start ~log
                      ~capture:(if trace && !i = 0 then Some capture else None))))
      in
      Outcome.check out (own = est_rounds)
        (Printf.sprintf "cover-cgr trial %d: own loop %s rounds, estimator %s" !i (show own)
           (show est_rounds));
      if trace then begin
        busy := !busy +. own_s;
        traced_s := own_s :: !traced_s;
        Option.iter (fun k -> trial_rounds := float_of_int k :: !trial_rounds) own;
        let reference = reference_rounds g ~pool ~master ~start:(Estimate.start_heuristic g) in
        Outcome.check out (reference = own)
          (Printf.sprintf "cover-cgr trial %d: own loop %s rounds, Cobra.run_cover %s" !i
             (show own) (show reference))
      end
    end;
    incr i
  done;
  let est_s = Array.of_list (List.rev !est_s) in
  let cover_s = Util.median est_s in
  Outcome.set out "request_ms" (cover_s *. 1e3);
  Outcome.set out "tail_ms" (Util.tail est_s *. 1e3);
  Outcome.set out "peak_rss_mb" (Util.peak_rss_mb ());
  if trace then begin
    let traced_cover_s = Util.median (Array.of_list !traced_s) in
    (* The estimator's default, auto-tuned scheduling, timed beside the
       pinned threshold the end-to-end rows use. *)
    let auto_s =
      Array.init auto_calls (fun _ ->
          let master_seed = Rng.int_below rng (1 lsl 30) in
          snd (Util.time (fun () -> Estimate.cover_time_keyed ~pool ~master_seed ~trials:1 g)))
    in
    Outcome.set out "workload.cover_auto_s" (Util.median auto_s);
    Outcome.set out "workload.round_ms" (Util.median (Array.of_list !round_ms));
    Outcome.set out "trace.overhead_cover_s" (traced_cover_s -. cover_s);
    Outcome.set out "graph.generate_s" (med (fun s -> s.generate_s));
    Outcome.set out "graph.cgr_write_s" (med (fun s -> s.write_s));
    Outcome.set out "graph.cgr_open_ms" (med (fun s -> s.open_s *. 1e3));
    Outcome.set out "graph.bytes_per_entry"
      (float_of_int (Graph.storage_bytes g) /. float_of_int (2 * Graph.m g));
    let trials = Array.length (Span.durations spans "trial") in
    Outcome.set out "estimator.start_heuristic_s"
      (Util.median (Span.durations spans "estimator.start_heuristic"));
    Outcome.set out "estimator.trials" (float_of_int trials);
    Outcome.set out "estimator.censored" (float_of_int (trials - List.length !trial_rounds));
    let frac, base = Span.unaccounted spans "estimator" in
    Outcome.set out "estimator.unaccounted_frac" frac;
    Outcome.set out "estimator.unaccounted_base_s" base;
    let trial_s = Span.durations spans "trial" in
    Outcome.set out "trial.s_p50" (Util.median trial_s);
    Outcome.set out "trial.rounds_mean" (Util.mean (Array.of_list !trial_rounds));
    let frac, base = Span.unaccounted spans "trial" in
    Outcome.set out "trial.unaccounted_frac" frac;
    Outcome.set out "trial.unaccounted_base_s" base;
    let step_s = Span.durations spans "round.step" in
    let frontiers = Array.of_list (List.map float_of_int log.frontiers) in
    let rounds = Array.length frontiers in
    Outcome.set out "round.count" (float_of_int rounds);
    Outcome.set out "round.step_ms_p50" (1e3 *. Util.median step_s);
    Outcome.set out "round.step_frac" (Util.sum step_s /. Util.sum trial_s);
    Outcome.set out "round.union_ms_p50" (1e3 *. Util.median (Span.durations spans "round.union"));
    Outcome.set out "round.dense_frac"
      (float_of_int (List.length (List.filter (fun c -> c > dense_threshold) log.frontiers))
      /. float_of_int (max 1 rounds));
    Outcome.set out "round.frontier_mean" (Util.mean frontiers);
    Outcome.set out "round.transmissions_per_s"
      (float_of_int (List.fold_left ( + ) 0 log.tx) /. Util.sum step_s);
    match capture.set with
    | Some frontier ->
        phases out g ~pool ~master:capture.master ~frontier ~round:capture.round ~round_bound;
        substrate out g ~llc ~frontier
    | None -> Outcome.check out false "cover-cgr: no dense frontier captured"
  end;
  Pool.shutdown pool;
  (out, spans)
