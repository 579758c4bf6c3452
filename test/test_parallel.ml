(* Tests for the domain pool and the deterministic Monte-Carlo driver.
   The headline property: results are a function of the master seed only,
   never of the schedule or the number of domains. *)

module Pool = Cobra_parallel.Pool
module Montecarlo = Cobra_parallel.Montecarlo
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_parallel_for_covers_all_indices () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri (fun i c -> if c <> 1 then Alcotest.failf "index %d executed %d times" i c) hits)

let test_parallel_for_empty_range () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let ran = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> ran := true);
      Pool.parallel_for pool ~lo:7 ~hi:3 (fun _ -> ran := true);
      check_bool "no iteration on empty range" false !ran)

let test_serial_pool () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      check_int "size" 1 (Pool.size pool);
      let sum = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> sum := !sum + i);
      check_int "sum" 4950 !sum)

let test_pool_reuse () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      for round = 1 to 20 do
        let n = 100 * round in
        let hits = Array.make n 0 in
        Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- 1);
        let total = Array.fold_left ( + ) 0 hits in
        check_int (Printf.sprintf "round %d" round) n total
      done)

let test_parallel_init () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      let a = Pool.parallel_init pool 1000 (fun i -> i * i) in
      Alcotest.(check (array int)) "matches Array.init" (Array.init 1000 (fun i -> i * i)) a;
      Alcotest.(check (array int)) "empty" [||] (Pool.parallel_init pool 0 (fun i -> i)))

let test_exception_propagates () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let raised =
        try
          Pool.parallel_for pool ~lo:0 ~hi:1000 (fun i -> if i = 500 then failwith "boom");
          false
        with Failure msg -> msg = "boom"
      in
      check_bool "exception surfaced" true raised;
      (* The pool must still be usable after a failed loop. *)
      let hits = Array.make 10 0 in
      Pool.parallel_for pool ~lo:0 ~hi:10 ~chunk:1 (fun i -> hits.(i) <- i);
      check_int "pool survives" 45 (Array.fold_left ( + ) 0 hits))

let test_shutdown_idempotent () =
  let pool = Pool.create ~num_domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  let raised =
    try
      Pool.parallel_for pool ~lo:0 ~hi:1 (fun _ -> ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "use after shutdown rejected" true raised

let test_chunk_validation () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      Alcotest.check_raises "bad chunk" (Invalid_argument "Pool.parallel_for: chunk must be >= 1")
        (fun () -> Pool.parallel_for pool ~lo:0 ~hi:10 ~chunk:0 (fun _ -> ())))

let test_create_validation () =
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Pool.create: num_domains must be >= 0") (fun () ->
      ignore (Pool.create ~num_domains:(-1) ()))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Regression: exceptions used to be re-raised with [raise e], which
   resets the backtrace to the re-raise site inside pool.ml.  The raise
   site in the loop body must survive to the caller. *)
let test_backtrace_preserved () =
  Printexc.record_backtrace true;
  Pool.with_pool ~num_domains:0 (fun pool ->
      let bt =
        try
          Pool.parallel_for pool ~lo:0 ~hi:10 ~chunk:1 (fun i ->
              if i = 5 then failwith "bt-probe");
          Alcotest.fail "expected the loop to raise"
        with Failure _ -> Printexc.get_backtrace ()
      in
      check_bool "backtrace reaches the raise site" true (contains bt "test_parallel"))

let test_cancel_stops_iteration () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let cancel = Pool.Cancel.create () in
      let executed = ref 0 in
      let raised =
        try
          Pool.parallel_for pool ~lo:0 ~hi:1000 ~chunk:1 ~cancel (fun i ->
              incr executed;
              if i = 10 then Pool.Cancel.cancel cancel);
          false
        with Pool.Cancelled -> true
      in
      check_bool "raised Cancelled" true raised;
      check_bool "stopped before the end" true (!executed < 1000);
      check_bool "ran up to the cancel point" true (!executed >= 11);
      (* The pool survives, and a fresh token does not trip. *)
      let hits = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:10 ~cancel:(Pool.Cancel.create ()) (fun _ -> incr hits);
      check_int "pool survives cancellation" 10 !hits)

let test_cancel_before_start () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let cancel = Pool.Cancel.create () in
      Pool.Cancel.cancel cancel;
      let executed = ref 0 in
      let raised =
        try
          Pool.parallel_for pool ~lo:0 ~hi:100 ~cancel (fun _ -> incr executed);
          false
        with Pool.Cancelled -> true
      in
      check_bool "raised Cancelled" true raised;
      check_int "nothing ran under a tripped token" 0 !executed)

let test_deadline_stops_iteration () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let executed = ref 0 in
      let raised =
        try
          Pool.parallel_for pool ~lo:0 ~hi:1000 ~chunk:1 ~deadline_s:0.05 (fun _ ->
              incr executed;
              Unix.sleepf 0.01);
          false
        with Pool.Deadline_exceeded -> true
      in
      check_bool "raised Deadline_exceeded" true raised;
      check_bool "stopped before the end" true (!executed < 1000);
      check_bool "at least one chunk ran" true (!executed >= 1);
      (* A generous deadline never trips. *)
      let hits = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:10 ~deadline_s:3600.0 (fun _ -> incr hits);
      check_int "generous deadline" 10 !hits)

let test_deadline_validation () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      Alcotest.check_raises "zero deadline"
        (Invalid_argument "Pool.parallel_for: deadline must be > 0") (fun () ->
          Pool.parallel_for pool ~lo:0 ~hi:1 ~deadline_s:0.0 (fun _ -> ())))

(* A body failure must win over a cancellation that trips afterwards. *)
let test_failure_beats_cancellation () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let cancel = Pool.Cancel.create () in
      let raised =
        try
          Pool.parallel_for pool ~lo:0 ~hi:100 ~chunk:1 ~cancel (fun i ->
              if i = 3 then begin
                Pool.Cancel.cancel cancel;
                failwith "boom"
              end);
          "nothing"
        with
        | Failure _ -> "failure"
        | Pool.Cancelled -> "cancelled"
      in
      Alcotest.(check string) "failure takes precedence" "failure" raised)

(* Workers back off to microsleeps when idle; a burst of jobs after a
   long idle period must still be picked up promptly and correctly. *)
let test_idle_then_burst () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      (* Warm the pool, then leave it idle long past the spin budget so
         every worker is deep in the sleep phase of its backoff. *)
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun _ -> ());
      Unix.sleepf 0.05;
      for round = 1 to 5 do
        let n = 5_000 in
        let hits = Array.make n 0 in
        let t0 = Unix.gettimeofday () in
        Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
        let elapsed = Unix.gettimeofday () -. t0 in
        Array.iteri
          (fun i c ->
            if c <> 1 then
              Alcotest.failf "round %d: index %d executed %d times after idle" round i c)
          hits;
        (* Generous bound: wake-up latency is capped at max_idle_sleep
           (0.2 ms per worker), so even a loaded CI box finishes a burst
           in well under a second. *)
        check_bool (Printf.sprintf "round %d wakes up promptly" round) true (elapsed < 1.0);
        if round < 5 then Unix.sleepf 0.02
      done)

(* The determinism contract: parallel = serial, for any domain count. *)
let test_montecarlo_schedule_independence () =
  let work ~trial rng =
    ignore trial;
    (* Uneven workloads to force domains to interleave differently. *)
    let spins = 1 + Rng.int_below rng 2000 in
    let acc = ref 0.0 in
    for _ = 1 to spins do
      acc := !acc +. Rng.float01 rng
    done;
    !acc
  in
  let serial = Serial_oracle.run ~master_seed:99 ~trials:200 work in
  List.iter
    (fun domains ->
      Pool.with_pool ~num_domains:domains (fun pool ->
          let par = Montecarlo.run ~pool ~master_seed:99 ~trials:200 work in
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "bitwise equal with %d domains" domains)
            serial par))
    [ 0; 1; 3; 7 ]

let test_montecarlo_seed_sensitivity () =
  let work ~trial rng =
    ignore trial;
    Rng.float01 rng
  in
  Pool.with_pool ~num_domains:0 (fun pool ->
      let a = Montecarlo.run ~pool ~master_seed:1 ~trials:50 work in
      let b = Montecarlo.run ~pool ~master_seed:2 ~trials:50 work in
      check_bool "different seeds differ" false (a = b))

let test_montecarlo_validation () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      Alcotest.check_raises "zero trials" (Invalid_argument "Montecarlo: trials must be >= 1")
        (fun () ->
          ignore
            (Montecarlo.run ~pool ~master_seed:1 ~trials:0 (fun ~trial rng ->
                 ignore trial;
                 Rng.float01 rng))))

let test_pool_stats () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let s0 = Pool.stats pool in
      check_int "workers matches size" (Pool.size pool) s0.workers;
      check_int "idle pool has no busy workers" 0 s0.busy_workers;
      check_int "idle pool has no jobs in flight" 0 s0.jobs_in_flight;
      let completed0 = s0.jobs_completed in
      (* Observe the gauges from inside a running loop body: the
         submitting caller is itself a busy worker, so both gauges must
         read >= 1 at that instant. *)
      let saw_in_flight = ref 0 and saw_busy = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:64 ~chunk:1 (fun _ ->
          let s = Pool.stats pool in
          if s.jobs_in_flight > !saw_in_flight then saw_in_flight := s.jobs_in_flight;
          if s.busy_workers > !saw_busy then saw_busy := s.busy_workers);
      check_int "exactly one job in flight during the loop" 1 !saw_in_flight;
      check_bool "at least one busy worker during the loop" true (!saw_busy >= 1);
      check_bool "busy never exceeds workers" true (!saw_busy <= s0.workers);
      let s1 = Pool.stats pool in
      check_int "completed incremented once" (completed0 + 1) s1.jobs_completed;
      check_int "quiescent: no busy workers" 0 s1.busy_workers;
      check_int "quiescent: no jobs in flight" 0 s1.jobs_in_flight;
      (* A failing loop still restores the gauges. *)
      (try Pool.parallel_for pool ~lo:0 ~hi:8 (fun _ -> failwith "boom")
       with Failure _ -> ());
      let s2 = Pool.stats pool in
      check_int "failure: gauges restored" 0 s2.jobs_in_flight;
      check_int "failure: still counted as completed" (completed0 + 2) s2.jobs_completed)

let parallel_sum_matches_test =
  QCheck2.Test.make ~name:"parallel_init = Array.init for arbitrary sizes" ~count:30
    QCheck2.Gen.(pair (int_range 0 5000) (int_range 0 4))
    (fun (n, domains) ->
      Pool.with_pool ~num_domains:domains (fun pool ->
          Pool.parallel_init pool n (fun i -> (i * 7) mod 13) = Array.init n (fun i -> (i * 7) mod 13)))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "covers all indices" `Quick test_parallel_for_covers_all_indices;
          Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
          Alcotest.test_case "serial pool" `Quick test_serial_pool;
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "parallel_init" `Quick test_parallel_init;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "idle backoff then burst" `Quick test_idle_then_burst;
          Alcotest.test_case "backtrace preserved" `Quick test_backtrace_preserved;
          Alcotest.test_case "cancel stops iteration" `Quick test_cancel_stops_iteration;
          Alcotest.test_case "cancel before start" `Quick test_cancel_before_start;
          Alcotest.test_case "deadline stops iteration" `Quick test_deadline_stops_iteration;
          Alcotest.test_case "deadline validation" `Quick test_deadline_validation;
          Alcotest.test_case "failure beats cancellation" `Quick test_failure_beats_cancellation;
          Alcotest.test_case "stats introspection" `Quick test_pool_stats;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "schedule independence" `Quick test_montecarlo_schedule_independence;
          Alcotest.test_case "seed sensitivity" `Quick test_montecarlo_seed_sensitivity;
          Alcotest.test_case "validation" `Quick test_montecarlo_validation;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest parallel_sum_matches_test ]);
    ]
