(* Fault-tolerance layer: per-trial failure isolation, bounded retry,
   JSONL checkpoint journals, cooperative cancellation and deadlines.
   The headline property mirrors the CLI acceptance test: a sweep that
   is interrupted and resumed produces bit-identical results to an
   uninterrupted run with the same seed. *)

module Pool = Cobra_parallel.Pool
module Montecarlo = Cobra_parallel.Montecarlo
module Journal = Cobra_parallel.Journal
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmp_journal =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobra-test-journal-%d-%d.jsonl" (Unix.getpid ()) !counter)

let with_tmp_journal f =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------- failure isolation and retry ---------- *)

let test_failure_isolation () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let work ~trial rng =
        if trial = 7 then failwith "trial 7 crashes";
        Rng.float01 rng
      in
      let results = Montecarlo.run_results ~pool ~master_seed:5 ~trials:20 work in
      let reference =
        Montecarlo.run_serial ~master_seed:5 ~trials:20 (fun ~trial rng ->
            ignore trial;
            Rng.float01 rng)
      in
      Array.iteri
        (fun trial r ->
          match r with
          | Ok v ->
              check_bool "only trial 7 fails" true (trial <> 7);
              Alcotest.(check (float 0.0))
                (Printf.sprintf "trial %d unaffected" trial)
                reference.(trial) v
          | Error (f : Montecarlo.failure) ->
              check_int "failing trial" 7 trial;
              check_int "no retries by default" 1 f.attempts;
              check_bool "exception recorded" true (match f.exn with Failure _ -> true | _ -> false))
        results)

let test_run_reraises_first_failure () =
  Printexc.record_backtrace true;
  Pool.with_pool ~num_domains:0 (fun pool ->
      let raised =
        try
          ignore
            (Montecarlo.run ~pool ~master_seed:5 ~trials:10 (fun ~trial rng ->
                 ignore (Rng.float01 rng);
                 if trial = 3 then failwith "boom";
                 0.0));
          false
        with Failure msg -> msg = "boom"
      in
      check_bool "run re-raises the failure" true raised)

let test_retry_recovers_flaky_trial () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let attempts = Array.make 10 0 in
      let work ~trial rng =
        attempts.(trial) <- attempts.(trial) + 1;
        (* Trial 4 fails on its first attempt only. *)
        if trial = 4 && attempts.(trial) = 1 then failwith "flaky";
        Rng.float01 rng
      in
      let results = Montecarlo.run_results ~retries:1 ~pool ~master_seed:9 ~trials:10 work in
      let reference =
        Montecarlo.run_serial ~master_seed:9 ~trials:10 (fun ~trial rng ->
            ignore trial;
            Rng.float01 rng)
      in
      check_int "trial 4 ran twice" 2 attempts.(4);
      (match results.(4) with
      | Ok v ->
          (* The retry reuses the identical per-trial PRNG, so the
             recovered value matches an uninterrupted run bitwise. *)
          Alcotest.(check (float 0.0)) "retried value deterministic" reference.(4) v
      | Error _ -> Alcotest.fail "retry should have recovered trial 4");
      Array.iteri
        (fun trial n -> if trial <> 4 then check_int "one attempt elsewhere" 1 n)
        attempts)

let test_retry_exhaustion_counts_attempts () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let results =
        Montecarlo.run_results ~retries:2 ~pool ~master_seed:1 ~trials:3 (fun ~trial rng ->
            ignore (Rng.float01 rng);
            if trial = 1 then failwith "always fails";
            trial)
      in
      match results.(1) with
      | Error (f : Montecarlo.failure) -> check_int "1 + 2 retries" 3 f.attempts
      | Ok _ -> Alcotest.fail "trial 1 must fail")

(* ---------- journal: checkpoint, replay, resume ---------- *)

let test_journal_replay_skips_execution () =
  with_tmp_journal (fun path ->
      let codec = Journal.float_ in
      let work ~trial rng =
        ignore trial;
        Rng.float01 rng
      in
      let first =
        Pool.with_pool ~num_domains:2 (fun pool ->
            let j = Journal.create path in
            Journal.set_experiment j "unit";
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Montecarlo.run ~codec ~journal:j ~pool ~master_seed:42 ~trials:50 work)
        )
      in
      (* Resume: every trial is checkpointed, so a body that would crash
         if executed proves replay never calls it. *)
      let second =
        Pool.with_pool ~num_domains:2 (fun pool ->
            let j = Journal.load path in
            check_int "all checkpoints loaded" 50 (Journal.loaded j);
            Journal.set_experiment j "unit";
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () ->
                let r =
                  Montecarlo.run ~codec ~journal:j ~pool ~master_seed:42 ~trials:50
                    (fun ~trial _ -> Alcotest.failf "trial %d executed despite checkpoint" trial)
                in
                check_int "all trials replayed" 50 (Journal.replayed j);
                check_int "nothing appended" 0 (Journal.appended j);
                r))
      in
      Alcotest.(check (array (float 0.0))) "replay is bit-identical" first second)

let test_journal_partial_resume_bit_identical () =
  with_tmp_journal (fun path ->
      let codec = Journal.(pair float_ int_) in
      let work ~trial rng = (Rng.float01 rng, trial * trial) in
      let baseline =
        Pool.with_pool ~num_domains:0 (fun pool ->
            Montecarlo.run ~pool ~master_seed:7 ~trials:40 work)
      in
      (* Interrupt a journaled sweep partway via a cancel token tripped
         from inside a trial body. *)
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.create path in
          Journal.set_experiment j "unit";
          let cancel = Pool.Cancel.create () in
          (try
             ignore
               (Montecarlo.run ~codec ~journal:j ~cancel ~pool ~master_seed:7 ~trials:40
                  (fun ~trial rng ->
                    if trial = 3 then Pool.Cancel.cancel cancel;
                    work ~trial rng));
             Alcotest.fail "expected Interrupted"
           with Montecarlo.Interrupted { reason = `Cancelled; completed; total } ->
             check_int "total" 40 total;
             check_bool "some trials done" true (completed > 0);
             check_bool "not all trials done" true (completed < 40);
             check_int "completed trials checkpointed" completed (Journal.appended j));
          Journal.close j);
      (* Resume from the partial journal and compare bitwise. *)
      let resumed =
        Pool.with_pool ~num_domains:2 (fun pool ->
            let j = Journal.load path in
            check_bool "partial journal loaded" true (Journal.loaded j > 0);
            Journal.set_experiment j "unit";
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Montecarlo.run ~codec ~journal:j ~pool ~master_seed:7 ~trials:40 work))
      in
      Alcotest.(check bool) "kill + resume = uninterrupted" true (compare baseline resumed = 0))

let test_journal_tolerates_truncated_tail () =
  with_tmp_journal (fun path ->
      let codec = Journal.float_ in
      let work ~trial rng =
        ignore trial;
        Rng.float01 rng
      in
      let baseline =
        Pool.with_pool ~num_domains:0 (fun pool ->
            let j = Journal.create path in
            Journal.set_experiment j "unit";
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Montecarlo.run ~codec ~journal:j ~pool ~master_seed:3 ~trials:30 work))
      in
      (* Simulate a hard kill mid-write: keep 10 full lines plus half of
         the 11th. *)
      let ic = open_in_bin path in
      let all = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines = String.split_on_char '\n' all in
      let keep = List.filteri (fun i _ -> i < 10) lines in
      let half = String.sub (List.nth lines 10) 0 (String.length (List.nth lines 10) / 2) in
      let oc = open_out_bin path in
      output_string oc (String.concat "\n" keep ^ "\n" ^ half);
      close_out oc;
      let resumed =
        Pool.with_pool ~num_domains:0 (fun pool ->
            let j = Journal.load path in
            check_int "full lines recovered" 10 (Journal.loaded j);
            check_int "torn line skipped, not fatal" 1 (Journal.malformed j);
            Journal.set_experiment j "unit";
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Montecarlo.run ~codec ~journal:j ~pool ~master_seed:3 ~trials:30 work))
      in
      Alcotest.(check (array (float 0.0))) "resume after torn write" baseline resumed)

let test_journal_failures_not_replayed () =
  with_tmp_journal (fun path ->
      let codec = Journal.int_ in
      (* First run: trial 2 fails and is journaled as an error line. *)
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.create path in
          Journal.set_experiment j "unit";
          let results =
            Montecarlo.run_results ~codec ~journal:j ~pool ~master_seed:11 ~trials:5
              (fun ~trial rng ->
                ignore (Rng.float01 rng);
                if trial = 2 then failwith "transient outage";
                trial * 10)
          in
          check_bool "failure recorded" true (Result.is_error results.(2));
          Journal.close j);
      (* Resume: the four ok trials replay, the failed one re-executes
         (and succeeds this time). *)
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          check_int "only ok lines replayable" 4 (Journal.loaded j);
          Journal.set_experiment j "unit";
          let executed = ref [] in
          let results =
            Montecarlo.run ~codec ~journal:j ~pool ~master_seed:11 ~trials:5 (fun ~trial rng ->
                ignore (Rng.float01 rng);
                executed := trial :: !executed;
                trial * 10)
          in
          Alcotest.(check (list int)) "only the failed trial re-ran" [ 2 ] !executed;
          Alcotest.(check (array int)) "ensemble completed" [| 0; 10; 20; 30; 40 |] results;
          Journal.close j))

let test_journal_address_mismatch_is_fresh_run () =
  with_tmp_journal (fun path ->
      let codec = Journal.int_ in
      let work ~trial rng =
        ignore rng;
        trial
      in
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.create path in
          Journal.set_experiment j "unit";
          ignore (Montecarlo.run ~codec ~journal:j ~pool ~master_seed:1 ~trials:5 work);
          Journal.close j);
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          Journal.set_experiment j "unit";
          (* Different master seed → different address → no replays. *)
          ignore (Montecarlo.run ~codec ~journal:j ~pool ~master_seed:2 ~trials:5 work);
          check_int "wrong-seed checkpoints ignored" 0 (Journal.replayed j);
          Journal.close j))

let test_journal_other_model_not_replayed () =
  (* Lines without the randomness-model tag were written before keyed
     draws became the only model: same (experiment, sweep, seed,
     trials, trial) address, different sample — never replayed. *)
  with_tmp_journal (fun path ->
      let oc = open_out path in
      for trial = 0 to 3 do
        Printf.fprintf oc
          {|{"experiment":"unit","sweep":0,"master_seed":3,"trials":4,"trial":%d,"status":"ok","value":999}|}
          trial;
        output_char oc '\n'
      done;
      close_out oc;
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          check_int "untagged lines not loaded" 0 (Journal.loaded j);
          check_int "and not malformed" 0 (Journal.malformed j);
          Journal.set_experiment j "unit";
          let results =
            Montecarlo.run ~codec:Journal.int_ ~journal:j ~pool ~master_seed:3 ~trials:4
              (fun ~trial _ -> trial)
          in
          check_int "nothing replayed" 0 (Journal.replayed j);
          Alcotest.(check (array int)) "every trial executed" [| 0; 1; 2; 3 |] results;
          Journal.close j);
      (* The lines this run appended carry the tag and do replay. *)
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          check_int "tagged lines loaded" 4 (Journal.loaded j);
          Journal.set_experiment j "unit";
          ignore
            (Montecarlo.run ~codec:Journal.int_ ~journal:j ~pool ~master_seed:3 ~trials:4
               (fun ~trial:_ _ -> Alcotest.fail "tagged trial re-executed"));
          check_int "all replayed" 4 (Journal.replayed j);
          Journal.close j))

(* ---------- cancellation / deadline at the Monte-Carlo layer ---------- *)

let test_deadline_interrupt_and_resume () =
  with_tmp_journal (fun path ->
      let codec = Journal.float_ in
      let slow_once = ref true in
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.create path in
          Journal.set_experiment j "unit";
          (try
             ignore
               (Montecarlo.run ~codec ~journal:j ~deadline_s:0.05 ~pool ~master_seed:13
                  ~trials:1000 (fun ~trial rng ->
                    if !slow_once then begin
                      slow_once := false;
                      Unix.sleepf 0.1
                    end;
                    ignore trial;
                    Rng.float01 rng));
             Alcotest.fail "expected a deadline interrupt"
           with Montecarlo.Interrupted { reason = `Deadline; completed; total } ->
             check_int "total" 1000 total;
             check_bool "partial progress" true (completed > 0 && completed < 1000));
          Journal.close j);
      let baseline =
        Pool.with_pool ~num_domains:0 (fun pool ->
            Montecarlo.run ~pool ~master_seed:13 ~trials:1000 (fun ~trial rng ->
                ignore trial;
                Rng.float01 rng))
      in
      let resumed =
        Pool.with_pool ~num_domains:0 (fun pool ->
            let j = Journal.load path in
            Journal.set_experiment j "unit";
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () ->
                Montecarlo.run ~codec ~journal:j ~pool ~master_seed:13 ~trials:1000
                  (fun ~trial rng ->
                    ignore trial;
                    Rng.float01 rng)))
      in
      Alcotest.(check (array (float 0.0))) "deadline + resume = uninterrupted" baseline resumed)

let test_completed_sweep_ignores_cancel () =
  (* A token tripped after the last trial finishes must not raise. *)
  Pool.with_pool ~num_domains:0 (fun pool ->
      let cancel = Pool.Cancel.create () in
      let results =
        Montecarlo.run ~cancel ~pool ~master_seed:1 ~trials:10 (fun ~trial rng ->
            if trial = 9 then Pool.Cancel.cancel cancel;
            Rng.float01 rng)
      in
      check_int "sweep completed" 10 (Array.length results))

(* ---------- ambient context ---------- *)

let test_ambient_context_applies () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let attempts = ref 0 in
      let v =
        Montecarlo.with_context ~retries:1 (fun () ->
            Montecarlo.run ~pool ~master_seed:21 ~trials:1 (fun ~trial rng ->
                ignore trial;
                incr attempts;
                if !attempts = 1 then failwith "flaky";
                Rng.float01 rng))
      in
      check_int "ambient retries picked up" 2 !attempts;
      check_int "recovered" 1 (Array.length v))

let test_ambient_context_restored () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      Montecarlo.with_context ~retries:5 (fun () -> ());
      (* Outside the context the default (no retries) applies again. *)
      let attempts = ref 0 in
      let failed =
        try
          ignore
            (Montecarlo.run ~pool ~master_seed:21 ~trials:1 (fun ~trial rng ->
                 ignore trial;
                 incr attempts;
                 if !attempts = 1 then failwith "flaky";
                 Rng.float01 rng));
          false
        with Failure _ -> true
      in
      check_bool "no ambient retries after the context" true failed;
      check_int "single attempt" 1 !attempts)

(* ---------- experiments layer: estimator under a journal ---------- *)

let test_estimator_resume_bit_identical () =
  with_tmp_journal (fun path ->
      let g = Cobra_graph.Gen.petersen () in
      let run journal =
        Pool.with_pool ~num_domains:2 (fun pool ->
            match journal with
            | None -> Cobra_core.Estimate.infection_time ~pool ~master_seed:2017 ~trials:32 ~source:0 g
            | Some j ->
                Montecarlo.with_context ~journal:j (fun () ->
                    Cobra_core.Estimate.infection_time ~pool ~master_seed:2017 ~trials:32 ~source:0 g))
      in
      let baseline = run None in
      (* Journal a full run, truncate it to 12 checkpoints to simulate a
         kill, then resume through the ambient context. *)
      let j = Journal.create path in
      Journal.set_experiment j "e-unit";
      ignore (run (Some j));
      Journal.close j;
      let ic = open_in_bin path in
      let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let keep = List.filteri (fun i _ -> i < 12) lines in
      let oc = open_out_bin path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      close_out oc;
      let j = Journal.load path in
      check_int "truncated journal" 12 (Journal.loaded j);
      Journal.set_experiment j "e-unit";
      let resumed = run (Some j) in
      check_int "trials replayed through the estimator" 12 (Journal.replayed j);
      Journal.close j;
      (* [compare], not [=]: BIPS results carry [mean_transmissions = nan],
         and polymorphic [=] is false on nan. *)
      check_bool "estimator results bit-identical after resume" true
        (compare baseline resumed = 0))

(* ---------- reproducible manifest timestamps ---------- *)

let test_source_date_epoch () =
  let module Timer = Cobra_obs.Timer in
  Unix.putenv "SOURCE_DATE_EPOCH" "1500000000";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SOURCE_DATE_EPOCH" "")
    (fun () ->
      Alcotest.(check (float 0.0)) "stamp pinned" 1_500_000_000.0 (Timer.stamp ());
      Alcotest.(check string) "iso8601 of the pin" "2017-07-14T02:40:00Z"
        (Timer.iso8601 (Timer.stamp ()));
      (* Two manifests rendered under the pin are byte-identical. *)
      let render () =
        Cobra_obs.Json.to_string_pretty
          (Cobra_obs.Manifest.to_json
             (Cobra_obs.Manifest.create ~experiment:"unit" ~master_seed:1 ~scale:"quick"
                ~domains:2 ()))
      in
      Alcotest.(check string) "manifests reproducible" (render ()) (render ()));
  (* An unset/empty override falls back to the live clock. *)
  check_bool "live clock after unset" true (Timer.stamp () > 1.6e9)

let () =
  Alcotest.run "fault"
    [
      ( "isolation",
        [
          Alcotest.test_case "failing trial isolated" `Quick test_failure_isolation;
          Alcotest.test_case "run re-raises" `Quick test_run_reraises_first_failure;
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers_flaky_trial;
          Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion_counts_attempts;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay skips execution" `Quick test_journal_replay_skips_execution;
          Alcotest.test_case "partial resume bit-identical" `Quick
            test_journal_partial_resume_bit_identical;
          Alcotest.test_case "torn tail tolerated" `Quick test_journal_tolerates_truncated_tail;
          Alcotest.test_case "failures not replayed" `Quick test_journal_failures_not_replayed;
          Alcotest.test_case "other randomness model = fresh run" `Quick
            test_journal_other_model_not_replayed;
          Alcotest.test_case "address mismatch = fresh run" `Quick
            test_journal_address_mismatch_is_fresh_run;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "deadline interrupt + resume" `Quick test_deadline_interrupt_and_resume;
          Alcotest.test_case "late cancel ignored" `Quick test_completed_sweep_ignores_cancel;
        ] );
      ( "context",
        [
          Alcotest.test_case "ambient applies" `Quick test_ambient_context_applies;
          Alcotest.test_case "ambient restored" `Quick test_ambient_context_restored;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "estimator resume bit-identical" `Quick
            test_estimator_resume_bit_identical;
        ] );
      ("manifest", [ Alcotest.test_case "SOURCE_DATE_EPOCH" `Quick test_source_date_epoch ]);
    ]
