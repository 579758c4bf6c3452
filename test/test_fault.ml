(* Fault-tolerance layer: per-trial failure isolation, JSONL checkpoint
   journals, cooperative cancellation and deadlines.
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

(* ---------- failure isolation ---------- *)

let test_failure_isolation () =
  with_tmp_journal (fun path ->
      let codec = Journal.float_ in
      Pool.with_pool ~num_domains:2 (fun pool ->
          let j = Journal.create path in
          Journal.set_experiment j "unit";
          Fun.protect
            ~finally:(fun () -> Journal.close j)
            (fun () ->
              match
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:5 ~trials:20 (fun ~trial rng ->
                        if trial = 7 then failwith "trial 7 crashes";
                        Rng.float01 rng))
              with
              | _ -> Alcotest.fail "run must re-raise trial 7's failure"
              | exception Failure msg ->
                  Alcotest.(check string) "trial 7's exception" "trial 7 crashes" msg;
                  check_int "the other 19 trials journaled" 19 (Journal.appended j)));
      (* The journal holds the other trials at the serial oracle's
         values: a resume replays them bit for bit and runs trial 7. *)
      let reference =
        Serial_oracle.run ~master_seed:5 ~trials:20 (fun ~trial rng ->
            ignore trial;
            Rng.float01 rng)
      in
      Pool.with_pool ~num_domains:2 (fun pool ->
          let j = Journal.load path in
          check_int "19 checkpoints loaded" 19 (Journal.loaded j);
          Journal.set_experiment j "unit";
          let executed = Array.make 20 false in
          let resumed =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () ->
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:5 ~trials:20 (fun ~trial rng ->
                        executed.(trial) <- true;
                        Rng.float01 rng)))
          in
          Alcotest.(check (list int))
            "only trial 7 re-ran" [ 7 ]
            (List.filter (fun trial -> executed.(trial)) (List.init 20 Fun.id));
          Alcotest.(check (array (float 0.0))) "resumed = serial oracle" reference resumed))

let test_run_reraises_first_failure () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      match
        Montecarlo.run ~pool ~master_seed:5 ~trials:10 (fun ~trial rng ->
            ignore (Rng.float01 rng);
            if trial = 3 || trial = 8 then failwith (Printf.sprintf "boom %d" trial);
            0.0)
      with
      | _ -> Alcotest.fail "run must re-raise a failure"
      | exception Failure msg ->
          Alcotest.(check string) "the lowest-numbered failure" "boom 3" msg)

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
              (fun () ->
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:42 ~trials:50 work))
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
                  Montecarlo.with_context ~journal:j (fun () ->
                      Montecarlo.run ~codec ~pool ~master_seed:42 ~trials:50 (fun ~trial _ ->
                          Alcotest.failf "trial %d executed despite checkpoint" trial))
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
               (Montecarlo.with_context ~journal:j ~cancel (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:7 ~trials:40 (fun ~trial rng ->
                        if trial = 3 then Pool.Cancel.cancel cancel;
                        work ~trial rng)));
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
              (fun () ->
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:7 ~trials:40 work)))
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
              (fun () ->
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:3 ~trials:30 work)))
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
              (fun () ->
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:3 ~trials:30 work)))
      in
      Alcotest.(check (array (float 0.0))) "resume after torn write" baseline resumed)

let test_journal_failures_not_replayed () =
  with_tmp_journal (fun path ->
      let codec = Journal.int_ in
      (* First run: trial 2 fails and writes no line. *)
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.create path in
          Journal.set_experiment j "unit";
          (match
             Montecarlo.with_context ~journal:j (fun () ->
                 Montecarlo.run ~codec ~pool ~master_seed:11 ~trials:5 (fun ~trial rng ->
                     ignore (Rng.float01 rng);
                     if trial = 2 then failwith "transient outage";
                     trial * 10))
           with
          | _ -> Alcotest.fail "trial 2 must fail"
          | exception Failure _ -> ());
          check_int "only the ok trials appended" 4 (Journal.appended j);
          Journal.close j);
      (* Journals written before failures stopped being recorded carry
         an error line for the failed trial; load skips it. *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc
        ({|{"model":"|} ^ Cobra_prng.Keyed.model_tag
       ^ {|","experiment":"unit","sweep":0,"master_seed":11,"trials":5,"trial":2,"status":"error","exn":"Failure(\"transient outage\")","backtrace":"","attempts":1}|}
       ^ "\n");
      close_out oc;
      (* Resume: the four ok trials replay, the failed one re-executes
         (and succeeds this time). *)
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          check_int "the ok lines loaded" 4 (Journal.loaded j);
          check_int "the old error line skipped, not malformed" 0 (Journal.malformed j);
          Journal.set_experiment j "unit";
          let executed = ref [] in
          let results =
            Montecarlo.with_context ~journal:j (fun () ->
                Montecarlo.run ~codec ~pool ~master_seed:11 ~trials:5 (fun ~trial rng ->
                    ignore (Rng.float01 rng);
                    executed := trial :: !executed;
                    trial * 10))
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
          ignore
            (Montecarlo.with_context ~journal:j (fun () ->
                 Montecarlo.run ~codec ~pool ~master_seed:1 ~trials:5 work));
          Journal.close j);
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          Journal.set_experiment j "unit";
          (* Different master seed → different address → no replays. *)
          ignore
            (Montecarlo.with_context ~journal:j (fun () ->
                 Montecarlo.run ~codec ~pool ~master_seed:2 ~trials:5 work));
          check_int "wrong-seed checkpoints ignored" 0 (Journal.replayed j);
          Journal.close j))

let test_journal_replays_only_what_load_read () =
  with_tmp_journal (fun path ->
      let codec = Journal.int_ in
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.create path in
          let executed = ref 0 in
          (* Same experiment, sweep 0, seed and trial count: both sweeps
             have one address. *)
          let sweep () =
            Journal.set_experiment j "unit";
            Montecarlo.with_context ~journal:j (fun () ->
                Montecarlo.run ~codec ~pool ~master_seed:4 ~trials:6 (fun ~trial _ ->
                    incr executed;
                    trial))
          in
          Fun.protect
            ~finally:(fun () -> Journal.close j)
            (fun () ->
              ignore (sweep ());
              ignore (sweep ());
              check_int "the second sweep executed every trial" 12 !executed;
              check_int "nothing replayed by the writing process" 0 (Journal.replayed j)));
      Pool.with_pool ~num_domains:0 (fun pool ->
          let j = Journal.load path in
          Journal.set_experiment j "unit";
          Fun.protect
            ~finally:(fun () -> Journal.close j)
            (fun () ->
              let results =
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:4 ~trials:6 (fun ~trial _ ->
                        Alcotest.failf "trial %d executed despite load" trial))
              in
              check_int "every trial replayed" 6 (Journal.replayed j);
              Alcotest.(check (array int)) "replayed values" [| 0; 1; 2; 3; 4; 5 |] results)))

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
            Montecarlo.with_context ~journal:j (fun () ->
                Montecarlo.run ~codec:Journal.int_ ~pool ~master_seed:3 ~trials:4 (fun ~trial _ ->
                    trial))
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
            (Montecarlo.with_context ~journal:j (fun () ->
                 Montecarlo.run ~codec:Journal.int_ ~pool ~master_seed:3 ~trials:4
                   (fun ~trial:_ _ -> Alcotest.fail "tagged trial re-executed")));
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
               (Montecarlo.with_context ~journal:j ~deadline_s:0.05 (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:13 ~trials:1000 (fun ~trial rng ->
                        if !slow_once then begin
                          slow_once := false;
                          Unix.sleepf 0.1
                        end;
                        ignore trial;
                        Rng.float01 rng)));
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
                Montecarlo.with_context ~journal:j (fun () ->
                    Montecarlo.run ~codec ~pool ~master_seed:13 ~trials:1000 (fun ~trial rng ->
                        ignore trial;
                        Rng.float01 rng))))
      in
      Alcotest.(check (array (float 0.0))) "deadline + resume = uninterrupted" baseline resumed)

let test_completed_sweep_ignores_cancel () =
  (* A token tripped after the last trial finishes must not raise. *)
  Pool.with_pool ~num_domains:0 (fun pool ->
      let cancel = Pool.Cancel.create () in
      let results =
        Montecarlo.with_context ~cancel (fun () ->
            Montecarlo.run ~pool ~master_seed:1 ~trials:10 (fun ~trial rng ->
                if trial = 9 then Pool.Cancel.cancel cancel;
                Rng.float01 rng))
      in
      check_int "sweep completed" 10 (Array.length results))

(* ---------- ambient context ---------- *)

let test_ambient_context_applies () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let cancel = Pool.Cancel.create () in
      Pool.Cancel.cancel cancel;
      let executed = ref 0 in
      match
        Montecarlo.with_context ~cancel (fun () ->
            Montecarlo.run ~pool ~master_seed:21 ~trials:4 (fun ~trial:_ rng ->
                incr executed;
                Rng.float01 rng))
      with
      | _ -> Alcotest.fail "the ambient cancelled token must stop the sweep"
      | exception Montecarlo.Interrupted { reason = `Cancelled; completed; total } ->
          check_int "total" 4 total;
          check_int "no trial completed" 0 completed;
          check_int "no trial executed" 0 !executed)

let test_ambient_context_restored () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let cancel = Pool.Cancel.create () in
      Pool.Cancel.cancel cancel;
      Montecarlo.with_context ~cancel (fun () -> ());
      (* Outside the context no token applies again. *)
      let results =
        Montecarlo.run ~pool ~master_seed:21 ~trials:4 (fun ~trial:_ rng -> Rng.float01 rng)
      in
      check_int "sweep completed" 4 (Array.length results))

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
          Alcotest.test_case "replays only what load read" `Quick
            test_journal_replays_only_what_load_read;
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
