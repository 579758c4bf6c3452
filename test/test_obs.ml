(* Tests for the observability subsystem (Cobra_obs) and its headline
   contract: with the null context a simulation is bit-identical to an
   uninstrumented one, and with a recording context the results are
   STILL bit-identical — observability reads clocks, never RNGs. *)

module Json = Cobra_obs.Json
module Metrics = Cobra_obs.Metrics
module Trace = Cobra_obs.Trace
module Manifest = Cobra_obs.Manifest
module Obs = Cobra_obs.Obs
module Rng = Cobra_prng.Rng
module Gen = Cobra_graph.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- Json ---- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("count", Json.Int (-42));
      ("big", Json.Int max_int);
      ("pi", Json.Float 3.14159265358979312);
      ("whole", Json.Float 5.0);
      ("tiny", Json.Float 1.25e-17);
      ("text", Json.String "line\n\"quoted\"\tand \\ control \001");
      ("items", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
    ]

let test_json_roundtrip () =
  let s = Json.to_string sample_json in
  Alcotest.(check bool) "compact round-trips" true (Json.of_string_exn s = sample_json);
  let p = Json.to_string_pretty sample_json in
  Alcotest.(check bool) "pretty round-trips" true (Json.of_string_exn p = sample_json)

let test_json_int_float_distinction () =
  (* A whole-valued float must stay a float through the round-trip. *)
  match Json.of_string_exn (Json.to_string (Json.Float 5.0)) with
  | Json.Float f -> Alcotest.(check (float 0.0)) "value" 5.0 f
  | _ -> Alcotest.fail "Float 5.0 did not survive as a float"

let test_json_errors () =
  check_bool "trailing garbage" true (Result.is_error (Json.of_string "{} x"));
  check_bool "unterminated string" true (Result.is_error (Json.of_string "\"abc"));
  check_bool "bare word" true (Result.is_error (Json.of_string "nope"));
  check_bool "empty input" true (Result.is_error (Json.of_string ""))

let test_json_nonfinite () =
  check_string "nan serializes as null" "null" (Json.to_string (Json.Float nan));
  check_string "inf serializes as null" "null" (Json.to_string (Json.Float infinity))

let test_json_control_chars () =
  (* Every C0 control character must be escaped on output (RFC 8259)
     and round-trip exactly. *)
  for code = 0 to 0x1F do
    let s = Printf.sprintf "a%cb" (Char.chr code) in
    let rendered = Json.to_string (Json.String s) in
    String.iter
      (fun c ->
        if Char.code c < 0x20 then
          Alcotest.failf "U+%04X leaked unescaped into %S" code rendered)
      rendered;
    match Json.of_string rendered with
    | Ok (Json.String s') when s' = s -> ()
    | Ok _ -> Alcotest.failf "U+%04X did not round-trip" code
    | Error m -> Alcotest.failf "U+%04X failed to parse back: %s" code m
  done;
  (* ... and a raw (unescaped) control character in the input is a
     parse error, not silently accepted. *)
  for code = 0 to 0x1F do
    let raw = Printf.sprintf "\"a%cb\"" (Char.chr code) in
    check_bool
      (Printf.sprintf "raw U+%04X rejected" code)
      true
      (Result.is_error (Json.of_string raw))
  done;
  (* Escaped forms of the same characters parse fine. *)
  check_bool "escaped newline accepted" true
    (Json.of_string "\"a\\nb\"" = Ok (Json.String "a\nb"));
  check_bool "\\u0000 accepted" true
    (Json.of_string "\"a\\u0000b\"" = Ok (Json.String "a\000b"))

let json_string_roundtrip_test =
  (* Arbitrary bytes — control characters, quotes, backslashes — must
     survive serialize-then-parse byte-for-byte. *)
  QCheck2.Test.make ~name:"json string round-trip over arbitrary bytes" ~count:500
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 64))
    (fun s ->
      match Json.of_string (Json.to_string (Json.String s)) with
      | Ok (Json.String s') -> s' = s
      | _ -> false)

(* ---- Metrics ---- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~scope:"test" "events" in
  Metrics.incr c;
  Metrics.add c 10;
  let c' = Metrics.counter m ~scope:"test" "events" in
  Metrics.incr c';
  let g = Metrics.gauge m "speed" in
  Metrics.set g 2.5;
  match Metrics.snapshot m with
  | [ ("test/events", Metrics.Counter_v n); ("speed", Metrics.Gauge_v v) ] ->
      check_int "counter accumulated through both handles" 12 n;
      Alcotest.(check (float 0.0)) "gauge" 2.5 v
  | other -> Alcotest.failf "unexpected snapshot shape (%d entries)" (List.length other)

let test_metric_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  check_bool "kind clash rejected" true
    (try
       ignore (Metrics.gauge m "x");
       false
     with Invalid_argument _ -> true)

let test_histogram_bucketing () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.0; 2.0; 5.0 |] "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 5.1; 100.0 ];
  match Metrics.snapshot m with
  | [ ("lat", Metrics.Histogram_v v) ] ->
      (* x lands in the first bucket with x <= bound. *)
      Alcotest.(check (list (pair (float 0.0) int)))
        "bucket counts"
        [ (1.0, 2); (2.0, 2); (5.0, 2) ]
        v.buckets;
      check_int "overflow" 2 v.overflow;
      check_int "total" 8 v.total;
      Alcotest.(check (float 1e-9)) "sum" 120.0 v.sum
  | _ -> Alcotest.fail "missing histogram"

let test_histogram_validation () =
  let m = Metrics.create () in
  check_bool "empty buckets rejected" true
    (try
       ignore (Metrics.histogram m ~buckets:[||] "h");
       false
     with Invalid_argument _ -> true);
  check_bool "non-increasing buckets rejected" true
    (try
       ignore (Metrics.histogram m ~buckets:[| 1.0; 1.0 |] "h2");
       false
     with Invalid_argument _ -> true)

(* ---- Trace events & sinks ---- *)

let all_event_kinds =
  [
    Trace.Round_started { round = 1 };
    Trace.Round_ended { round = 1; informed = 7; active = 3; messages = 14 };
    Trace.Trial_completed { trial = 0; latency_ms = 12.5 };
    Trace.Experiment_started { id = "e4" };
    Trace.Experiment_completed { id = "e4"; seconds = 1.75 };
  ]

let test_event_json_roundtrip () =
  List.iter
    (fun e ->
      match Trace.of_json (Trace.to_json e) with
      | Ok e' -> check_bool "event round-trips" true (e = e')
      | Error msg -> Alcotest.fail msg)
    all_event_kinds

let test_memory_sink () =
  let sink = Trace.memory () in
  List.iter (Trace.emit sink) all_event_kinds;
  check_bool "events in emission order" true (Trace.events sink = all_event_kinds);
  check_int "null sink records nothing" 0 (List.length (Trace.events Trace.null))

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "cobra_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Trace.jsonl path in
      List.iter (Trace.emit sink) all_event_kinds;
      Trace.close sink;
      Trace.close sink;
      (* idempotent *)
      match Trace.read_jsonl path with
      | Ok events -> check_bool "write -> re-read -> same events" true (events = all_event_kinds)
      | Error msg -> Alcotest.fail msg)

(* ---- Manifest ---- *)

let test_manifest_fields () =
  let m =
    Manifest.create ~experiment:"e4" ~graph_params:[ ("family", "hypercube"); ("n", "256") ]
      ~master_seed:2017 ~scale:"full" ~domains:4 ()
  in
  let json = Manifest.to_json m in
  let str_field name =
    match Option.bind (Json.member json name) Json.to_string_opt with
    | Some s -> s
    | None -> Alcotest.failf "manifest field %s missing" name
  in
  check_int "master_seed" 2017
    (Option.get (Option.bind (Json.member json "master_seed") Json.to_int_opt));
  check_int "domains" 4 (Option.get (Option.bind (Json.member json "domains") Json.to_int_opt));
  check_string "scale" "full" (str_field "scale");
  check_string "experiment" "e4" (str_field "experiment");
  check_string "ocaml_version" Sys.ocaml_version (str_field "ocaml_version");
  check_bool "git_revision nonempty" true (String.length (str_field "git_revision") > 0);
  check_bool "hostname nonempty" true (String.length (str_field "hostname") > 0);
  check_bool "created_at is ISO-8601-ish" true
    (String.length (str_field "created_at") = 20 && (str_field "created_at").[10] = 'T');
  match Json.member json "graph_params" with
  | Some (Json.Obj [ ("family", Json.String "hypercube"); ("n", Json.String "256") ]) -> ()
  | _ -> Alcotest.fail "graph_params not preserved"

(* ---- the determinism contract ---- *)

(* Montecarlo results must be bitwise identical with the null context and
   with a recording context; the recording context must additionally have
   seen one Trial_completed per trial and a matching counter. *)
let test_montecarlo_obs_determinism () =
  let work ~trial rng =
    ignore trial;
    let acc = ref 0.0 in
    for _ = 1 to 1 + Rng.int_below rng 500 do
      acc := !acc +. Rng.float01 rng
    done;
    !acc
  in
  Cobra_parallel.Pool.with_pool ~num_domains:3 (fun pool ->
      let trials = 100 in
      let plain = Cobra_parallel.Montecarlo.run ~pool ~master_seed:7 ~trials work in
      let obs = Obs.create ~sink:(Trace.memory ()) () in
      let observed =
        Cobra_parallel.Montecarlo.run ~obs ~pool ~master_seed:7 ~trials work
      in
      Alcotest.(check (array (float 0.0))) "null sink = recording sink" plain observed;
      let trial_events =
        List.filter (function Trace.Trial_completed _ -> true | _ -> false)
          (Trace.events (Obs.sink obs))
      in
      check_int "one Trial_completed per trial" trials (List.length trial_events);
      (match Metrics.snapshot (Obs.metrics obs) with
      | ("montecarlo/trials", Metrics.Counter_v n) :: _ -> check_int "trials counter" trials n
      | _ -> Alcotest.fail "montecarlo/trials counter missing");
      check_bool "latency histogram populated" true
        (List.exists
           (function
             | "montecarlo/trial_latency_ms", Metrics.Histogram_v v -> v.Metrics.total = trials
             | _ -> false)
           (Metrics.snapshot (Obs.metrics obs))))

(* The acceptance property: cover-time ensembles, observability on vs
   off, identical in every reported statistic. *)
let test_cover_ensemble_obs_determinism () =
  let g = Gen.random_regular ~n:64 ~r:8 (Rng.create 5) in
  Cobra_parallel.Pool.with_pool ~num_domains:2 (fun pool ->
      let plain = Cobra_core.Estimate.cover_time ~pool ~master_seed:2017 ~trials:40 g in
      let obs = Obs.create ~sink:(Trace.memory ()) () in
      let observed =
        Cobra_core.Estimate.cover_time ~obs ~pool ~master_seed:2017 ~trials:40 g
      in
      check_bool "cover-time ensemble identical with observability on" true (plain = observed))

(* Single COBRA runs: same seed, obs on vs off, identical rounds; the
   recording context sees a Round_started/Round_ended pair per round with
   a fully-informed final event. *)
let test_cobra_run_round_events () =
  let g = Gen.hypercube 5 in
  let n = Cobra_graph.Graph.n g in
  let plain = Cobra_core.Cobra.run_cover g (Rng.create 11) ~start:0 () in
  let obs = Obs.create ~sink:(Trace.memory ()) () in
  let observed = Cobra_core.Cobra.run_cover g (Rng.create 11) ~obs ~start:0 () in
  check_bool "rounds identical" true (plain = observed);
  let rounds = match observed with Some r -> r | None -> Alcotest.fail "did not cover" in
  let events = Trace.events (Obs.sink obs) in
  check_int "two events per round" (2 * rounds) (List.length events);
  let last_round_end =
    List.fold_left
      (fun acc e ->
        match e with
        | Trace.Round_ended { round; informed; _ } -> Some (round, informed)
        | _ -> acc)
      None events
  in
  match last_round_end with
  | Some (round, informed) ->
      check_int "final event at cover round" rounds round;
      check_int "final informed count is n" n informed
  | None -> Alcotest.fail "no Round_ended events"

(* Experiment wrapper: start/complete events bracket the run and the
   output string is identical to an unobserved run. *)
let test_experiment_run_observed () =
  let e = List.hd (Result.get_ok (Cobra_experiments.Registry.select [ "e1" ])) in
  Cobra_parallel.Pool.with_pool ~num_domains:1 (fun pool ->
      let plain =
        e.Cobra_experiments.Experiment.run ~obs:Obs.null ~pool ~master_seed:3
          ~scale:Cobra_experiments.Experiment.Quick
      in
      let obs = Obs.create ~sink:(Trace.memory ()) () in
      let observed =
        Cobra_experiments.Experiment.run_observed ~obs e ~pool ~master_seed:3
          ~scale:Cobra_experiments.Experiment.Quick
      in
      check_string "output identical" plain observed;
      let events = Trace.events (Obs.sink obs) in
      check_bool "starts with Experiment_started" true
        (match events with Trace.Experiment_started { id = "e1" } :: _ -> true | _ -> false);
      check_bool "ends with Experiment_completed" true
        (match List.rev events with
        | Trace.Experiment_completed { id = "e1"; seconds } :: _ -> seconds >= 0.0
        | _ -> false);
      check_bool "experiment gauge recorded" true
        (List.exists
           (function "experiment/e1/seconds", Metrics.Gauge_v _ -> true | _ -> false)
           (Metrics.snapshot (Obs.metrics obs))))

let test_report_renders () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m ~scope:"s" "c") 3;
  Metrics.set (Metrics.gauge m ~scope:"s" "g") 1.5;
  let h = Metrics.histogram m ~scope:"s" ~buckets:[| 1.0; 10.0 |] "h" in
  Metrics.observe h 0.5;
  Metrics.observe h 99.0;
  let snapshot = Metrics.snapshot m in
  let json = Cobra_obs.Report.to_json snapshot in
  check_bool "json has every instrument" true
    (List.for_all (fun name -> Json.member json name <> None) [ "s/c"; "s/g"; "s/h" ]);
  (* JSON snapshot re-parses and keeps the counter value. *)
  let json = Json.of_string_exn (Json.to_string json) in
  check_int "counter in json" 3
    (Option.get (Option.bind (Json.member json "s/c") Json.to_int_opt))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "int/float distinction" `Quick test_json_int_float_distinction;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "control characters" `Quick test_json_control_chars;
          QCheck_alcotest.to_alcotest json_string_roundtrip_test;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "kind clash" `Quick test_metric_kind_clash;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "event json round-trip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "memory sink" `Quick test_memory_sink;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        ] );
      ("manifest", [ Alcotest.test_case "fields present" `Quick test_manifest_fields ]);
      ( "determinism",
        [
          Alcotest.test_case "montecarlo null = recording" `Quick
            test_montecarlo_obs_determinism;
          Alcotest.test_case "cover ensemble obs on = off" `Quick
            test_cover_ensemble_obs_determinism;
          Alcotest.test_case "cobra run round events" `Quick test_cobra_run_round_events;
          Alcotest.test_case "experiment run_observed" `Quick test_experiment_run_observed;
        ] );
      ("report", [ Alcotest.test_case "renders" `Quick test_report_renders ]);
    ]
