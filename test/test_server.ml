(* Tests for the COBRA-as-a-service subsystem: wire framing, cache-key
   canonicalisation, the LRU result cache, the fair bounded scheduler,
   and an in-process server driven end-to-end over loopback TCP —
   including the deadline, backpressure and crash-resume contracts. *)

module Wire = Cobra_server.Wire
module Proto = Cobra_server.Proto
module Key = Cobra_server.Key
module Cache = Cobra_server.Cache
module Sched = Cobra_server.Sched
module Server = Cobra_server.Server
module Client = Cobra_server.Client
module Json = Cobra_obs.Json
module Pool = Cobra_parallel.Pool
module Estimate = Cobra_core.Estimate
module Gen = Cobra_graph.Gen
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- wire framing ---- *)

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

let decode_all d =
  let rec go acc = match Wire.Decoder.next d with
    | Some f -> go (f :: acc)
    | None -> List.rev acc
  in
  go []

let test_decoder_whole_frames () =
  let d = Wire.Decoder.create () in
  let b = Bytes.cat (frame_bytes "hello") (Bytes.cat (frame_bytes "") (frame_bytes "world")) in
  Wire.Decoder.feed d b (Bytes.length b);
  (match decode_all d with
  | [ "hello"; ""; "world" ] -> ()
  | fs -> Alcotest.failf "got %d frames: %s" (List.length fs) (String.concat "," fs));
  check_int "nothing pending" 0 (Wire.Decoder.pending_bytes d)

let test_decoder_byte_at_a_time () =
  (* Feeding one byte at a time must produce exactly the same frames:
     prefixes and payloads may straddle any read boundary. *)
  let d = Wire.Decoder.create () in
  let payloads = [ "a"; "longer payload with \"json\" inside"; ""; String.make 300 'x' ] in
  let stream = Bytes.concat Bytes.empty (List.map frame_bytes payloads) in
  let got = ref [] in
  Bytes.iter
    (fun c ->
      let one = Bytes.make 1 c in
      Wire.Decoder.feed d one 1;
      List.iter (fun f -> got := f :: !got) (decode_all d))
    stream;
  check_bool "frames reassembled across boundaries" true (List.rev !got = payloads)

let test_decoder_oversize () =
  let d = Wire.Decoder.create ~max_frame:16 () in
  let b = frame_bytes (String.make 64 'y') in
  let raised =
    try
      Wire.Decoder.feed d b (Bytes.length b);
      ignore (Wire.Decoder.next d);
      false
    with Wire.Frame_too_large n -> n = 64
  in
  check_bool "oversize frame rejected with its claimed size" true raised

let test_blocking_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      Wire.write_frame a "ping payload";
      check_string "frame round-trips over a socketpair" "ping payload" (Wire.read_frame b);
      Unix.close a;
      check_bool "EOF at boundary raises Closed" true
        (try ignore (Wire.read_frame b); false with Wire.Closed -> true))

(* ---- protocol codec ---- *)

let sample_job : Proto.job =
  {
    kind = Proto.Cover_time;
    graph = { family = "hypercube"; n = 64; gseed = 0 };
    branching = Cobra_core.Process.Fixed 2;
    lazy_ = false;
    max_rounds = Some 4096;
    trials = 8;
    master_seed = 2017;
  }

let test_proto_roundtrip () =
  let reqs =
    [ Proto.Ping; Proto.Stats; Proto.Submit { job = sample_job; deadline_s = Some 1.5 } ]
  in
  List.iteri
    (fun i req ->
      let id = Printf.sprintf "r%d" i in
      match Proto.request_of_json (Proto.request_to_json ~id req) with
      | Ok (id', req') ->
          check_string "id round-trips" id id';
          check_bool "request round-trips" true (req = req')
      | Error m -> Alcotest.failf "request %d failed to round-trip: %s" i m)
    reqs;
  let result : Proto.job_result =
    {
      n = 64; count = 8; mean = 12.5; stddev = 1.25; min = 10.0; max = 15.0;
      median = 12.0; q90 = 14.3; censored = 0; mean_transmissions = 512.0;
    }
  in
  let resps =
    [
      Proto.Pong;
      Proto.Result { cached = true; server_ms = 0.5; result };
      Proto.Error { code = Proto.Overloaded; message = "queue full" };
    ]
  in
  List.iteri
    (fun i resp ->
      let id = Printf.sprintf "s%d" i in
      match Proto.response_of_json (Proto.response_to_json ~id resp) with
      | Ok (id', resp') ->
          check_string "id round-trips" id id';
          check_bool "response round-trips" true (resp = resp')
      | Error m -> Alcotest.failf "response %d failed to round-trip: %s" i m)
    resps

let test_proto_rejects () =
  let bad v =
    check_bool "rejected" true (Result.is_error (Proto.request_of_json (Json.of_string_exn v)))
  in
  bad {|{"v":99,"id":"x","op":"ping"}|};
  bad {|{"v":1,"id":"x","op":"frobnicate"}|};
  bad {|{"v":1,"op":"ping"}|};
  check_bool "unknown family fails validation" true
    (Result.is_error
       (Proto.validate_job { sample_job with graph = { sample_job.graph with family = "nope" } }));
  check_bool "zero trials fails validation" true
    (Result.is_error (Proto.validate_job { sample_job with trials = 0 }));
  check_bool "bad rho fails validation" true
    (Result.is_error
       (Proto.validate_job { sample_job with branching = Cobra_core.Process.Bernoulli 1.5 }))

(* ---- cache keys ---- *)

let test_key_canonicalisation () =
  let base = sample_job in
  check_string "digest is deterministic" (Key.digest base) (Key.digest base);
  (* Equivalent specs must collide: family case/whitespace, and the
     documented draw-for-draw equivalences Bernoulli 1.0 = Fixed 2 and
     Bernoulli 0.0 = Fixed 1. *)
  check_string "family is case/space-insensitive"
    (Key.digest base)
    (Key.digest { base with graph = { base.graph with family = "  HyperCube " } });
  check_string "bernoulli 1.0 = fixed 2"
    (Key.digest { base with branching = Cobra_core.Process.Fixed 2 })
    (Key.digest { base with branching = Cobra_core.Process.Bernoulli 1.0 });
  check_string "bernoulli 0.0 = fixed 1"
    (Key.digest { base with branching = Cobra_core.Process.Fixed 1 })
    (Key.digest { base with branching = Cobra_core.Process.Bernoulli 0.0 });
  (* Distinct parameters must not collide. *)
  let distinct =
    [
      base;
      { base with master_seed = base.master_seed + 1 };
      { base with trials = base.trials + 1 };
      { base with kind = Proto.Infection_time };
      { base with lazy_ = true };
      { base with max_rounds = None };
      { base with max_rounds = Some 4097 };
      { base with branching = Cobra_core.Process.Bernoulli 0.5 };
      { base with graph = { base.graph with n = 65 } };
      { base with graph = { base.graph with gseed = 1 } };
      { base with graph = { base.graph with family = "complete" } };
    ]
  in
  let digests = List.map Key.digest distinct in
  let uniq = List.sort_uniq String.compare digests in
  check_int "all parameter changes give distinct digests" (List.length distinct)
    (List.length uniq)

(* ---- LRU cache ---- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "k1" 1;
  Cache.add c "k2" 2;
  check_int "both resident" 2 (Cache.length c);
  (* Touch k1 so k2 becomes the LRU victim. *)
  check_bool "k1 hit" true (Cache.find c "k1" = Some 1);
  Cache.add c "k3" 3;
  check_int "capacity respected" 2 (Cache.length c);
  check_bool "k2 evicted (was least recently used)" true (Cache.find c "k2" = None);
  check_bool "k1 survived" true (Cache.find c "k1" = Some 1);
  check_bool "k3 resident" true (Cache.find c "k3" = Some 3);
  check_int "one eviction" 1 (Cache.evictions c);
  (* Counters: 3 hits (k1 twice, k3 once), 1 miss (k2). *)
  check_int "hits" 3 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c);
  (* mem does not disturb recency or counters. *)
  check_bool "mem k1" true (Cache.mem c "k1");
  check_int "mem does not count as hit" 3 (Cache.hits c);
  (* Overwriting updates in place. *)
  Cache.add c "k1" 10;
  check_bool "overwrite visible" true (Cache.find c "k1" = Some 10);
  check_int "overwrite does not grow" 2 (Cache.length c)

(* ---- fair scheduler ---- *)

let test_sched_fairness () =
  let s = Sched.create ~per_client:8 ~global:64 () in
  (* Client 1 floods; clients 2 and 3 each submit one job.  Round-robin
     must serve them interleaved, not after client 1's backlog. *)
  List.iter (fun j -> assert (Sched.enqueue s ~client:1 j = `Accepted)) [ "a1"; "a2"; "a3"; "a4" ];
  assert (Sched.enqueue s ~client:2 "b1" = `Accepted);
  assert (Sched.enqueue s ~client:3 "c1" = `Accepted);
  let order = ref [] in
  let rec drain () =
    match Sched.dequeue s with
    | Some (_, j) -> order := j :: !order; drain ()
    | None -> ()
  in
  drain ();
  check_bool "round-robin interleaves clients" true
    (List.rev !order = [ "a1"; "b1"; "c1"; "a2"; "a3"; "a4" ]);
  check_int "drained" 0 (Sched.queued s)

let test_sched_backpressure () =
  let s = Sched.create ~per_client:2 ~global:3 () in
  check_bool "1st accepted" true (Sched.enqueue s ~client:1 "a1" = `Accepted);
  check_bool "2nd accepted" true (Sched.enqueue s ~client:1 "a2" = `Accepted);
  check_bool "per-client bound refuses" true (Sched.enqueue s ~client:1 "a3" = `Overloaded);
  check_bool "other client still admitted" true (Sched.enqueue s ~client:2 "b1" = `Accepted);
  check_bool "global bound refuses" true (Sched.enqueue s ~client:3 "c1" = `Overloaded);
  check_int "queued for client 1" 2 (Sched.queued_for s ~client:1);
  (* Dropping a client frees its slots and returns its jobs in order. *)
  check_bool "drop returns FIFO order" true (Sched.drop_client s 1 = [ "a1"; "a2" ]);
  check_int "slots freed" 1 (Sched.queued s);
  check_bool "admission recovers after drop" true (Sched.enqueue s ~client:3 "c1" = `Accepted);
  (* A dropped client's rotation slot must not produce stale service. *)
  check_bool "dequeue b1" true (match Sched.dequeue s with Some (2, "b1") -> true | _ -> false);
  check_bool "dequeue c1" true (match Sched.dequeue s with Some (3, "c1") -> true | _ -> false);
  check_bool "empty" true (Sched.dequeue s = None)

(* ---- end-to-end over loopback TCP ---- *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobra_server_test_%d_%d" (Unix.getpid ()) !temp_counter)
  in
  let rec ensure dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      ensure (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  ensure d;
  d

let test_config ?journal_dir () =
  { Server.default_config with port = 0; pool_domains = Some 1; journal_dir }

let with_server cfg f =
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client srv f =
  let c = Client.connect ~port:(Server.port srv) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let quick_job ?(seed = 2017) () : Proto.job =
  {
    kind = Proto.Cover_time;
    graph = { family = "complete"; n = 64; gseed = 0 };
    branching = Cobra_core.Process.Fixed 2;
    lazy_ = false;
    max_rounds = None;
    trials = 6;
    master_seed = seed;
  }

(* A job still running when we act on it.  A deadline stops a job only
   between chunks of trials, so each trial must outlast the 50 ms
   deadline of [test_e2e_deadline]: on a 2-vCPU VM one takes about
   30 ms at n = 1200 and 0.19 s at n = 3000. *)
let slow_job ?(seed = 7) () : Proto.job =
  {
    kind = Proto.Cover_time;
    graph = { family = "path"; n = 3000; gseed = 0 };
    branching = Cobra_core.Process.Fixed 2;
    lazy_ = false;
    max_rounds = None;
    trials = 4;
    master_seed = seed;
  }

(* The reference result the server must reproduce bit-identically:
   trials are pure functions of (master seed, trial index), so any pool
   width and any restart history gives these exact floats. *)
let reference_result (job : Proto.job) =
  let g = Gen.by_name job.graph.family ~n:job.graph.n (Rng.create job.graph.gseed) in
  Pool.with_pool ~num_domains:1 (fun pool ->
      let est =
        Estimate.cover_time ~pool ~master_seed:job.master_seed ~trials:job.trials
          ~branching:job.branching ~lazy_:job.lazy_ ?max_rounds:job.max_rounds g
      in
      Proto.job_result_of_estimate ~n:(Cobra_graph.Graph.n g) est)

let test_e2e_ping_submit_cache () =
  with_server (test_config ()) (fun srv ->
      with_client srv (fun c ->
          check_bool "pong" true (Client.request c Proto.Ping = Proto.Pong);
          let job = quick_job () in
          let expect = reference_result job in
          (match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "first run is not cached" false cached;
              check_bool "result bit-identical to direct estimate" true (result = expect)
          | r -> Alcotest.failf "unexpected reply: %s" (Json.to_string (Proto.response_to_json ~id:"" r)));
          (* The repeat must come from the cache — same bits, no re-run. *)
          (match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "repeat is cached" true cached;
              check_bool "cached result identical" true (result = expect)
          | _ -> Alcotest.fail "repeat did not return a result");
          (* An equivalent-but-differently-spelled job hits the same entry. *)
          let alias =
            { job with
              graph = { job.graph with family = " COMPLETE " };
              branching = Cobra_core.Process.Bernoulli 1.0 }
          in
          (match Client.request c (Proto.Submit { job = alias; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "canonicalised alias is a cache hit" true cached;
              check_bool "alias gets identical bits" true (result = expect)
          | _ -> Alcotest.fail "alias did not return a result");
          (* Stats reflect what happened. *)
          match Client.request c Proto.Stats with
          | Proto.Stats_reply j ->
              let stat name =
                match Option.bind (Json.member j name) Json.to_int_opt with
                | Some v -> v
                | None -> Alcotest.failf "stats missing %s" name
              in
              check_int "one job executed" 1 (stat "completed");
              let cache = Option.get (Json.member j "cache") in
              check_bool "cache hits counted" true
                (Option.bind (Json.member cache "hits") Json.to_int_opt = Some 2)
          | _ -> Alcotest.fail "no stats reply"))

(* A job whose every trial hits the round cap reports no completed
   trial and no statistic, not one trial of spread 0. *)
let test_e2e_all_censored () =
  with_server (test_config ()) (fun srv ->
      with_client srv (fun c ->
          let job =
            { (quick_job ()) with
              graph = { family = "path"; n = 3000; gseed = 0 };
              max_rounds = Some 1;
              trials = 2 }
          in
          match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { result; _ } ->
              check_int "completed" 0 result.count;
              check_int "censored" 2 result.censored;
              check_bool "mean nan" true (Float.is_nan result.mean);
              check_bool "stddev nan" true (Float.is_nan result.stddev);
              (* [compare], not [=]: nan fields are never [=]. *)
              check_bool "matches the direct estimate" true
                (compare result (reference_result job) = 0)
          | r -> Alcotest.failf "unexpected reply: %s" (Json.to_string (Proto.response_to_json ~id:"" r))))

let test_e2e_bad_requests () =
  with_server (test_config ()) (fun srv ->
      with_client srv (fun c ->
          let job = { (quick_job ()) with graph = { family = "nope"; n = 64; gseed = 0 } } in
          (match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Error { code = Proto.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "unknown family must be a typed bad_request");
          (* The connection survives the refusal. *)
          check_bool "still serviceable" true (Client.request c Proto.Ping = Proto.Pong)))

let test_e2e_malformed_frame () =
  with_server (test_config ()) (fun srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
          Wire.write_frame fd "this is not json";
          (match Json.of_string (Wire.read_frame fd) with
          | Ok j -> (
              match Proto.response_of_json j with
              | Ok (_, Proto.Error { code = Proto.Bad_request; _ }) -> ()
              | _ -> Alcotest.fail "malformed payload must get bad_request")
          | Error m -> Alcotest.failf "server sent unparseable error: %s" m);
          (* Framing survived: a real request on the same connection works. *)
          Wire.write_frame fd (Json.to_string (Proto.request_to_json ~id:"p" Proto.Ping));
          match Proto.response_of_json (Json.of_string_exn (Wire.read_frame fd)) with
          | Ok ("p", Proto.Pong) -> ()
          | _ -> Alcotest.fail "connection unusable after a bad request"))

let test_e2e_deadline () =
  with_server (test_config ()) (fun srv ->
      with_client srv (fun c ->
          (match
             Client.request c (Proto.Submit { job = slow_job (); deadline_s = Some 0.05 })
           with
          | Proto.Error { code = Proto.Deadline_exceeded; _ } -> ()
          | Proto.Result _ -> Alcotest.fail "slow job beat a 50ms deadline?"
          | r ->
              Alcotest.failf "expected deadline_exceeded, got %s"
                (Json.to_string (Proto.response_to_json ~id:"" r)));
          (* The executor and pool survive a deadline kill: the next job
             runs normally and produces correct bits. *)
          let job = quick_job ~seed:31 () in
          match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { result; _ } ->
              check_bool "pool usable after deadline" true (result = reference_result job)
          | _ -> Alcotest.fail "job after deadline failed"))

let test_e2e_backpressure () =
  let cfg = { (test_config ()) with queue_per_client = 1; queue_global = 1 } in
  with_server cfg (fun srv ->
      with_client srv (fun c ->
          (* Three distinct slow jobs: the first occupies the executor,
             the second fills the only queue slot, the third must be
             refused with the typed overloaded response. *)
          let id1 = Client.send c (Proto.Submit { job = slow_job ~seed:1 (); deadline_s = None }) in
          (* Wait until the executor has dequeued job 1 (stats answer
             inline, well before job 1's result), so job 2 gets the
             queue slot deterministically rather than racing for it. *)
          let rec wait_running n =
            if n = 0 then Alcotest.fail "first job never started";
            match Client.request c Proto.Stats with
            | Proto.Stats_reply j -> (
                match Json.member j "running" with
                | Some (Json.String _) -> ()
                | _ ->
                    Unix.sleepf 0.01;
                    wait_running (n - 1))
            | _ -> Alcotest.fail "no stats reply"
          in
          wait_running 500;
          let id2 = Client.send c (Proto.Submit { job = slow_job ~seed:2 (); deadline_s = None }) in
          let id3 = Client.send c (Proto.Submit { job = slow_job ~seed:3 (); deadline_s = None }) in
          let responses = List.init 3 (fun _ -> Client.recv c) in
          let find id =
            match List.assoc_opt id responses with
            | Some r -> r
            | None -> Alcotest.failf "no response for %s" id
          in
          (match find id3 with
          | Proto.Error { code = Proto.Overloaded; _ } -> ()
          | _ -> Alcotest.fail "third job must be refused as overloaded");
          (match (find id1, find id2) with
          | Proto.Result _, Proto.Result _ -> ()
          | _ -> Alcotest.fail "admitted jobs must still complete")))

let test_e2e_resume_from_journal () =
  let dir = fresh_dir () in
  let job = quick_job ~seed:77 () in
  let digest = Key.digest job in
  let expect = reference_result job in
  (* Simulate a server that accepted the job and was then killed hard:
     jobs.jsonl holds the accepted record with no terminal line. *)
  let oc = open_out (Filename.concat dir "jobs.jsonl") in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("digest", Json.String digest);
            ("status", Json.String "accepted");
            ("job", Proto.job_to_json job);
          ]));
  output_char oc '\n';
  close_out oc;
  with_server (test_config ~journal_dir:dir ()) (fun srv ->
      with_client srv (fun c ->
          (* The boot scan re-queued the orphan; submitting the same job
             either attaches to it or hits the cache once it finishes.
             Either way the bits must match the reference exactly. *)
          (match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { result; _ } ->
              check_bool "resumed job is bit-identical" true (result = expect)
          | r ->
              Alcotest.failf "resume did not produce a result: %s"
                (Json.to_string (Proto.response_to_json ~id:"" r)));
          match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "now served from cache" true cached;
              check_bool "cached bits identical" true (result = expect)
          | _ -> Alcotest.fail "repeat after resume failed"));
  (* The journal now carries the done record: a fresh boot must serve
     the job from the preloaded cache without re-running anything. *)
  with_server (test_config ~journal_dir:dir ()) (fun srv ->
      with_client srv (fun c ->
          match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "warm boot serves from preloaded cache" true cached;
              check_bool "warm boot bits identical" true (result = expect)
          | _ -> Alcotest.fail "warm boot failed"))

let test_e2e_warm_cache_no_rerun () =
  (* A sentinel result in the journal proves preloads are served as-is,
     not re-simulated: no simulation could produce these values. *)
  let dir = fresh_dir () in
  let job = quick_job ~seed:123 () in
  let digest = Key.digest job in
  let sentinel : Proto.job_result =
    {
      n = 64; count = 6; mean = 123456.5; stddev = 0.25; min = 1.0; max = 999999.0;
      median = 123456.0; q90 = 777777.0; censored = 0; mean_transmissions = 42.0;
    }
  in
  let oc = open_out (Filename.concat dir "jobs.jsonl") in
  List.iter
    (fun line ->
      output_string oc (Json.to_string line);
      output_char oc '\n')
    [
      Json.Obj
        [
          ("digest", Json.String digest);
          ("status", Json.String "accepted");
          ("job", Proto.job_to_json job);
        ];
      Json.Obj
        [
          ("digest", Json.String digest);
          ("status", Json.String "done");
          ("result", Proto.job_result_to_json sentinel);
        ];
    ];
  close_out oc;
  with_server (test_config ~journal_dir:dir ()) (fun srv ->
      with_client srv (fun c ->
          match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "served from cache" true cached;
              check_bool "sentinel returned verbatim (no re-run)" true (result = sentinel)
          | _ -> Alcotest.fail "warm cache lookup failed"))

let test_e2e_other_model_not_replayed () =
  (* A done line written before the randomness-model tag joined the
     canonical key is addressed by the digest of the tag-free canonical
     form.  The same job now digests differently, so the preloaded
     result is never served: the job runs fresh. *)
  let dir = fresh_dir () in
  let job = quick_job ~seed:321 () in
  let untagged_digest =
    Key.canonical job |> String.split_on_char ';'
    |> List.filter (fun field -> not (String.starts_with ~prefix:"model=" field))
    |> String.concat ";" |> Digest.string |> Digest.to_hex
  in
  check_bool "tag changes the digest" true (untagged_digest <> Key.digest job);
  let sentinel : Proto.job_result =
    {
      n = 64; count = 6; mean = 123456.5; stddev = 0.25; min = 1.0; max = 999999.0;
      median = 123456.0; q90 = 777777.0; censored = 0; mean_transmissions = 42.0;
    }
  in
  let oc = open_out (Filename.concat dir "jobs.jsonl") in
  List.iter
    (fun line ->
      output_string oc (Json.to_string line);
      output_char oc '\n')
    [
      Json.Obj
        [
          ("digest", Json.String untagged_digest);
          ("status", Json.String "accepted");
          ("job", Proto.job_to_json job);
        ];
      Json.Obj
        [
          ("digest", Json.String untagged_digest);
          ("status", Json.String "done");
          ("result", Proto.job_result_to_json sentinel);
        ];
    ];
  close_out oc;
  with_server (test_config ~journal_dir:dir ()) (fun srv ->
      with_client srv (fun c ->
          match Client.request c (Proto.Submit { job; deadline_s = None }) with
          | Proto.Result { cached; result; _ } ->
              check_bool "not served from the old model's line" false cached;
              check_bool "fresh keyed result" true (result = reference_result job)
          | _ -> Alcotest.fail "submit failed"))

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "whole frames" `Quick test_decoder_whole_frames;
          Alcotest.test_case "byte-at-a-time reassembly" `Quick test_decoder_byte_at_a_time;
          Alcotest.test_case "oversize rejection" `Quick test_decoder_oversize;
          Alcotest.test_case "blocking round-trip" `Quick test_blocking_roundtrip;
        ] );
      ( "proto",
        [
          Alcotest.test_case "round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "rejects" `Quick test_proto_rejects;
        ] );
      ("key", [ Alcotest.test_case "canonicalisation" `Quick test_key_canonicalisation ]);
      ("cache", [ Alcotest.test_case "lru + counters" `Quick test_cache_lru ]);
      ( "sched",
        [
          Alcotest.test_case "fairness" `Quick test_sched_fairness;
          Alcotest.test_case "backpressure" `Quick test_sched_backpressure;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "ping, submit, cache" `Quick test_e2e_ping_submit_cache;
          Alcotest.test_case "all trials censored" `Quick test_e2e_all_censored;
          Alcotest.test_case "bad requests" `Quick test_e2e_bad_requests;
          Alcotest.test_case "malformed frame" `Quick test_e2e_malformed_frame;
          Alcotest.test_case "deadline" `Quick test_e2e_deadline;
          Alcotest.test_case "backpressure" `Quick test_e2e_backpressure;
          Alcotest.test_case "resume from journal" `Quick test_e2e_resume_from_journal;
          Alcotest.test_case "warm cache, no re-run" `Quick test_e2e_warm_cache_no_rerun;
          Alcotest.test_case "other randomness model not replayed" `Quick
            test_e2e_other_model_not_replayed;
        ] );
    ]
