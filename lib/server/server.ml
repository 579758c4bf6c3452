module Json = Cobra_obs.Json
module Obs = Cobra_obs.Obs
module Trace = Cobra_obs.Trace
module Timer = Cobra_obs.Timer
module Pool = Cobra_parallel.Pool
module Journal = Cobra_parallel.Journal
module Montecarlo = Cobra_parallel.Montecarlo
module Estimate = Cobra_core.Estimate
module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph

type config = {
  host : string;
  port : int;
  pool_domains : int option;
  cache_capacity : int;
  queue_per_client : int;
  queue_global : int;
  journal_dir : string option;
  obs_dir : string option;
  max_frame : int;
  default_deadline_s : float option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    pool_domains = None;
    cache_capacity = 1024;
    queue_per_client = 64;
    queue_global = 1024;
    journal_dir = None;
    obs_dir = None;
    max_frame = Wire.default_max_frame;
    default_deadline_s = None;
  }

(* --- jobs and the loop/executor handshake --- *)

type queued_job = { digest : string; job : Proto.job; deadline_s : float option }
type outcome = Done of Proto.job_result | Failed of Proto.error_code * string
type completion = { digest : string; outcome : outcome; elapsed_ms : float }

(* State shared between the serve loop and the executor, guarded by
   [mutex] except for the two Atomics, which a signal handler may
   touch through [request_stop]. *)
type shared = {
  mutex : Mutex.t;
  cond : Condition.t;  (* executor sleeps here when the scheduler is idle *)
  sched : queued_job Sched.t;
  completions : completion Queue.t;
  mutable running : string option;  (* digest being executed right now *)
  current_cancel : Pool.Cancel.t option Atomic.t;
  shutdown : bool Atomic.t;
  wake_w : Unix.file_descr;  (* self-pipe: executor -> serve loop *)
}

let wake sh =
  try ignore (Unix.write sh.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

(* --- executor --- *)

let execute ~pool ~journal ~obs ~cancel (qj : queued_job) =
  let job = qj.job in
  try
    (* Scope the trial journal to this job's digest: every checkpoint
       is addressed by (digest, sweep 0, master seed, trials, trial),
       so a re-execution of the same digest — crash-resume or a cache
       miss after eviction — replays completed trials for free. *)
    Option.iter (fun j -> Journal.set_experiment j qj.digest) journal;
    let family = String.lowercase_ascii (String.trim job.graph.family) in
    let g = Gen.by_name family ~n:job.graph.n (Cobra_prng.Rng.create job.graph.gseed) in
    if Obs.enabled obs then Obs.emit obs (Trace.Experiment_started { id = qj.digest });
    let timer = Timer.start () in
    let est =
      Montecarlo.with_context ?journal ~cancel ?deadline_s:qj.deadline_s (fun () ->
          match job.kind with
          | Proto.Cover_time ->
              Estimate.cover_time ~obs ~pool ~master_seed:job.master_seed ~trials:job.trials
                ~branching:job.branching ~lazy_:job.lazy_ ?max_rounds:job.max_rounds g
          | Proto.Infection_time ->
              Estimate.infection_time ~obs ~pool ~master_seed:job.master_seed
                ~trials:job.trials ~branching:job.branching ~lazy_:job.lazy_
                ?max_rounds:job.max_rounds g)
    in
    if Obs.enabled obs then
      Obs.emit obs
        (Trace.Experiment_completed { id = qj.digest; seconds = Timer.elapsed_s timer });
    Done (Proto.job_result_of_estimate ~n:(Graph.n g) est)
  with
  | Montecarlo.Interrupted { reason = `Deadline; completed; total } ->
      Failed
        ( Proto.Deadline_exceeded,
          Printf.sprintf "deadline exceeded after %d/%d trials" completed total )
  | Montecarlo.Interrupted { reason = `Cancelled; completed; total } ->
      Failed (Proto.Cancelled, Printf.sprintf "cancelled after %d/%d trials" completed total)
  | Invalid_argument m -> Failed (Proto.Bad_request, m)
  | e -> Failed (Proto.Internal, Printexc.to_string e)

let executor_loop sh ~pool ~journal ~obs =
  let rec loop () =
    Mutex.lock sh.mutex;
    let rec take () =
      if Atomic.get sh.shutdown then begin
        Mutex.unlock sh.mutex;
        None
      end
      else
        match Sched.dequeue sh.sched with
        | Some (_client, qj) ->
            let cancel = Pool.Cancel.create () in
            sh.running <- Some qj.digest;
            Atomic.set sh.current_cancel (Some cancel);
            Mutex.unlock sh.mutex;
            Some (qj, cancel)
        | None ->
            Condition.wait sh.cond sh.mutex;
            take ()
    in
    match take () with
    | None -> ()
    | Some (qj, cancel) ->
        let timer = Timer.start () in
        let outcome = execute ~pool ~journal ~obs ~cancel qj in
        let elapsed_ms = Timer.elapsed_s timer *. 1000.0 in
        Mutex.lock sh.mutex;
        sh.running <- None;
        Atomic.set sh.current_cancel None;
        Queue.push { digest = qj.digest; outcome; elapsed_ms } sh.completions;
        Mutex.unlock sh.mutex;
        wake sh;
        loop ()
  in
  loop ()

(* --- serve loop --- *)

type waiter = { w_client : int; w_req : string }
type pending_entry = { mutable waiters : waiter list; orphan : bool }

type client = {
  cid : int;
  fd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  mutable alive : bool;
}

type counters = {
  mutable connections : int;
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable deduped : int;
  mutable overloaded : int;
  mutable bad_requests : int;
}

type loop_state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  clients : (int, client) Hashtbl.t;  (* by client id *)
  pending : (string, pending_entry) Hashtbl.t;  (* queued or running digests *)
  cache : Proto.job_result Cache.t;
  jobs_oc : out_channel option;  (* jobs.jsonl appender *)
  counters : counters;
  started_at : float;
  mutable next_cid : int;
  pool : Pool.t;
  trials_journal : Journal.t option;
}

let jobs_line st fields =
  match st.jobs_oc with
  | None -> ()
  | Some oc ->
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n';
      (* Flushed per line: the accepted record must already be durable
         when a kill -9 lands mid-job, or there is nothing to resume. *)
      flush oc

let journal_accepted st ~digest job =
  jobs_line st
    [
      ("digest", Json.String digest);
      ("status", Json.String "accepted");
      ("job", Proto.job_to_json job);
    ]

let journal_done st ~digest result =
  jobs_line st
    [
      ("digest", Json.String digest);
      ("status", Json.String "done");
      ("result", Proto.job_result_to_json result);
    ]

let journal_failed st ~digest code message =
  jobs_line st
    [
      ("digest", Json.String digest);
      ("status", Json.String "failed");
      ("code", Json.String (Proto.error_code_to_string code));
      ("message", Json.String message);
    ]

let send _st cl ~req_id response =
  if cl.alive then
    try Wire.write_frame cl.fd (Json.to_string (Proto.response_to_json ~id:req_id response))
    with Unix.Unix_error _ | Sys_error _ ->
      (* Peer gone (or stuck past the send timeout); the disconnect
         bookkeeping happens when the read side notices.  Mark it dead
         now so we stop writing into the void. *)
      cl.alive <- false

let send_to st ~cid ~req_id response =
  match Hashtbl.find_opt st.clients cid with
  | Some cl -> send st cl ~req_id response
  | None -> ()

let stats_json st sh =
  let queued, running =
    Mutex.lock sh.mutex;
    let q = Sched.queued sh.sched in
    let r = sh.running in
    Mutex.unlock sh.mutex;
    (q, r)
  in
  let ps = Pool.stats st.pool in
  let c = st.counters in
  Json.Obj
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started_at));
      ("clients", Json.Int (Hashtbl.length st.clients));
      ("connections", Json.Int c.connections);
      ("accepted", Json.Int c.accepted);
      ("completed", Json.Int c.completed);
      ("failed", Json.Int c.failed);
      ("deduped", Json.Int c.deduped);
      ("overloaded", Json.Int c.overloaded);
      ("bad_requests", Json.Int c.bad_requests);
      ("queued", Json.Int queued);
      ("running", match running with Some d -> Json.String d | None -> Json.Null);
      ( "cache",
        Json.Obj
          [
            ("length", Json.Int (Cache.length st.cache));
            ("capacity", Json.Int (Cache.capacity st.cache));
            ("hits", Json.Int (Cache.hits st.cache));
            ("misses", Json.Int (Cache.misses st.cache));
            ("evictions", Json.Int (Cache.evictions st.cache));
          ] );
      ( "pool",
        Json.Obj
          [
            ("workers", Json.Int ps.workers);
            ("busy_workers", Json.Int ps.busy_workers);
            ("jobs_in_flight", Json.Int ps.jobs_in_flight);
            ("jobs_completed", Json.Int ps.jobs_completed);
          ] );
      ( "journal",
        match st.trials_journal with
        | None -> Json.Null
        | Some j ->
            Json.Obj
              [
                ("trials_loaded", Json.Int (Journal.loaded j));
                ("trials_replayed", Json.Int (Journal.replayed j));
                ("trials_appended", Json.Int (Journal.appended j));
              ] );
    ]

let handle_submit st sh cl ~req_id job deadline_s =
  match Proto.validate_job job with
  | Error m ->
      st.counters.bad_requests <- st.counters.bad_requests + 1;
      send st cl ~req_id (Proto.Error { code = Proto.Bad_request; message = m })
  | Ok () -> (
      let timer = Timer.start () in
      let digest = Key.digest job in
      match Cache.find st.cache digest with
      | Some result ->
          send st cl ~req_id
            (Proto.Result { cached = true; server_ms = Timer.elapsed_s timer *. 1000.0; result })
      | None -> (
          match Hashtbl.find_opt st.pending digest with
          | Some entry ->
              (* Same digest already queued or running: attach, don't
                 re-execute. *)
              st.counters.deduped <- st.counters.deduped + 1;
              entry.waiters <- entry.waiters @ [ { w_client = cl.cid; w_req = req_id } ]
          | None -> (
              let deadline_s =
                match deadline_s with Some _ -> deadline_s | None -> st.cfg.default_deadline_s
              in
              let qj = { digest; job; deadline_s } in
              Mutex.lock sh.mutex;
              let verdict = Sched.enqueue sh.sched ~client:cl.cid qj in
              (match verdict with `Accepted -> Condition.signal sh.cond | `Overloaded -> ());
              Mutex.unlock sh.mutex;
              match verdict with
              | `Overloaded ->
                  st.counters.overloaded <- st.counters.overloaded + 1;
                  send st cl ~req_id
                    (Proto.Error
                       {
                         code = Proto.Overloaded;
                         message = "job queue full; retry with backoff";
                       })
              | `Accepted ->
                  st.counters.accepted <- st.counters.accepted + 1;
                  journal_accepted st ~digest job;
                  Hashtbl.replace st.pending digest
                    { waiters = [ { w_client = cl.cid; w_req = req_id } ]; orphan = false })))

let handle_frame st sh cl payload =
  match Json.of_string payload with
  | Error m ->
      st.counters.bad_requests <- st.counters.bad_requests + 1;
      send st cl ~req_id:"" (Proto.Error { code = Proto.Bad_request; message = m })
  | Ok j -> (
      match Proto.request_of_json j with
      | Error m ->
          st.counters.bad_requests <- st.counters.bad_requests + 1;
          let req_id =
            match Option.bind (Json.member j "id") Json.to_string_opt with
            | Some id -> id
            | None -> ""
          in
          send st cl ~req_id (Proto.Error { code = Proto.Bad_request; message = m })
      | Ok (req_id, Proto.Ping) -> send st cl ~req_id Proto.Pong
      | Ok (req_id, Proto.Stats) -> send st cl ~req_id (Proto.Stats_reply (stats_json st sh))
      | Ok (req_id, Proto.Submit { job; deadline_s }) ->
          handle_submit st sh cl ~req_id job deadline_s)

(* A client went away: forget its waiters, drop its queued jobs (unless
   another client is waiting on the same digest, in which case the job
   migrates to that client's FIFO), and cancel the running job if nobody
   is left to hear the answer.  Orphans (boot-resumed jobs) always run
   to completion — their value is the warm cache and the journal. *)
let disconnect st sh cl =
  if Hashtbl.mem st.clients cl.cid then begin
    cl.alive <- false;
    Hashtbl.remove st.clients cl.cid;
    (try Unix.close cl.fd with Unix.Unix_error _ -> ());
    Mutex.lock sh.mutex;
    let dropped = Sched.drop_client sh.sched cl.cid in
    Mutex.unlock sh.mutex;
    Hashtbl.iter
      (fun _ entry ->
        entry.waiters <- List.filter (fun w -> w.w_client <> cl.cid) entry.waiters)
      st.pending;
    List.iter
      (fun (qj : queued_job) ->
        match Hashtbl.find_opt st.pending qj.digest with
        | None -> ()
        | Some entry -> (
            match entry.waiters with
            | [] ->
                Hashtbl.remove st.pending qj.digest;
                journal_failed st ~digest:qj.digest Proto.Cancelled
                  "abandoned: client disconnected"
            | { w_client; _ } :: _ -> (
                Mutex.lock sh.mutex;
                let verdict = Sched.enqueue sh.sched ~client:w_client qj in
                (match verdict with `Accepted -> Condition.signal sh.cond | `Overloaded -> ());
                Mutex.unlock sh.mutex;
                match verdict with
                | `Accepted -> ()
                | `Overloaded ->
                    st.counters.overloaded <- st.counters.overloaded + 1;
                    List.iter
                      (fun w ->
                        send_to st ~cid:w.w_client ~req_id:w.w_req
                          (Proto.Error
                             {
                               code = Proto.Overloaded;
                               message = "job lost its submitter and the queue is full";
                             }))
                      entry.waiters;
                    Hashtbl.remove st.pending qj.digest;
                    journal_failed st ~digest:qj.digest Proto.Overloaded
                      "abandoned: requeue refused")))
      dropped;
    Mutex.lock sh.mutex;
    (match sh.running with
    | Some digest -> (
        match Hashtbl.find_opt st.pending digest with
        | Some { waiters = []; orphan = false } -> (
            match Atomic.get sh.current_cancel with
            | Some token -> Pool.Cancel.cancel token
            | None -> ())
        | _ -> ())
    | None -> ());
    Mutex.unlock sh.mutex
  end

let handle_completion st sh (comp : completion) =
  let waiters =
    match Hashtbl.find_opt st.pending comp.digest with
    | Some entry ->
        Hashtbl.remove st.pending comp.digest;
        entry.waiters
    | None -> []
  in
  match comp.outcome with
  | Done result ->
      st.counters.completed <- st.counters.completed + 1;
      Cache.add st.cache comp.digest result;
      journal_done st ~digest:comp.digest result;
      List.iter
        (fun w ->
          send_to st ~cid:w.w_client ~req_id:w.w_req
            (Proto.Result { cached = false; server_ms = comp.elapsed_ms; result }))
        waiters
  | Failed (code, message) ->
      st.counters.failed <- st.counters.failed + 1;
      (* A job cancelled by shutdown keeps its bare accepted record and
         is resumed at the next boot; every other failure is terminal
         and recorded so boot does not re-run it. *)
      if not (code = Proto.Cancelled && Atomic.get sh.shutdown) then
        journal_failed st ~digest:comp.digest code message;
      List.iter
        (fun w -> send_to st ~cid:w.w_client ~req_id:w.w_req (Proto.Error { code; message }))
        waiters

let drain_completions st sh =
  let rec loop () =
    Mutex.lock sh.mutex;
    let comp = Queue.take_opt sh.completions in
    Mutex.unlock sh.mutex;
    match comp with
    | Some comp ->
        handle_completion st sh comp;
        loop ()
    | None -> ()
  in
  loop ()

let drain_wake_pipe st =
  let buf = Bytes.create 256 in
  let rec loop () =
    match Unix.read st.wake_r buf 0 256 with
    | 256 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let rec accept_clients st =
  match Unix.accept ~cloexec:true st.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_clients st
  | fd, _addr ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      (* A peer that stops reading must not wedge the serve loop inside
         a response write; time the write out and drop the client. *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0 with Unix.Unix_error _ -> ());
      let cid = st.next_cid in
      st.next_cid <- cid + 1;
      st.counters.connections <- st.counters.connections + 1;
      Hashtbl.replace st.clients cid
        {
          cid;
          fd;
          decoder = Wire.Decoder.create ~max_frame:st.cfg.max_frame ();
          alive = true;
        };
      accept_clients st

let read_client st sh cl buf =
  match Unix.read cl.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> disconnect st sh cl
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | 0 -> disconnect st sh cl
  | n -> (
      match Wire.Decoder.feed cl.decoder buf n with
      | exception Wire.Frame_too_large len ->
          send st cl ~req_id:""
            (Proto.Error
               {
                 code = Proto.Bad_request;
                 message = Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
                     st.cfg.max_frame;
               });
          disconnect st sh cl
      | () ->
          let rec frames () =
            if cl.alive then
              match Wire.Decoder.next cl.decoder with
              | exception Wire.Frame_too_large len ->
                  send st cl ~req_id:""
                    (Proto.Error
                       {
                         code = Proto.Bad_request;
                         message =
                           Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
                             st.cfg.max_frame;
                       });
                  disconnect st sh cl
              | Some payload ->
                  handle_frame st sh cl payload;
                  frames ()
              | None -> ()
          in
          frames ();
          if not cl.alive then disconnect st sh cl)

let serve_loop st sh =
  let buf = Bytes.create 65536 in
  while not (Atomic.get sh.shutdown) do
    let client_fds = Hashtbl.fold (fun _ cl acc -> cl.fd :: acc) st.clients [] in
    match Unix.select (st.listen_fd :: st.wake_r :: client_fds) [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.mem st.wake_r ready then begin
          drain_wake_pipe st;
          drain_completions st sh;
          (* With the replies written and nothing running or queued, empty
             the minor heaps now, off every job's latency.  A minor
             collection stops every domain, so this one call empties the
             executor's and the pool's too: no domain's minor heap grows
             resident past one job's allocation. *)
          Mutex.lock sh.mutex;
          let idle = sh.running = None && Sched.queued sh.sched = 0 in
          Mutex.unlock sh.mutex;
          if idle then Gc.minor ()
        end;
        if List.mem st.listen_fd ready then accept_clients st;
        List.iter
          (fun fd ->
            if fd != st.listen_fd && fd != st.wake_r then
              let found =
                Hashtbl.fold
                  (fun _ cl acc -> if cl.fd = fd then Some cl else acc)
                  st.clients None
              in
              match found with Some cl -> read_client st sh cl buf | None -> ())
          ready
  done;
  (* Make sure an idle executor observes the shutdown flag. *)
  Mutex.lock sh.mutex;
  Condition.broadcast sh.cond;
  Mutex.unlock sh.mutex

(* --- boot: journal scan --- *)

let mkdir_p dir =
  let rec ensure dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      ensure (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  ensure dir

type scan_state = {
  mutable s_status : [ `Accepted | `Done of Proto.job_result | `Failed ];
  mutable s_job : Proto.job option;
}

(* Fold jobs.jsonl into the last known status per digest, preserving
   first-seen order so the cache preload approximates recency. *)
let scan_jobs_journal path =
  let table : (string, scan_state) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = String.trim (input_line ic) in
            if line <> "" then
              match Json.of_string line with
              | Error _ -> () (* torn tail after a hard kill *)
              | Ok j -> (
                  let str k = Option.bind (Json.member j k) Json.to_string_opt in
                  match (str "digest", str "status") with
                  | Some digest, Some status ->
                      let state =
                        match Hashtbl.find_opt table digest with
                        | Some s -> s
                        | None ->
                            let s = { s_status = `Failed; s_job = None } in
                            Hashtbl.replace table digest s;
                            order := digest :: !order;
                            s
                      in
                      (match status with
                      | "accepted" ->
                          state.s_status <- `Accepted;
                          Option.iter
                            (fun jj ->
                              match Proto.job_of_json jj with
                              | Ok job -> state.s_job <- Some job
                              | Error _ -> ())
                            (Json.member j "job")
                      | "done" -> (
                          match
                            Option.map Proto.job_result_of_json (Json.member j "result")
                          with
                          | Some (Ok r) -> state.s_status <- `Done r
                          | _ -> state.s_status <- `Failed)
                      | "failed" -> state.s_status <- `Failed
                      | _ -> ())
                  | _ -> ())
          done
        with End_of_file -> ())
  end;
  (List.rev !order, table)

(* --- lifecycle --- *)

type t = {
  sh : shared;
  st : loop_state;
  bound_port : int;
  executor : unit Domain.t;
  loop : unit Domain.t;
  obs : Obs.t;
  mutable stopped : bool;
}

let port t = t.bound_port

let start cfg =
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd 128;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let pool = Pool.create ?num_domains:cfg.pool_domains () in
  let jobs_oc, trials_journal, resumable =
    match cfg.journal_dir with
    | None -> (None, None, [])
    | Some dir ->
        mkdir_p dir;
        let jobs_path = Filename.concat dir "jobs.jsonl" in
        let order, table = scan_jobs_journal jobs_path in
        let trials = Journal.load (Filename.concat dir "trials.jsonl") in
        let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 jobs_path in
        let resumable =
          List.filter_map
            (fun digest ->
              match Hashtbl.find_opt table digest with
              | Some { s_status = `Accepted; s_job = Some job } -> Some (digest, job)
              | _ -> None)
            order
        in
        (Some oc, Some trials, (order, table, resumable) :: [])
  in
  let sh =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      sched = Sched.create ~per_client:cfg.queue_per_client ~global:cfg.queue_global ();
      completions = Queue.create ();
      running = None;
      current_cancel = Atomic.make None;
      shutdown = Atomic.make false;
      wake_w;
    }
  in
  let st =
    {
      cfg;
      listen_fd;
      wake_r;
      clients = Hashtbl.create 32;
      pending = Hashtbl.create 64;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      jobs_oc;
      counters =
        {
          connections = 0;
          accepted = 0;
          completed = 0;
          failed = 0;
          deduped = 0;
          overloaded = 0;
          bad_requests = 0;
        };
      started_at = Unix.gettimeofday ();
      next_cid = 0;
      pool;
      trials_journal;
    }
  in
  (* Warm the cache with completed results and re-queue jobs the last
     process accepted but never finished (kill -9 leaves exactly this
     shape behind).  Orphans run before any client can submit — they
     are first in FIFO order — and their results enter cache+journal. *)
  (match resumable with
  | [ (order, table, orphans) ] ->
      List.iter
        (fun digest ->
          match Hashtbl.find_opt table digest with
          | Some { s_status = `Done r; _ } -> Cache.add st.cache digest r
          | _ -> ())
        order;
      List.iter
        (fun (digest, job) ->
          match Proto.validate_job job with
          | Error _ -> ()
          | Ok () ->
              let qj = { digest; job; deadline_s = None } in
              (match Sched.enqueue sh.sched ~client:(-1) qj with
              | `Accepted -> Hashtbl.replace st.pending digest { waiters = []; orphan = true }
              | `Overloaded -> ()))
        orphans
  | _ -> ());
  let journal = trials_journal in
  let obs =
    match cfg.obs_dir with
    | None -> Obs.null
    | Some dir ->
        mkdir_p dir;
        Obs.create ~sink:(Trace.jsonl (Filename.concat dir "events.jsonl")) ()
  in
  let executor = Domain.spawn (fun () -> executor_loop sh ~pool ~journal ~obs) in
  let loop = Domain.spawn (fun () -> serve_loop st sh) in
  { sh; st; bound_port; executor; loop; obs; stopped = false }

let request_stop t =
  Atomic.set t.sh.shutdown true;
  match Atomic.get t.sh.current_cancel with
  | Some token -> Pool.Cancel.cancel token
  | None -> ()

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    request_stop t;
    (* The serve loop re-checks the flag within its select timeout and
       broadcasts the executor awake on its way out. *)
    Domain.join t.loop;
    Mutex.lock t.sh.mutex;
    Condition.broadcast t.sh.cond;
    Mutex.unlock t.sh.mutex;
    Domain.join t.executor;
    let st = t.st and sh = t.sh in
    (* Both domains are gone: this thread now owns all loop state.
       Flush the last completion (the cancelled or finished in-flight
       job) and tell clients still waiting on queued work that the
       server is going away — their jobs stay journalled as accepted
       and resume at the next boot. *)
    drain_completions st sh;
    Hashtbl.iter
      (fun _ entry ->
        List.iter
          (fun w ->
            send_to st ~cid:w.w_client ~req_id:w.w_req
              (Proto.Error { code = Proto.Cancelled; message = "server shutting down" }))
          entry.waiters)
      st.pending;
    (match st.cfg.journal_dir with
    | Some dir ->
        write_file
          (Filename.concat dir "stats.json")
          (Json.to_string_pretty (stats_json st sh) ^ "\n")
    | None -> ());
    (match st.cfg.obs_dir with
    | Some dir when Obs.enabled t.obs ->
        write_file
          (Filename.concat dir "metrics.json")
          (Json.to_string_pretty
             (Cobra_obs.Report.to_json (Cobra_obs.Metrics.snapshot (Obs.metrics t.obs)))
          ^ "\n")
    | _ -> ());
    Obs.close t.obs;
    (match st.trials_journal with Some j -> Journal.close j | None -> ());
    (match st.jobs_oc with Some oc -> close_out oc | None -> ());
    Hashtbl.iter (fun _ cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ()) st.clients;
    Hashtbl.reset st.clients;
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close st.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close sh.wake_w with Unix.Unix_error _ -> ());
    Pool.shutdown st.pool
  end
