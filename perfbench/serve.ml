(* Workload serve-mixed: a cobra-serve process with its default
   configuration and no journal, driven by an open loop.

   The only workload through Wire/Proto/Sched/Cache.  One generator (this
   process) sends every job at its due time, whatever the server is
   doing, over as many pipelined connections as the machine has CPUs, at
   a fixed offered rate below the server's capacity.  The mix, drawn from
   the seed: fresh cover-time jobs over a few small graph specs (the
   server builds each graph per job, unlike cover-cgr which reads one),
   plus repeats of earlier jobs, which the result cache answers.  A job's
   latency runs from its due time to its reply, so a stalled generator or
   server charges every job queued behind the stall. *)

module Proto = Cobra_server.Proto
module Client = Cobra_server.Client
module Json = Cobra_obs.Json
module Rng = Cobra_prng.Rng
module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Pool = Cobra_parallel.Pool
module Estimate = Cobra_core.Estimate
module Process = Cobra_core.Process

let setup_reps = 31
let rate = 50.0 (* offered jobs per second *)
let min_jobs = 1000 (* so at least ten jobs lie beyond the p99 *)
let trials = 4

(* Fresh cheap specs, and one expensive spec whose graph generation is
   about half its service time. *)
let light = [| ("hypercube", 1024); ("torus2d", 1024); ("lollipop", 128) |]
let heavy = ("regular-8", 512)

(* Shares of the schedule.  No recorded cobra-serve traffic exists to
   take them from; they are an assumption, chosen so that both reported
   quantiles fall inside a band of fresh jobs rather than on the edge
   between two kinds.  Sorted by latency the jobs are: repeats (40%, a
   round trip), light fresh jobs (57%, about a third per spec) and heavy
   fresh jobs (3%).  The p50 thus lies in the cheapest light spec's band
   and the p99 at about the 67th percentile of the heavy jobs, and both
   include graph generation, scheduling and execution.  The offered rate
   and [trials] keep the executor busy about a quarter of the time on a
   2-CPU host: at twice that, a spell of CPU steal on the host pushed the
   server past capacity, its queue filled and jobs were refused. *)
let repeat_share = 0.4
let heavy_share = 0.03

(* A repeat only reuses a job due at least this much earlier, so most
   repeats find the result cached rather than in flight. *)
let repeat_age_s = 0.5

(* Fresh jobs answered before the open loop starts, so the first
   repeats have results to hit. *)
let warm_share = 0.01

type origin = Warm of int | Job of int
type job = { due_s : float; job : Proto.job; repeat_of : origin option }

let make_job (family, n) rng =
  {
    Proto.kind = Proto.Cover_time;
    graph = { Proto.family; n; gseed = Rng.int_below rng (1 lsl 30) };
    branching = Process.Fixed 2;
    lazy_ = false;
    max_rounds = None;
    trials;
    master_seed = Rng.int_below rng (1 lsl 30);
  }

(* The schedule: warm-up jobs, then one job every 1/[rate] seconds with
   exact counts of each kind.  Each of [n_heavy] equal blocks of the
   schedule holds one heavy job at a random place, and the other kinds
   are shuffled over the rest; a repeat points at a warm-up job or at a
   fresh job old enough.  With Poisson arrivals and a plain shuffle,
   bursts that queued two heavy jobs together moved the p99 from 92 to
   255 ms between seeds. *)
let schedule ~seed ~seconds =
  let rng = Rng.create seed in
  let count = max min_jobs (int_of_float (rate *. seconds)) in
  let share s = int_of_float (s *. float_of_int count) in
  let n_heavy = share heavy_share and n_repeat = share repeat_share in
  let warm = Array.init (share warm_share) (fun _ -> make_job (Rng.pick rng light) rng) in
  let heavy_at = Array.make count false in
  for k = 0 to n_heavy - 1 do
    let lo = k * count / n_heavy and hi = (k + 1) * count / n_heavy in
    heavy_at.(lo + Rng.int_below rng (hi - lo)) <- true
  done;
  let others = Array.init (count - n_heavy) (fun i -> if i < n_repeat then `Repeat else `Light) in
  Rng.shuffle_in_place rng others;
  let dealt = ref 0 in
  let deck =
    Array.init count (fun i ->
        if heavy_at.(i) then `Heavy
        else begin
          incr dealt;
          others.(!dealt - 1)
        end)
  in
  let candidates = ref (List.init (Array.length warm) (fun i -> Warm i)) in
  let young = Queue.create () in
  let jobs = Array.make count { due_s = 0.0; job = warm.(0); repeat_of = None } in
  Array.iteri
    (fun i kind ->
      let t = float_of_int i /. rate in
      while (not (Queue.is_empty young)) && jobs.(Queue.peek young).due_s <= t -. repeat_age_s do
        candidates := Job (Queue.pop young) :: !candidates
      done;
      jobs.(i) <-
        (match kind with
        | `Repeat ->
            let origin = List.nth !candidates (Rng.int_below rng (List.length !candidates)) in
            let job = match origin with Warm w -> warm.(w) | Job j -> jobs.(j).job in
            { due_s = t; job; repeat_of = Some origin }
        | (`Heavy | `Light) as kind ->
            Queue.push i young;
            let spec = if kind = `Heavy then heavy else Rng.pick rng light in
            { due_s = t; job = make_job spec rng; repeat_of = None }))
    deck;
  (warm, jobs)

(* --- the server process --- *)

type server = { pid : int; port : int; out : in_channel }

(* Servers still running; an exception that ends the benchmark early
   must not leave one behind. *)
let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter reap !live)

let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe [| exe; "--port"; "0" |] null w null in
  Unix.close w;
  Unix.close null;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match String.rindex_opt line ':' with
  | Some i ->
      { pid; port = int_of_string (String.sub line (i + 1) (String.length line - i - 1)); out }
  | None -> failwith (Printf.sprintf "%s did not report a port (got %S)" exe line)

let stop s =
  reap s.pid;
  live := List.filter (( <> ) s.pid) !live;
  close_in_noerr s.out

(* Set-up: process start until the server answers a ping. *)
let boot exe =
  let t0 = Util.now () in
  let s = spawn exe in
  let c = Client.connect ~port:s.port () in
  let ok = Client.request c Proto.Ping = Proto.Pong in
  Client.close c;
  (s, ok, Util.seconds_since t0)

(* --- the open loop --- *)

type reply = { mutable at : int64; mutable response : Proto.response option }

type load = {
  t_origin : int64;
  send_t0 : int64 array;
  send_t1 : int64 array;
  replies : reply array;
}

(* Sends job i on connection [i mod conns] at its due time; one receiver
   thread per connection takes the replies.  Client ids are sequential
   per connection, so the k-th reply id maps back to a job without any
   shared table. *)
let drive ~port ~conns jobs =
  let count = Array.length jobs in
  let clients = Array.init conns (fun _ -> Client.connect ~port ()) in
  let on_conn c =
    Array.of_list (List.filter (fun i -> i mod conns = c) (List.init count Fun.id))
  in
  let replies = Array.init count (fun _ -> { at = 0L; response = None }) in
  let receiver c =
    let mine = on_conn c in
    try
      for _ = 1 to Array.length mine do
        let id, response = Client.recv clients.(c) in
        let r = replies.(mine.(int_of_string id)) in
        r.at <- Util.now ();
        r.response <- Some response
      done
    with e -> Printf.eprintf "receiver %d: %s\n%!" c (Printexc.to_string e)
  in
  let threads = Array.init conns (fun c -> Thread.create receiver c) in
  let send_t0 = Array.make count 0L and send_t1 = Array.make count 0L in
  let t_origin = Util.now () in
  Array.iteri
    (fun i j ->
      let wait = j.due_s -. Util.seconds_since t_origin in
      if wait > 0.0 then Thread.delay wait;
      send_t0.(i) <- Util.now ();
      ignore
        (Client.send clients.(i mod conns) (Proto.Submit { job = j.job; deadline_s = None })
          : string);
      send_t1.(i) <- Util.now ())
    jobs;
  Array.iter Thread.join threads;
  Array.iter Client.close clients;
  { t_origin; send_t0; send_t1; replies }

(* The warm-up: each job sent and answered before the next. *)
let warm_up ~port warm =
  let c = Client.connect ~port () in
  let replies =
    Array.map (fun job -> Client.request c (Proto.Submit { job; deadline_s = None })) warm
  in
  Client.close c;
  replies

let due_ns l j = Int64.add l.t_origin (Int64.of_float (j.due_s *. 1e9))
let ms_between a b = Int64.to_float (Int64.sub b a) *. 1e-6

let latencies_ms l jobs =
  Array.mapi (fun i j -> ms_between (due_ns l j) l.replies.(i).at) jobs

let result_json = function
  | Some (Proto.Result { result; _ }) -> Some (Json.to_string (Proto.job_result_to_json result))
  | _ -> None

(* Spans of each job, built from the timestamps the loop took: the job
   from due to reply, inside it the generator's lateness, the send call
   and the server's own time as it reports it. *)
let record_spans spans l jobs =
  Array.iteri
    (fun i j ->
      let r = l.replies.(i) in
      let due = due_ns l j in
      let group = i in
      let parent = Span.record spans ~group ~name:"job" ~t0:due ~t1:r.at () in
      let child name t0 t1 = ignore (Span.record spans ~parent ~group ~name ~t0 ~t1 () : int) in
      child "job.gen_lag" due l.send_t0.(i);
      child "client.send" l.send_t0.(i) l.send_t1.(i);
      match r.response with
      | Some (Proto.Result { server_ms; _ }) ->
          child "server" (Int64.sub r.at (Int64.of_float (server_ms *. 1e6))) r.at
      | _ -> ())
    jobs

(* An integer field of the server's stats reply, 0 when absent. *)
let stats_int stats path =
  let rec go j = function
    | [] -> Json.to_int_opt j
    | k :: rest -> Option.bind (Json.member j k) (fun j -> go j rest)
  in
  Option.value (go stats path) ~default:0

let run ~seed ~seconds ~trace ~server_exe ~workers =
  let out = Outcome.create () in
  let boots = Array.init setup_reps (fun _ -> boot server_exe) in
  Array.iteri
    (fun i (s, ok, _) ->
      Outcome.check out ok "serve-mixed: server did not answer ping";
      if i < setup_reps - 1 then stop s)
    boots;
  let boot_s = Array.map (fun (_, _, t) -> t) boots in
  Outcome.note "serve-mixed boot ms min=%.3f p50=%.3f max=%.3f"
    (1e3 *. Array.fold_left Float.min infinity boot_s)
    (1e3 *. Util.median boot_s)
    (1e3 *. Array.fold_left Float.max 0.0 boot_s);
  Outcome.set out "setup_s" (Util.median boot_s);
  let server, _, _ = boots.(setup_reps - 1) in
  let warm, jobs = schedule ~seed ~seconds in
  let warm_replies = warm_up ~port:server.port warm in
  let load = drive ~port:server.port ~conns:workers jobs in
  let c = Client.connect ~port:server.port () in
  let stats = match Client.request c Proto.Stats with Proto.Stats_reply j -> j | _ -> Json.Null in
  let pings =
    Array.init 200 (fun _ -> snd (Util.time (fun () -> Client.request c Proto.Ping)) *. 1e3)
  in
  Client.close c;
  let rss = Util.peak_rss_mb ~pid:(string_of_int server.pid) () in
  stop server;
  (* Correctness: every job answered with a result, every repeat equal
     to the reply of the job it repeats. *)
  Array.iteri
    (fun i r ->
      Outcome.check out
        (result_json (Some r) <> None)
        (Printf.sprintf "serve-mixed warm-up job %d failed" i))
    warm_replies;
  Array.iteri
    (fun i j ->
      let r = load.replies.(i) in
      let got = result_json r.response in
      Outcome.check out (got <> None)
        (Printf.sprintf "serve-mixed job %d: %s" i
           (match r.response with
           | Some (Proto.Error { code; message }) ->
               Proto.error_code_to_string code ^ ": " ^ message
           | _ -> "no result"));
      match j.repeat_of with
      | Some origin when got <> None ->
          let original =
            match origin with
            | Warm w -> result_json (Some warm_replies.(w))
            | Job k -> result_json load.replies.(k).response
          in
          Outcome.check out (got = original)
            (Printf.sprintf "serve-mixed job %d: a repeat returned a different result" i)
      | _ -> ())
    jobs;
  (* A sample of fresh replies must equal the estimate computed here. *)
  let fresh =
    List.filter (fun i -> jobs.(i).repeat_of = None) (List.init (Array.length jobs) Fun.id)
  in
  let local = Pool.create ~num_domains:(workers - 1) () in
  List.iter
    (fun i ->
      let job = jobs.(i).job in
      let g = Gen.by_name job.graph.family ~n:job.graph.n (Rng.create job.graph.gseed) in
      let est =
        Estimate.cover_time ~pool:local ~master_seed:job.master_seed ~trials:job.trials
          ~branching:job.branching ~lazy_:job.lazy_ g
      in
      let expect = Proto.job_result_of_estimate ~n:(Graph.n g) est in
      Outcome.check out
        (result_json load.replies.(i).response
        = Some (Json.to_string (Proto.job_result_to_json expect)))
        (Printf.sprintf "serve-mixed job %d: reply differs from the in-process estimate" i))
    (List.filteri (fun k _ -> k mod 2 = 0 && k < 24) fresh);
  let lat = latencies_ms load jobs in
  let p50 = Util.quantile lat 0.5 in
  (* Per-kind medians show which band the p50 and p99 fall in. *)
  let kind j = if j.repeat_of <> None then "repeat" else j.job.graph.family in
  List.iter
    (fun k ->
      let mine = List.filter (fun i -> kind jobs.(i) = k) (List.init (Array.length jobs) Fun.id) in
      Outcome.note "serve-mixed %s jobs=%d latency p50=%.2f ms" k (List.length mine)
        (Util.median (Array.of_list (List.map (fun i -> lat.(i)) mine))))
    (List.sort_uniq compare (Array.to_list (Array.map kind jobs)));
  Outcome.set out "request_ms" p50;
  Outcome.set out "tail_ms" (Util.tail lat);
  Outcome.set out "peak_rss_mb" rss;
  let spans = Span.create ~enabled:trace in
  if trace then begin
    (* The traced load runs against a fresh server, so its cache starts
       as cold as the untraced one's did. *)
    let server, _, _ = boot server_exe in
    ignore (warm_up ~port:server.port warm : Proto.response array);
    let traced = drive ~port:server.port ~conns:workers jobs in
    stop server;
    record_spans spans traced jobs;
    let server_ms =
      Array.map
        (fun r ->
          match r.response with
          | Some (Proto.Result { server_ms; cached; _ }) -> (server_ms, cached)
          | _ -> (0.0, true))
        load.replies
    in
    let exec =
      Array.of_list
        (List.filter_map (fun (s, cached) -> if cached then None else Some s)
           (Array.to_list server_ms))
    in
    let hits =
      Array.fold_left (fun acc (_, cached) -> if cached then acc + 1 else acc) 0 server_ms
    in
    Outcome.set out "trace.overhead_job_p50_ms"
      (Util.quantile (latencies_ms traced jobs) 0.5 -. p50);
    Outcome.set out "server.exec_ms_p50" (Util.quantile exec 0.5);
    Outcome.set out "server.exec_ms_p99" (Util.quantile exec 0.99);
    Outcome.set out "server.wait_ms_p99"
      (Util.quantile (Array.mapi (fun i l -> l -. fst server_ms.(i)) lat) 0.99);
    Outcome.set out "server.ping_ms_p50" (Util.median pings);
    Outcome.set out "server.cache_hit_frac" (float_of_int hits /. float_of_int (Array.length jobs));
    Outcome.set out "server.deduped" (float_of_int (stats_int stats [ "deduped" ]));
    Outcome.set out "server.overloaded" (float_of_int (stats_int stats [ "overloaded" ]));
    Outcome.set out "serve.gen_lag_ms_p99"
      (Util.quantile
         (Array.mapi (fun i j -> ms_between (due_ns load j) load.send_t0.(i)) jobs)
         0.99);
    let gen_ms =
      Array.of_list
        (List.map
           (fun i ->
             let g = jobs.(i).job.graph in
             1e3 *. snd (Util.time (fun () -> Gen.by_name g.family ~n:g.n (Rng.create g.gseed))))
           fresh)
    in
    Outcome.set out "graph.job_generate_ms_p50" (Util.median gen_ms)
  end;
  Pool.shutdown local;
  Outcome.note "serve-mixed jobs=%d offered=%.0f/s conns=%d cache hits=%d misses=%d"
    (Array.length jobs) rate workers (stats_int stats [ "cache"; "hits" ])
    (stats_int stats [ "cache"; "misses" ]);
  (out, spans)
