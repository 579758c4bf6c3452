module Graph = Cobra_graph.Graph
module Keyed = Cobra_prng.Keyed
module Pool = Cobra_parallel.Pool

(* Stream tags for the phase randomness: each phase of each round draws
   every vertex's randomness from an independent generator seeded by
   (master, stream, round, vertex), so results do not depend on vertex
   processing order. *)
let stream_emit = 0
let stream_respond = 1
let stream_update = 2

module Make (P : Protocol.S) = struct
  type t = {
    graph : Graph.t;
    states : P.state array;
    ever_informed : bool array;
    obs : Cobra_obs.Obs.t;
    pool : Pool.t option;
    mutable informed_count : int;
    mutable rounds : int;
    mutable messages : int;
  }

  let refresh_informed t =
    let count = ref 0 in
    for v = 0 to Graph.n t.graph - 1 do
      if (not t.ever_informed.(v)) && P.informed t.states.(v) then t.ever_informed.(v) <- true;
      if t.ever_informed.(v) then incr count
    done;
    t.informed_count <- !count

  let create ?(obs = Cobra_obs.Obs.null) ?pool g ~start =
    let n = Graph.n g in
    if n = 0 then invalid_arg "Engine.create: empty graph";
    if start < 0 || start >= n then invalid_arg "Engine.create: start out of range";
    let states = Array.init n (fun vertex -> P.init g ~start ~vertex) in
    let t =
      {
        graph = g;
        states;
        ever_informed = Array.make n false;
        obs;
        pool;
        informed_count = 0;
        rounds = 0;
        messages = 0;
      }
    in
    refresh_informed t;
    t

  let graph t = t.graph
  let rounds_elapsed t = t.rounds
  let messages_sent t = t.messages
  let informed_count t = t.informed_count
  let is_covered t = t.informed_count = Graph.n t.graph
  let state t v = t.states.(v)

  let current_count t =
    let count = ref 0 in
    Array.iter (fun s -> if P.informed s then incr count) t.states;
    !count

  let all_current t = current_count t = Graph.n t.graph

  let check_destination t v dest =
    if dest <> v && not (Graph.mem_edge t.graph v dest) then
      invalid_arg
        (Printf.sprintf "Engine: protocol %s sent from %d to non-neighbour %d" P.name v dest)

  let round t rng =
    let n = Graph.n t.graph in
    let observing = Cobra_obs.Obs.enabled t.obs in
    let messages_before = t.messages in
    if observing then
      Cobra_obs.Obs.emit t.obs (Cobra_obs.Trace.Round_started { round = t.rounds + 1 });
    (* The round's master is one draw of the caller's stream; every
       vertex of every phase then gets its own derived generator, so no
       draw depends on processing order. *)
    let master = Cobra_prng.Rng.keyed_master rng in
    let round = t.rounds + 1 in
    let vertex_rng ~stream vertex =
      Cobra_prng.Xoshiro.create (Keyed.derive_seed ~master ~stream ~round ~vertex)
    in
    (* Phase 1: requests.  Inboxes carry (sender, message). *)
    let requests : (int * P.message) list array = Array.make n [] in
    for v = 0 to n - 1 do
      let rng_v = vertex_rng ~stream:stream_emit v in
      List.iter
        (fun (dest, msg) ->
          check_destination t v dest;
          t.messages <- t.messages + 1;
          requests.(dest) <- (v, msg) :: requests.(dest))
        (P.emit t.graph rng_v ~vertex:v t.states.(v))
    done;
    (* Phase 2: replies to each received request. *)
    let replies : P.message list array = Array.make n [] in
    for v = 0 to n - 1 do
      let rng_v = vertex_rng ~stream:stream_respond v in
      List.iter
        (fun (sender, msg) ->
          List.iter
            (fun (dest, reply) ->
              check_destination t v dest;
              t.messages <- t.messages + 1;
              replies.(dest) <- reply :: replies.(dest))
            (P.respond t.graph rng_v ~vertex:v t.states.(v) ~sender msg))
        requests.(v)
    done;
    (* State update from both inboxes.  Vertex [v]'s update reads only
       its own inboxes and writes only [states.(v)], so this phase
       shards over the pool; the message counters are not touched here
       (updates send nothing). *)
    let update v =
      let rng_v = vertex_rng ~stream:stream_update v in
      t.states.(v) <-
        P.update t.graph rng_v ~vertex:v t.states.(v)
          ~requests:(List.map snd requests.(v))
          ~replies:replies.(v)
    in
    (match t.pool with
    | Some pool -> Pool.parallel_for pool ~lo:0 ~hi:n update
    | None ->
        for v = 0 to n - 1 do
          update v
        done);
    t.rounds <- t.rounds + 1;
    refresh_informed t;
    if observing then
      Cobra_obs.Obs.emit t.obs
        (Cobra_obs.Trace.Round_ended
           {
             round = t.rounds;
             informed = t.informed_count;
             active = current_count t;
             messages = t.messages - messages_before;
           })

  let run_until ~finished ?max_rounds t rng =
    let n = Graph.n t.graph in
    let max_rounds = Option.value max_rounds ~default:((100 * n) + 10_000) in
    let result = ref None in
    (try
       if finished t then result := Some t.rounds
       else
         while t.rounds < max_rounds do
           round t rng;
           if finished t then begin
             result := Some t.rounds;
             raise Exit
           end
         done
     with Exit -> ());
    !result

  let run_until_covered ?max_rounds t rng = run_until ~finished:is_covered ?max_rounds t rng
  let run_until_all_current ?max_rounds t rng = run_until ~finished:all_current ?max_rounds t rng
end
