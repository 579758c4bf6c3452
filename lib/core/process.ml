module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Keyed = Cobra_prng.Keyed
module Pool = Cobra_parallel.Pool

type branching = Fixed of int | Bernoulli of float

(* Kept only for [Cobra.run_cover ?rng_mode], which the frozen perfbench
   harness calls. *)
type rng_mode = Keyed of { master : int }

let validate_branching = function
  | Fixed b -> if b < 1 then invalid_arg "Process: branching factor must be >= 1"
  | Bernoulli rho ->
      if not (rho >= 0.0 && rho <= 1.0) then
        invalid_arg "Process: Bernoulli branching needs rho in [0, 1]"

let expected_branching_factor = function
  | Fixed b -> float_of_int b
  | Bernoulli rho -> 1.0 +. rho

(* Below this cardinality the frontier is materialised as a vertex array
   and iterated directly — a tight counted loop instead of the word-scan
   iterator's nested loop and closure call per member.  Every vertex
   draws at its own keyed position, so the path taken cannot change a
   result. *)
let sparse_frontier_threshold = 64

(* The round is a pure map over vertices: every vertex's randomness
   comes from the counter-based [Keyed] stream positioned at (round,
   vertex), so a pool can shard it over domains with bit-identical
   results for any domain count — including the serial path below the
   density threshold. *)

type keyed_ctx = {
  streams : Keyed.t array; (* one cursor per worker (0 = caller) *)
  mutable scratch : Bitset.t array; (* per-worker next buffers; lazily allocated *)
  shard_tx : int array; (* per-worker transmission accumulators *)
  shard_card : int array; (* per-worker popcount accumulators (scan kernels) *)
  members : int array; (* sparse-path frontier buffer *)
  pool : Pool.t option;
  nworkers : int;
  dense_threshold : int;
}

(* Below this frontier/universe size a parallel round costs more than it
   saves; the serial path is taken (results are identical either way, so
   this is purely a scheduling decision). *)
let default_dense_threshold = 1024

let make_keyed_ctx ?pool ?(dense_threshold = default_dense_threshold) _g ~master =
  let nworkers = match pool with None -> 1 | Some p -> Pool.size p in
  {
    streams = Array.init nworkers (fun _ -> Keyed.create ~master);
    scratch = [||];
    shard_tx = Array.make nworkers 0;
    shard_card = Array.make nworkers 0;
    members = Array.make sparse_frontier_threshold 0;
    pool;
    nworkers;
    dense_threshold;
  }

(* Scratch sets are only needed once a dense COBRA round actually
   shards; BIPS/SIS and serial-only runs never pay the allocation. *)
let ensure_scratch ctx n =
  if Array.length ctx.scratch = 0 then
    ctx.scratch <- Array.init ctx.nworkers (fun _ -> Bitset.create n)

(* The pool a round of [size] members shards over, if any. *)
let shard_pool ctx size =
  match ctx.pool with
  | Some pool when ctx.nworkers > 1 && size > ctx.dense_threshold -> Some pool
  | _ -> None

(* Chunk width (in bitset words) for the claim-based dense scan: small
   enough that ~8 chunks per worker exist for load balancing and that a
   dense chunk holds only a few hundred frontier members, large enough
   that the claim fetch-and-add stays negligible.  Population-adaptive:
   a dense frontier gets finer chunks, so a straggler's last claim is
   bounded work regardless of how the members cluster. *)
let[@inline] scan_chunk ~card ~nw ~workers =
  let by_balance = max 1 (nw / (workers * 8)) in
  let by_work = if card > 0 then max 1 (nw * 384 / card) else by_balance in
  max 4 (min by_balance by_work)

let[@inline] keyed_fanout k = function
  | Fixed b -> b
  | Bernoulli rho -> if Keyed.bernoulli k rho then 2 else 1

let[@inline] keyed_select g k ~lazy_ u =
  if lazy_ && Keyed.bool k then u else Graph.unsafe_keyed_neighbor g k u

(* Canonical per-vertex draw sequence of the COBRA step: fan-out
   decision first, then the selections, so variant alignment
   (Bernoulli 1.0 ≡ Fixed 2) holds draw for draw.  [base] is the hoisted round key ({!Keyed.round_base}),
   so positioning costs one finaliser application; the non-lazy fan-out
   additionally hoists the degree's rejection mask across the
   selections.  Draw consumption is identical to the naive
   position/int_below sequence, so results match it bit for bit. *)
let[@inline] cobra_keyed_visit g k ~base ~branching ~lazy_ ~into u =
  Keyed.position_at k ~base ~vertex:u;
  let fanout = keyed_fanout k branching in
  if lazy_ then
    for _ = 1 to fanout do
      Bitset.unsafe_add into (keyed_select g k ~lazy_:true u)
    done
  else begin
    let d = Graph.unsafe_degree g u in
    if d <= 1 then
      (* d = 0 raises exactly as [int_below 0] always did; d = 1
         consumes no draw on either path. *)
      for _ = 1 to fanout do
        Bitset.unsafe_add into (Graph.unsafe_neighbor g u (Keyed.int_below k d))
      done
    else begin
      let mask = Keyed.mask_below d in
      for _ = 1 to fanout do
        Bitset.unsafe_add into (Graph.unsafe_neighbor g u (Keyed.masked_below k ~mask d))
      done
    end
  end;
  fanout

(* The serial COBRA round: poolless runs and rounds at or below the
   density threshold. *)
let cobra_step_keyed_serial g ctx ~round ~branching ~lazy_ ~current ~next c =
  Bitset.clear next;
  let k = ctx.streams.(0) in
  let base = Keyed.round_base k ~round in
  let tx = ref 0 in
  let visit u = tx := !tx + cobra_keyed_visit g k ~base ~branching ~lazy_ ~into:next u in
  if c > 0 && c <= sparse_frontier_threshold then begin
    let m = Bitset.members_into current ctx.members in
    for i = 0 to m - 1 do
      visit (Array.unsafe_get ctx.members i)
    done
  end
  else Bitset.iter visit current;
  !tx

(* Dense sharded COBRA round, one barrier: workers claim word-range
   chunks of the frontier and scan them into private scratch sets
   (fan-out targets land anywhere in the universe, so outputs cannot
   share [next] directly).  The submitting thread is worker 0 — it works
   instead of spinning at the join.  The scratches are then OR-drained
   into [next] serially: the sweep is O(num_words) word ops, far below
   the cost of waking the pool again, and it both counts the merged
   cardinality and re-zeroes the scratches for the next round. *)
let cobra_step_keyed_par g ctx pool ~round ~branching ~lazy_ ~current ~next c =
  let n = Graph.n g in
  let nw = Bitset.num_words current in
  ensure_scratch ctx n;
  let base = Keyed.round_base ctx.streams.(0) ~round in
  let chunk = scan_chunk ~card:c ~nw ~workers:ctx.nworkers in
  Pool.parallel_chunked pool ~lo:0 ~hi:nw ~chunk (fun ~worker ~lo ~hi ->
      let into = ctx.scratch.(worker) in
      let k = ctx.streams.(worker) in
      let tx = ref 0 in
      Bitset.iter_range
        (fun u -> tx := !tx + cobra_keyed_visit g k ~base ~branching ~lazy_ ~into u)
        current ~lo ~hi;
      ctx.shard_tx.(worker) <- ctx.shard_tx.(worker) + !tx);
  let card = Bitset.drain_words_range ~into:next ctx.scratch ~lo:0 ~hi:nw in
  Bitset.unsafe_set_cardinal next card;
  let tx = ref 0 in
  for w = 0 to ctx.nworkers - 1 do
    tx := !tx + ctx.shard_tx.(w);
    ctx.shard_tx.(w) <- 0
  done;
  !tx

let cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next =
  let c = Bitset.cardinal current in
  match shard_pool ctx c with
  | Some pool -> cobra_step_keyed_par g ctx pool ~round ~branching ~lazy_ ~current ~next c
  | None -> cobra_step_keyed_serial g ctx ~round ~branching ~lazy_ ~current ~next c

(* Floyd's sample of [b] distinct indices from [0, d) per active vertex,
   every index drawn at the vertex's keyed position; [chosen] holds at
   most [b] indices and is reused across vertices. *)
let cobra_step_without_replacement g ctx ~round ~b ~current ~next =
  if b < 1 then invalid_arg "Process: branching factor must be >= 1";
  Bitset.clear next;
  let k = ctx.streams.(0) in
  let base = Keyed.round_base k ~round in
  let transmissions = ref 0 in
  let chosen = Array.make b 0 in
  Bitset.iter
    (fun u ->
      let d = Graph.degree g u in
      if d <= b then begin
        (* Fewer neighbours than the fan-out: inform all of them. *)
        Graph.iter_neighbors g u (fun v -> Bitset.unsafe_add next v);
        transmissions := !transmissions + d
      end
      else begin
        Keyed.position_at k ~base ~vertex:u;
        for i = 0 to b - 1 do
          let j = d - b + i in
          let r = Keyed.int_below k (j + 1) in
          let dup = ref false in
          for l = 0 to i - 1 do
            if Array.unsafe_get chosen l = r then dup := true
          done;
          Array.unsafe_set chosen i (if !dup then j else r)
        done;
        for i = 0 to b - 1 do
          Bitset.unsafe_add next (Graph.unsafe_neighbor g u (Array.unsafe_get chosen i))
        done;
        transmissions := !transmissions + b
      end)
    current;
  !transmissions

let[@inline] keyed_infected g k ~base ~branching ~lazy_ ~current u =
  Keyed.position_at k ~base ~vertex:u;
  let fanout = keyed_fanout k branching in
  let infected = ref false in
  for _ = 1 to fanout do
    if Bitset.mem current (keyed_select g k ~lazy_ u) then infected := true
  done;
  !infected

(* BIPS/SIS scan every vertex and write only bit [u], so chunks aligned
   to word boundaries write disjoint words of [next] directly — no
   scratch sets, no merge.  Each chunk zeroes exactly the words it then
   writes and accumulates its own popcount, so neither a full clear nor
   a full cardinality sweep runs: the only serial work is summing one
   integer per worker. *)
let keyed_scan_par pool ctx ~n ~next body =
  let nw = Bitset.num_words next in
  let chunk = max 4 (nw / (ctx.nworkers * 8)) in
  Pool.parallel_chunked pool ~lo:0 ~hi:nw ~chunk (fun ~worker ~lo ~hi ->
      let k = ctx.streams.(worker) in
      Bitset.clear_words_range next ~lo ~hi;
      let vlo = lo * Bitset.bits_per_word in
      let vhi = min n (hi * Bitset.bits_per_word) in
      for u = vlo to vhi - 1 do
        body k u
      done;
      ctx.shard_card.(worker) <-
        ctx.shard_card.(worker) + Bitset.popcount_words_range next ~lo ~hi);
  let card = ref 0 in
  for w = 0 to ctx.nworkers - 1 do
    card := !card + ctx.shard_card.(w);
    ctx.shard_card.(w) <- 0
  done;
  Bitset.unsafe_set_cardinal next !card

(* Dispatch one full-universe scan round: sharded when the pool is
   engaged, the serial loop otherwise. *)
let keyed_scan_round ctx ~n ~par ~serial =
  match shard_pool ctx n with Some pool -> par pool | None -> serial ()

let bips_step_keyed g ctx ~round ~branching ~lazy_ ~source ~current ~next =
  let n = Graph.n g in
  let base = Keyed.round_base ctx.streams.(0) ~round in
  keyed_scan_round ctx ~n
    ~par:(fun pool ->
      keyed_scan_par pool ctx ~n ~next (fun k u ->
          if u <> source && keyed_infected g k ~base ~branching ~lazy_ ~current u then
            Bitset.unsafe_set_bit next u))
    ~serial:(fun () ->
      Bitset.clear next;
      let k = ctx.streams.(0) in
      for u = 0 to n - 1 do
        if u <> source && keyed_infected g k ~base ~branching ~lazy_ ~current u then
          Bitset.unsafe_add next u
      done);
  Bitset.add next source

let sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next =
  let n = Graph.n g in
  let base = Keyed.round_base ctx.streams.(0) ~round in
  keyed_scan_round ctx ~n
    ~par:(fun pool ->
      keyed_scan_par pool ctx ~n ~next (fun k u ->
          if keyed_infected g k ~base ~branching ~lazy_ ~current u then
            Bitset.unsafe_set_bit next u))
    ~serial:(fun () ->
      Bitset.clear next;
      let k = ctx.streams.(0) in
      for u = 0 to n - 1 do
        if keyed_infected g k ~base ~branching ~lazy_ ~current u then Bitset.unsafe_add next u
      done)

let bips_candidate_set g ~source ~current ~into =
  Bitset.clear into;
  (* C = (N(A) ∪ {v}) \ B_fix, with B_fix = { u : N(u) ⊆ A }. *)
  let in_neighborhood u =
    Graph.fold_neighbors g u (fun acc v -> acc || Bitset.mem current v) false
  in
  let all_neighbors_infected u =
    Graph.fold_neighbors g u (fun acc v -> acc && Bitset.mem current v) true
  in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    if (u = source || in_neighborhood u) && not (all_neighbors_infected u) then
      Bitset.add into u
  done
