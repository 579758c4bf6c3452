module A1 = Bigarray.Array1
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

(* The round is a pure map over vertices: every vertex's randomness
   comes from the counter-based [Keyed] stream positioned at (round,
   vertex), so a pool can shard it over domains with bit-identical
   results for any domain count — including the serial path below the
   density threshold. *)

type keyed_ctx = {
  key : Keyed.t; (* the master's cursor: only [Keyed.round_base] reads it *)
  mutable scratch : Bitset.t array; (* per-worker next buffers; lazily allocated *)
  partial : int array; (* per-worker transmission or popcount sums *)
  mutable pulled : Bitset.t option; (* PUSH-PULL's pull half; lazily allocated *)
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
    key = Keyed.create ~master;
    scratch = [||];
    partial = Array.make nworkers 0;
    pulled = None;
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

(* The sum of the workers' partial counts, which it resets for the next
   round. *)
let take_partials ctx =
  let sum = ref 0 in
  for w = 0 to ctx.nworkers - 1 do
    sum := !sum + ctx.partial.(w);
    ctx.partial.(w) <- 0
  done;
  !sum

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

(* --- The keyed draws, inline ---

   [Keyed] defines the stream: in round t, vertex u's draws are the
   outputs mix (k + gamma * i), i = 0, 1, ..., where k = mix (base + u)
   is its position key and base is [Keyed.round_base] of t.  The kernels
   below compute these draws in their own loop bodies, with the counter
   in a local.  Dune's dev profile compiles with [-opaque], so a call
   into [Keyed] is a real call that boxes an int64 argument or result,
   and a cursor in memory, written on every draw, would put a sharded
   round's workers on one cache line.  A helper holding the rejection
   loop is not inlined either, so each kernel writes the loop out
   itself.  [gamma], [mix]
   and [smear] are copies of [Keyed]'s [gamma], [mix] and [mask_below]
   that the compiler does inline.  test_keyed pins the kernels' draws to
   [Keyed]'s at fixed (master, round, vertex, degree) points, and holds
   every kernel to the per-vertex call chain on [Keyed] that it
   replaced (test/keyed_step_oracle.ml). *)

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.add z gamma in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [Keyed.mask_below (x + 1)] for x >= 1, the smallest all-ones mask
   covering x, by a branch-free smear of its top bit. *)
let[@inline] smear x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  x lor (x lsr 32)

(* A rejection draw keeps the top 30 bits of the output when the mask
   fits in them and the top 62 otherwise, as [Keyed.int_below] does. *)
let[@inline] shift_for mask = if mask <= 0x3FFFFFFF then 34 else 2

(* A vertex's fan-out is [fixed_fanout], unless [coin_fanout]: then it
   is 2 with probability [coin_rho] and 1 otherwise, the one draw
   [Keyed.bernoulli] makes when the outcome is not certain. *)
let coin_fanout = function Fixed _ -> false | Bernoulli rho -> not (rho >= 1.0 || rho <= 0.0)
let fixed_fanout = function Fixed b -> b | Bernoulli rho -> if rho >= 1.0 then 2 else 1
let coin_rho = function Fixed _ -> 0.0 | Bernoulli rho -> rho

let[@inline never] no_neighbour u d =
  invalid_arg (Printf.sprintf "Process: vertex %d has no neighbour to draw (degree %d)" u d)

(* The COBRA round over the members of [current] in words [lo, hi).
   Member u draws its fan-out (the Bernoulli coin, when it is not
   certain), then each pick: the lazy coin, then a neighbour index below
   its degree by masked rejection.  This order keeps Bernoulli 1.0 and
   Fixed 2 aligned draw for draw.  A pick lands in [into] as a raw bit,
   leaving its cardinal to the caller: [Bitset.unsafe_add], which
   branches on whether the bit is new and keeps the count in memory,
   makes the serial round on a hypercube of 2^16 vertices about twice
   as slow as one popcount sweep after it.  Returns the transmissions,
   one per pick. *)
let cobra_range g ~base ~branching ~lazy_ ~current ~into ~lo ~hi =
  let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
  let coin = coin_fanout branching and fixed = fixed_fanout branching in
  let rho = coin_rho branching in
  let stop = Int.min (Graph.n g) (hi * Bitset.bits_per_word) in
  let tx = ref 0 in
  let u = ref (Bitset.next_member current (lo * Bitset.bits_per_word) ~stop) in
  while !u < stop do
    let src = !u in
    let ctr = ref (mix (Int64.add base (Int64.of_int src))) in
    let fanout =
      if coin then begin
        let c = !ctr in
        ctr := Int64.add c gamma;
        let bits = Int64.to_int (Int64.shift_right_logical (mix c) 11) in
        if float_of_int bits *. 0x1.0p-53 < rho then 2 else 1
      end
      else fixed
    in
    let first = Int32.to_int (A1.unsafe_get offsets src) in
    let d = Int32.to_int (A1.unsafe_get offsets (src + 1)) - first in
    let mask = smear (d - 1) in
    let shift = shift_for mask in
    for _ = 1 to fanout do
      let v =
        if
          lazy_
          &&
          let c = !ctr in
          ctr := Int64.add c gamma;
          mix c < 0L
        then src
        else if d > 1 then begin
          let r = ref d in
          while !r >= d do
            let c = !ctr in
            ctr := Int64.add c gamma;
            r := Int64.to_int (Int64.shift_right_logical (mix c) shift) land mask
          done;
          Int32.to_int (A1.unsafe_get adj (first + !r))
        end
        else if d = 1 then Int32.to_int (A1.unsafe_get adj first)
        else no_neighbour src d
      in
      Bitset.unsafe_set_bit into v
    done;
    tx := !tx + fanout;
    u := Bitset.next_member current (src + 1) ~stop
  done;
  !tx

(* Dense sharded COBRA round, one barrier: workers claim word-range
   chunks of the frontier and scan them into private scratch sets
   (fan-out targets land anywhere in the universe, so outputs cannot
   share [next] directly).  The submitting thread is worker 0 — it works
   instead of spinning at the join.  The scratches are then OR-drained
   into [next] serially: the sweep is O(num_words) word ops, far below
   the cost of waking the pool again, and it both counts the merged
   cardinality and re-zeroes the scratches for the next round.  Below
   the density threshold the caller runs the same kernel over every
   word, into [next], and counts it. *)
let cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next =
  let base = Keyed.round_base ctx.key ~round in
  let nw = Bitset.num_words current in
  let c = Bitset.cardinal current in
  match shard_pool ctx c with
  | None ->
      Bitset.clear next;
      let tx = cobra_range g ~base ~branching ~lazy_ ~current ~into:next ~lo:0 ~hi:nw in
      Bitset.unsafe_set_cardinal next (Bitset.popcount_words_range next ~lo:0 ~hi:nw);
      tx
  | Some pool ->
      ensure_scratch ctx (Graph.n g);
      let chunk = scan_chunk ~card:c ~nw ~workers:ctx.nworkers in
      Pool.parallel_chunked pool ~lo:0 ~hi:nw ~chunk (fun ~worker ~lo ~hi ->
          let into = ctx.scratch.(worker) in
          let tx = cobra_range g ~base ~branching ~lazy_ ~current ~into ~lo ~hi in
          ctx.partial.(worker) <- ctx.partial.(worker) + tx);
      let card = Bitset.drain_words_range ~into:next ctx.scratch ~lo:0 ~hi:nw in
      Bitset.unsafe_set_cardinal next card;
      take_partials ctx

(* Floyd's sample of [b] distinct indices from [0, d) per active vertex,
   every index drawn at the vertex's keyed position; [chosen] holds at
   most [b] indices and is reused across vertices. *)
let cobra_step_without_replacement g ctx ~round ~b ~current ~next =
  if b < 1 then invalid_arg "Process: branching factor must be >= 1";
  Bitset.clear next;
  let base = Keyed.round_base ctx.key ~round in
  let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
  let n = Graph.n g in
  let transmissions = ref 0 in
  let chosen = Array.make b 0 in
  let u = ref (Bitset.next_member current 0 ~stop:n) in
  while !u < n do
    let src = !u in
    let first = Int32.to_int (A1.unsafe_get offsets src) in
    let d = Int32.to_int (A1.unsafe_get offsets (src + 1)) - first in
    if d <= b then begin
      (* Fewer neighbours than the fan-out: inform all of them. *)
      for i = first to first + d - 1 do
        Bitset.unsafe_add next (Int32.to_int (A1.unsafe_get adj i))
      done;
      transmissions := !transmissions + d
    end
    else begin
      let ctr = ref (mix (Int64.add base (Int64.of_int src))) in
      for i = 0 to b - 1 do
        (* A draw below j + 1 >= 2. *)
        let j = d - b + i in
        let mask = smear j in
        let shift = shift_for mask in
        let r = ref (j + 1) in
        while !r > j do
          let c = !ctr in
          ctr := Int64.add c gamma;
          r := Int64.to_int (Int64.shift_right_logical (mix c) shift) land mask
        done;
        let dup = ref false in
        for l = 0 to i - 1 do
          if Array.unsafe_get chosen l = !r then dup := true
        done;
        Array.unsafe_set chosen i (if !dup then j else !r)
      done;
      for i = 0 to b - 1 do
        let v = Int32.to_int (A1.unsafe_get adj (first + Array.unsafe_get chosen i)) in
        Bitset.unsafe_add next v
      done;
      transmissions := !transmissions + b
    end;
    u := Bitset.next_member current (src + 1) ~stop:n
  done;
  !transmissions

(* BIPS and SIS over the vertices in words [lo, hi) of [next]: every
   vertex but [source] draws its fan-out and picks as [cobra_range]
   does, and is infected when a pick lies in [current].  A vertex writes
   only its own bit, so the range's words of [next] are cleared, set
   raw and counted here, and chunks aligned to word boundaries write
   disjoint words: no scratch sets, no merge.  Once a vertex is infected
   its remaining picks cannot change the outcome and are not drawn,
   except at degree 0: there every pick is drawn, so the round raises
   whenever one of them needs a neighbour.  Returns the popcount of the
   range. *)
let scan_range g ~base ~branching ~lazy_ ~source ~current ~next ~lo ~hi =
  let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
  let coin = coin_fanout branching and fixed = fixed_fanout branching in
  let rho = coin_rho branching in
  Bitset.clear_words_range next ~lo ~hi;
  for u = lo * Bitset.bits_per_word to Int.min (Graph.n g) (hi * Bitset.bits_per_word) - 1 do
    if u <> source then begin
      let ctr = ref (mix (Int64.add base (Int64.of_int u))) in
      let fanout =
        if coin then begin
          let c = !ctr in
          ctr := Int64.add c gamma;
          let bits = Int64.to_int (Int64.shift_right_logical (mix c) 11) in
          if float_of_int bits *. 0x1.0p-53 < rho then 2 else 1
        end
        else fixed
      in
      let first = Int32.to_int (A1.unsafe_get offsets u) in
      let d = Int32.to_int (A1.unsafe_get offsets (u + 1)) - first in
      let mask = smear (d - 1) in
      let shift = shift_for mask in
      let infected = ref false and pick = ref 0 in
      while !pick < fanout && not (!infected && d > 0) do
        let v =
          if
            lazy_
            &&
            let c = !ctr in
            ctr := Int64.add c gamma;
            mix c < 0L
          then u
          else if d > 1 then begin
            let r = ref d in
            while !r >= d do
              let c = !ctr in
              ctr := Int64.add c gamma;
              r := Int64.to_int (Int64.shift_right_logical (mix c) shift) land mask
            done;
            Int32.to_int (A1.unsafe_get adj (first + !r))
          end
          else if d = 1 then Int32.to_int (A1.unsafe_get adj first)
          else no_neighbour u d
        in
        if Bitset.mem current v then infected := true;
        incr pick
      done;
      if !infected then Bitset.unsafe_set_bit next u
    end
  done;
  Bitset.popcount_words_range next ~lo ~hi

(* One BIPS or SIS round: the serial path runs [scan_range] over every
   word, the sharded path once per claimed chunk.  Each chunk
   accumulates its own popcount, so neither a full clear nor a full
   cardinality sweep runs. *)
let scan_step g ctx ~round ~branching ~lazy_ ~source ~current ~next =
  let base = Keyed.round_base ctx.key ~round in
  let nw = Bitset.num_words next in
  let card =
    match shard_pool ctx (Graph.n g) with
    | None -> scan_range g ~base ~branching ~lazy_ ~source ~current ~next ~lo:0 ~hi:nw
    | Some pool ->
        let chunk = max 4 (nw / (ctx.nworkers * 8)) in
        Pool.parallel_chunked pool ~lo:0 ~hi:nw ~chunk (fun ~worker ~lo ~hi ->
            let card = scan_range g ~base ~branching ~lazy_ ~source ~current ~next ~lo ~hi in
            ctx.partial.(worker) <- ctx.partial.(worker) + card);
        take_partials ctx
  in
  Bitset.unsafe_set_cardinal next card

let bips_step_keyed g ctx ~round ~branching ~lazy_ ~source ~current ~next =
  scan_step g ctx ~round ~branching ~lazy_ ~source ~current ~next;
  Bitset.add next source

let sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next =
  scan_step g ctx ~round ~branching ~lazy_ ~source:(-1) ~current ~next

(* PUSH: every informed vertex calls one uniform neighbour — the COBRA
   round at b = 1 over I, accumulated onto I. *)
let push_step g ctx ~round ~current ~next =
  let sent = cobra_step_keyed g ctx ~round ~branching:(Fixed 1) ~lazy_:false ~current ~next in
  Bitset.union_into ~into:next current;
  sent

(* PUSH-PULL: every vertex calls one uniform neighbour.  The SIS round at
   b = 1 draws vertex u's call at the same keyed position, with the same
   draws, as the COBRA round at b = 1 does, so each vertex makes exactly
   one call: callers in I push (the PUSH half) and callers outside I
   pull from an informed callee (the SIS half). *)
let push_pull_step g ctx ~round ~current ~next =
  let n = Graph.n g in
  let pulled =
    match ctx.pulled with
    | Some s -> s
    | None ->
        let s = Bitset.create n in
        ctx.pulled <- Some s;
        s
  in
  sis_step_keyed g ctx ~round ~branching:(Fixed 1) ~lazy_:false ~current ~next:pulled;
  ignore (push_step g ctx ~round ~current ~next : int);
  Bitset.union_into ~into:next pulled;
  2 * n

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
