module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

type run = {
  rounds : int;
  transmissions : int;
  visited_sizes : int array;
  active_sizes : int array;
}

(* Generous cap: orders of magnitude above the paper's O(n^2 log n)
   general bound at test sizes, while keeping accidental non-termination
   (e.g. plain COBRA on a bipartite graph) finite. *)
let default_max_rounds g =
  let n = Graph.n g in
  max 100_000 (50 * n * (1 + Graph.max_degree g))

let check_start g start =
  if Graph.n g = 0 then invalid_arg "Cobra: empty graph";
  if start < 0 || start >= Graph.n g then invalid_arg "Cobra: start vertex out of range"

let cover g ctx ~obs ~branching ~lazy_ ~max_rounds ~record ~start =
  let n = Graph.n g in
  let current = Bitset.create n and next = Bitset.create n in
  let visited = Bitset.create n in
  Bitset.add current start;
  Bitset.add visited start;
  let transmissions = ref 0 in
  let visited_sizes = ref [ 1 ] and active_sizes = ref [ 1 ] in
  let observing = Cobra_obs.Obs.enabled obs in
  let step ~round ~current ~next =
    if observing then Cobra_obs.Obs.emit obs (Cobra_obs.Trace.Round_started { round });
    let sent = Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next in
    transmissions := !transmissions + sent;
    Bitset.union_into ~into:visited next;
    if record then begin
      visited_sizes := Bitset.cardinal visited :: !visited_sizes;
      active_sizes := Bitset.cardinal next :: !active_sizes
    end;
    if observing then
      Cobra_obs.Obs.emit obs
        (Cobra_obs.Trace.Round_ended
           {
             round;
             informed = Bitset.cardinal visited;
             active = Bitset.cardinal next;
             messages = sent;
           })
  in
  match fst (Rounds.run ~max_rounds ~current ~next ~step ~stop:(fun _ -> Bitset.cardinal visited = n)) with
  | None -> None
  | Some rounds ->
      Some
        {
          rounds;
          transmissions = !transmissions;
          visited_sizes = Array.of_list (List.rev !visited_sizes);
          active_sizes = Array.of_list (List.rev !active_sizes);
        }

let run_cover_detailed g rng ?(obs = Cobra_obs.Obs.null) ?(branching = Process.Fixed 2)
    ?(lazy_ = false) ?max_rounds ?pool ?dense_threshold ~start () =
  check_start g start;
  Process.validate_branching branching;
  let max_rounds = Option.value max_rounds ~default:(default_max_rounds g) in
  let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:(Rng.keyed_master rng) in
  cover g ctx ~obs ~branching ~lazy_ ~max_rounds ~record:true ~start

let run_cover g rng ?(obs = Cobra_obs.Obs.null) ?(branching = Process.Fixed 2) ?(lazy_ = false)
    ?max_rounds ?pool ?rng_mode ?dense_threshold ~start () =
  check_start g start;
  Process.validate_branching branching;
  let max_rounds = Option.value max_rounds ~default:(default_max_rounds g) in
  let master =
    match rng_mode with Some (Process.Keyed { master }) -> master | None -> Rng.keyed_master rng
  in
  let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master in
  Option.map
    (fun r -> r.rounds)
    (cover g ctx ~obs ~branching ~lazy_ ~max_rounds ~record:false ~start)

let hitting_time g rng ?(branching = Process.Fixed 2) ?(lazy_ = false) ?max_rounds ?pool
    ?dense_threshold ~start ~target () =
  if Graph.n g = 0 then invalid_arg "Cobra.hitting_time: empty graph";
  if Bitset.capacity start <> Graph.n g then
    invalid_arg "Cobra.hitting_time: start set capacity does not match the graph";
  if Bitset.is_empty start then invalid_arg "Cobra.hitting_time: empty start set";
  if target < 0 || target >= Graph.n g then
    invalid_arg "Cobra.hitting_time: target vertex out of range";
  Process.validate_branching branching;
  let max_rounds = Option.value max_rounds ~default:(default_max_rounds g) in
  let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:(Rng.keyed_master rng) in
  let step ~round ~current ~next =
    ignore (Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next : int)
  in
  fst
    (Rounds.run ~max_rounds ~current:(Bitset.copy start) ~next:(Bitset.create (Graph.n g)) ~step
       ~stop:(fun current -> Bitset.mem current target))
