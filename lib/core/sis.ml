module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

type outcome = Extinct of int | Saturated of int | Censored

let run_trajectory g rng ?(branching = Process.Fixed 2) ?(lazy_ = false) ?max_rounds ?pool
    ?dense_threshold ~initial () =
  let n = Graph.n g in
  if Bitset.capacity initial <> n then
    invalid_arg "Sis: initial set capacity does not match the graph";
  Process.validate_branching branching;
  let max_rounds = Option.value max_rounds ~default:(Cobra.default_max_rounds g) in
  let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:(Rng.keyed_master rng) in
  let sizes = ref [ Bitset.cardinal initial ] in
  let step ~round ~current ~next =
    Process.sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next;
    sizes := Bitset.cardinal next :: !sizes
  in
  let absorbed set =
    let c = Bitset.cardinal set in
    c = 0 || c = n
  in
  let outcome =
    match
      Rounds.run ~max_rounds ~current:(Bitset.copy initial) ~next:(Bitset.create n) ~step
        ~stop:absorbed
    with
    | None, _ -> Censored
    | Some r, final -> if Bitset.is_empty final then Extinct r else Saturated r
  in
  (outcome, Array.of_list (List.rev !sizes))

let run g rng ?branching ?lazy_ ?max_rounds ?pool ?dense_threshold ~initial () =
  fst (run_trajectory g rng ?branching ?lazy_ ?max_rounds ?pool ?dense_threshold ~initial ())
