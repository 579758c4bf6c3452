module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

type trajectory = { rounds : int; sizes : int array; candidate_sizes : int array }

let check_source g source =
  if Graph.n g = 0 then invalid_arg "Bips: empty graph";
  if source < 0 || source >= Graph.n g then invalid_arg "Bips: source vertex out of range"

(* Runs from A_0 = {source} until [stop], recording set and candidate
   sizes when [record]; returns the round count and the final set. *)
let infection g rng ~branching ~lazy_ ~max_rounds ~record ~source ~pool ~dense_threshold ~stop =
  check_source g source;
  Process.validate_branching branching;
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:(Rng.keyed_master rng) in
  let current = Bitset.create n and next = Bitset.create n in
  let candidates = Bitset.create n in
  Bitset.add current source;
  let sizes = ref [ 1 ] and candidate_sizes = ref [] in
  let step ~round ~current ~next =
    if record then begin
      Process.bips_candidate_set g ~source ~current ~into:candidates;
      candidate_sizes := Bitset.cardinal candidates :: !candidate_sizes
    end;
    Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source ~current ~next;
    if record then sizes := Bitset.cardinal next :: !sizes
  in
  let rounds, final = Rounds.run ~max_rounds ~current ~next ~step ~stop in
  ( Option.map
      (fun rounds ->
        {
          rounds;
          sizes = Array.of_list (List.rev !sizes);
          candidate_sizes = Array.of_list (List.rev !candidate_sizes);
        })
      rounds,
    final )

let complete g set = Bitset.cardinal set = Graph.n g

let run_trajectory g rng ?(branching = Process.Fixed 2) ?(lazy_ = false) ?max_rounds ?pool
    ?dense_threshold ~source () =
  let max_rounds = Option.value max_rounds ~default:(Cobra.default_max_rounds g) in
  fst
    (infection g rng ~branching ~lazy_ ~max_rounds ~record:true ~source ~pool ~dense_threshold
       ~stop:(complete g))

let run_infection g rng ?(branching = Process.Fixed 2) ?(lazy_ = false) ?max_rounds ?pool
    ?dense_threshold ~source () =
  let max_rounds = Option.value max_rounds ~default:(Cobra.default_max_rounds g) in
  Option.map
    (fun t -> t.rounds)
    (fst
       (infection g rng ~branching ~lazy_ ~max_rounds ~record:false ~source ~pool
          ~dense_threshold ~stop:(complete g)))

let infected_after g rng ?(branching = Process.Fixed 2) ?(lazy_ = false) ?pool ?dense_threshold
    ~rounds ~source () =
  if rounds < 0 then invalid_arg "Bips.infected_after: negative round count";
  snd
    (infection g rng ~branching ~lazy_ ~max_rounds:rounds ~record:false ~source ~pool
       ~dense_threshold ~stop:(fun _ -> false))
