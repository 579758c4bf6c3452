module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

type protocol = Push | Push_pull
type run = { rounds : int; messages : int }

let run_cover g rng ?max_rounds ?pool ~protocol ~start () =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Gossip: empty graph";
  if start < 0 || start >= n then invalid_arg "Gossip: start vertex out of range";
  let max_rounds = Option.value max_rounds ~default:(Cobra.default_max_rounds g) in
  let ctx = Process.make_keyed_ctx ?pool g ~master:(Rng.keyed_master rng) in
  let kernel =
    match protocol with Push -> Process.push_step | Push_pull -> Process.push_pull_step
  in
  let messages = ref 0 in
  let step ~round ~current ~next = messages := !messages + kernel g ctx ~round ~current ~next in
  let current = Bitset.create n in
  Bitset.add current start;
  Rounds.run ~max_rounds ~current ~next:(Bitset.create n) ~step
    ~stop:(fun informed -> Bitset.cardinal informed = n)
  |> fst
  |> Option.map (fun rounds -> { rounds; messages = !messages })
