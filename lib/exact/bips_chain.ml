module Graph = Cobra_graph.Graph
module Process = Cobra_core.Process

type t = {
  source : int;
  n : int;
  states : int; (* 2^(n-1): subsets containing the source, compressed *)
  matrix : float array array; (* matrix.(a).(a') over compressed states *)
}

(* Compressed index <-> vertex mask: drop the source bit (always set). *)
let mask_of_idx ~n ~source idx =
  ignore n;
  let low = idx land ((1 lsl source) - 1) in
  let high = idx lsr source in
  low lor (high lsl (source + 1)) lor (1 lsl source)

let idx_of_mask ~source mask =
  if mask land (1 lsl source) = 0 then
    invalid_arg "Bips_chain: state mask must contain the source";
  let low = mask land ((1 lsl source) - 1) in
  let high = mask lsr (source + 1) in
  low lor (high lsl source)

let make g ?(branching = Process.Fixed 2) ?(lazy_ = false) ~source () =
  let n = Graph.n g in
  Subset.check_n n;
  if n < 1 then invalid_arg "Bips_chain.make: empty graph";
  if n > 12 then invalid_arg "Bips_chain.make: n <= 12 required";
  if source < 0 || source >= n then invalid_arg "Bips_chain.make: source out of range";
  Process.validate_branching branching;
  let states = 1 lsl (n - 1) in
  let matrix =
    Factorised.kernel g branching lazy_ ~skip:source ~states ~mask_of:(mask_of_idx ~n ~source)
  in
  { source; n; states; matrix }

let n_states t = t.states
let mask_of_state t idx = mask_of_idx ~n:t.n ~source:t.source idx
let state_of_mask t mask = idx_of_mask ~source:t.source mask

let transition_probability t a a' =
  t.matrix.(idx_of_mask ~source:t.source a).(idx_of_mask ~source:t.source a')

let step t dist =
  let next = Array.make t.states 0.0 in
  for a = 0 to t.states - 1 do
    let p = dist.(a) in
    if p > 0.0 then begin
      let row = t.matrix.(a) in
      for a' = 0 to t.states - 1 do
        next.(a') <- next.(a') +. (p *. row.(a'))
      done
    end
  done;
  next

let distribution_after t ~rounds =
  if rounds < 0 then invalid_arg "Bips_chain.distribution_after: negative rounds";
  let dist = Array.make t.states 0.0 in
  dist.(state_of_mask t (1 lsl t.source)) <- 1.0;
  let d = ref dist in
  for _ = 1 to rounds do
    d := step t !d
  done;
  !d

let avoid_tail t ~c ~horizon =
  Subset.check_mask ~fn:"Bips_chain.avoid_tail" t.n c;
  if c = 0 then invalid_arg "Bips_chain.avoid_tail: empty C";
  if horizon < 0 then invalid_arg "Bips_chain.avoid_tail: negative horizon";
  let tail = Array.make (horizon + 1) 0.0 in
  let avoid_mass dist =
    let acc = ref 0.0 in
    for a = 0 to t.states - 1 do
      if mask_of_state t a land c = 0 then acc := !acc +. dist.(a)
    done;
    !acc
  in
  let dist = ref (distribution_after t ~rounds:0) in
  tail.(0) <- avoid_mass !dist;
  for round = 1 to horizon do
    dist := step t !dist;
    tail.(round) <- avoid_mass !dist
  done;
  tail

let expected_infection_time t =
  if t.n > 10 then invalid_arg "Bips_chain.expected_infection_time: n <= 10 required";
  if t.n = 1 then 0.0
  else begin
    (* Absorbing state: A = V, the last compressed index.  The start
       {source} is index 0, so its solution is entry 0. *)
    let transient = Array.init (t.states - 1) Fun.id in
    let x =
      Gauss.solve_transient t.matrix ~transient ~rhs:[| (fun _ -> 1.0) |]
        ~singular:"Bips_chain.expected_infection_time: singular system (disconnected graph?)"
    in
    x.(0).(state_of_mask t (1 lsl t.source))
  end
