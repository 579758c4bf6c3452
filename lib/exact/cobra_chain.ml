module Graph = Cobra_graph.Graph
module Process = Cobra_core.Process

(* Probability that every pick of a sender of degree [d] lands inside a
   subset S holding [into] of its neighbours and [self_in] (0 or 1) of
   itself, given the branching variant. *)
let all_picks branching lazy_ ~d ~into ~self_in =
  let into = float_of_int into /. float_of_int d in
  let a = if lazy_ then (0.5 *. float_of_int self_in) +. (0.5 *. into) else into in
  match branching with
  | Process.Fixed b -> a ** float_of_int b
  | Process.Bernoulli rho -> ((1.0 -. rho) *. a) +. (rho *. a *. a)

let next_dist g ?(branching = Process.Fixed 2) ?(lazy_ = false) ~current () =
  let n = Graph.n g in
  Subset.check_n n;
  Process.validate_branching branching;
  Subset.check_mask ~fn:"Cobra_chain.next_dist" n current;
  if current = 0 then invalid_arg "Cobra_chain.next_dist: empty current set";
  (* The next set lives inside the reach R of the current set. *)
  let reach =
    let nb = Subset.neighborhood_mask g current in
    if lazy_ then nb lor current else nb
  in
  (* Positions of R's bits, for compressed indexing. *)
  let bits =
    let acc = ref [] in
    for u = Subset.max_n - 1 downto 0 do
      if Subset.mem reach u then acc := u :: !acc
    done;
    Array.of_list !acc
  in
  let k = Array.length bits in
  if k > 24 then invalid_arg "Cobra_chain.next_dist: reachable set too large for exact expansion";
  let size = 1 lsl k in
  (* Compressed index -> vertex mask. *)
  let masks = Array.make size 0 in
  for i = 0 to k - 1 do
    let half = 1 lsl i in
    for idx = 0 to half - 1 do
      masks.(half lor idx) <- Subset.add masks.(idx) bits.(i)
    done
  done;
  (* Per sender, in ascending vertex order: its neighbour mask, and its
     all-picks probability for every (|N(u) ∩ S|, [u ∈ S]), at index
     2 |N(u) ∩ S| + [u ∈ S]. *)
  let senders = Array.of_list (List.filter (Subset.mem current) (List.init n Fun.id)) in
  let nbr = Array.map (fun u -> Subset.neighborhood_mask g (1 lsl u)) senders in
  let picks =
    Array.map
      (fun u ->
        let d = Graph.degree g u in
        if d = 0 then invalid_arg "Cobra_chain: isolated vertex in the current set";
        Array.init
          (2 * (d + 1))
          (fun i -> all_picks branching lazy_ ~d ~into:(i / 2) ~self_in:(i land 1)))
      senders
  in
  (* F(S) = P(next ⊆ S) = prod over current members. *)
  let f = Array.make size 0.0 in
  for idx = 0 to size - 1 do
    let s = masks.(idx) in
    let p = ref 1.0 in
    for j = 0 to Array.length senders - 1 do
      let self_in = (s lsr senders.(j)) land 1 in
      p := !p *. picks.(j).((2 * Subset.cardinal (s land nbr.(j))) + self_in)
    done;
    f.(idx) <- !p
  done;
  (* In-place Moebius inversion over the k-dimensional lattice turns
     P(next ⊆ S) into P(next = S). *)
  for i = 0 to k - 1 do
    let bit = 1 lsl i in
    for idx = 0 to size - 1 do
      if idx land bit <> 0 then f.(idx) <- f.(idx) -. f.(idx lxor bit)
    done
  done;
  let out = ref [] in
  for idx = size - 1 downto 0 do
    (* Clamp the tiny negative dust of cancellation. *)
    if f.(idx) > 1e-15 then out := (masks.(idx), f.(idx)) :: !out
  done;
  !out

(* Sparse distribution over subsets, as a hashtable mask -> mass. *)
let evolve_step g branching lazy_ dist ~absorb =
  let next = Hashtbl.create (Hashtbl.length dist * 2) in
  let bump mask p =
    Hashtbl.replace next mask (p +. Option.value ~default:0.0 (Hashtbl.find_opt next mask))
  in
  Hashtbl.iter
    (fun mask p ->
      if p > 0.0 then
        List.iter
          (fun (t, q) -> if not (absorb t) then bump t (p *. q))
          (next_dist g ~branching ~lazy_ ~current:mask ()))
    dist;
  next

let total_mass dist = Hashtbl.fold (fun _ p acc -> acc +. p) dist 0.0

let hit_tail g ?(branching = Process.Fixed 2) ?(lazy_ = false) ~c0 ~target ~horizon () =
  let n = Graph.n g in
  Subset.check_n n;
  if n > 12 then invalid_arg "Cobra_chain.hit_tail: n <= 12 required";
  if horizon < 0 then invalid_arg "Cobra_chain.hit_tail: negative horizon";
  Subset.check_mask ~fn:"Cobra_chain.hit_tail" n c0;
  if c0 = 0 then invalid_arg "Cobra_chain.hit_tail: empty start set";
  if target < 0 || target >= n then invalid_arg "Cobra_chain.hit_tail: target out of range";
  let tail = Array.make (horizon + 1) 0.0 in
  let dist = Hashtbl.create 64 in
  if not (Subset.mem c0 target) then Hashtbl.replace dist c0 1.0;
  tail.(0) <- total_mass dist;
  let current = ref dist in
  for t = 1 to horizon do
    current := evolve_step g branching lazy_ !current ~absorb:(fun mask -> Subset.mem mask target);
    tail.(t) <- total_mass !current
  done;
  tail

(* Joint (visited, current) state for the cover-time chain, packed as
   visited * 2^n + current.  Only used for n <= 7, so the pack fits
   easily. *)
let cover_tail g ?(branching = Process.Fixed 2) ?(lazy_ = false) ?(eps = 1e-12)
    ?(max_rounds = 10_000) ~start () =
  let n = Graph.n g in
  Subset.check_n n;
  if n > 7 then invalid_arg "Cobra_chain.cover_tail: n <= 7 required";
  if start < 0 || start >= n then invalid_arg "Cobra_chain.cover_tail: start out of range";
  let fulls = Subset.full n in
  let pack visited current = (visited lsl n) lor current in
  let dist = Hashtbl.create 64 in
  let start_mask = 1 lsl start in
  if start_mask <> fulls then Hashtbl.replace dist (pack start_mask start_mask) 1.0;
  let tails = ref [ total_mass dist ] in
  let current_dist = ref dist in
  let t = ref 0 in
  (* Memoise the one-round distributions: the same current set recurs
     across many joint states and rounds. *)
  let memo = Hashtbl.create 256 in
  let next_of c =
    match Hashtbl.find_opt memo c with
    | Some d -> d
    | None ->
        let d = next_dist g ~branching ~lazy_ ~current:c () in
        Hashtbl.add memo c d;
        d
  in
  while total_mass !current_dist > eps && !t < max_rounds do
    incr t;
    let next = Hashtbl.create (Hashtbl.length !current_dist * 2) in
    let bump key p =
      Hashtbl.replace next key (p +. Option.value ~default:0.0 (Hashtbl.find_opt next key))
    in
    Hashtbl.iter
      (fun key p ->
        let visited = key lsr n and c = key land fulls in
        List.iter
          (fun (next_c, q) ->
            let visited' = visited lor next_c in
            if visited' <> fulls then bump (pack visited' next_c) (p *. q))
          (next_of c))
      !current_dist;
    current_dist := next;
    tails := total_mass next :: !tails
  done;
  if total_mass !current_dist > eps then
    failwith "Cobra_chain.cover_tail: mass did not drain (disconnected graph?)";
  Array.of_list (List.rev !tails)

let expected_cover g ?branching ?lazy_ ?eps ?max_rounds ~start () =
  let tail = cover_tail g ?branching ?lazy_ ?eps ?max_rounds ~start () in
  Array.fold_left ( +. ) 0.0 tail
