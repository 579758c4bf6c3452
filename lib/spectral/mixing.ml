module Graph = Cobra_graph.Graph

let total_variation p q =
  if Array.length p <> Array.length q then
    invalid_arg "Mixing.total_variation: length mismatch";
  let s = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    s := !s +. Float.abs (p.(i) -. q.(i))
  done;
  0.5 *. !s

let stationary g =
  let two_m = float_of_int (Graph.total_degree g) in
  if two_m = 0.0 then invalid_arg "Mixing.stationary: graph has no edges";
  Array.init (Graph.n g) (fun u -> float_of_int (Graph.degree g u) /. two_m)

(* One step of the (lazy) walk distribution as a matvec: y = P^T x, or
   the lazy mix y = (x + P^T x) / 2.  Spectrum inside [-1, 1] either
   way, which is what the Chebyshev path needs. *)
let evolution_matvec ?pool g ~lazy_ =
  let op = Matvec.distribution_op g in
  if lazy_ then (fun x y ->
    Matvec.apply ?pool op x y;
    for i = 0 to Array.length y - 1 do
      Array.unsafe_set y i
        (0.5 *. (Array.unsafe_get x i +. Array.unsafe_get y i))
    done)
  else fun x y -> Matvec.apply ?pool op x y

(* [Cheb.apply_monomial] steps exactly when that is no dearer than the
   Chebyshev recurrence (degree ~ sqrt(2 t ln(2/eps)) matvecs). *)
let walk_distribution ?(lazy_ = false) ?(eps = 1e-9) ?pool g ~start ~rounds =
  let n = Graph.n g in
  if start < 0 || start >= n then invalid_arg "Mixing.walk_distribution: start out of range";
  if rounds < 0 then invalid_arg "Mixing.walk_distribution: negative rounds";
  let x = Array.make n 0.0 in
  x.(start) <- 1.0;
  Cheb.apply_monomial ~matvec:(evolution_matvec ?pool g ~lazy_) ~t:rounds ~eps x

let distance_to_stationarity ?lazy_ ?eps ?pool g ~start ~rounds =
  total_variation (walk_distribution g ?lazy_ ?eps ?pool ~start ~rounds) (stationary g)

let mixing_time ?(lazy_ = false) ?(eps = 0.25) ?max_rounds g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Mixing.mixing_time: empty graph";
  if not (Cobra_graph.Props.is_connected g) then
    invalid_arg "Mixing.mixing_time: graph must be connected";
  if n = 1 then Some 0
  else begin
    let max_rounds = Option.value max_rounds ~default:(100 * n) in
    let pi = stationary g in
    (* Evolve all n start distributions in lockstep; stop when the worst
       TV distance crosses eps. *)
    let dists = Array.init n (fun u -> Array.init n (fun v -> if u = v then 1.0 else 0.0)) in
    let step = evolution_matvec g ~lazy_ in
    let scratch = Array.make n 0.0 in
    let worst () =
      Array.fold_left (fun acc d -> Float.max acc (total_variation d pi)) 0.0 dists
    in
    let t = ref 0 in
    let result = ref None in
    (try
       if worst () <= eps then result := Some 0
       else
         while !t < max_rounds do
           incr t;
           for u = 0 to n - 1 do
             step dists.(u) scratch;
             Array.blit scratch 0 dists.(u) 0 n
           done;
           if worst () <= eps then begin
             result := Some !t;
             raise Exit
           end
         done
     with Exit -> ());
    !result
  end

let mixing_time_from ?(lazy_ = false) ?(eps = 0.25) ?max_rounds ?pool g ~start =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Mixing.mixing_time_from: empty graph";
  if start < 0 || start >= n then invalid_arg "Mixing.mixing_time_from: start out of range";
  if not (Cobra_graph.Props.is_connected g) then
    invalid_arg "Mixing.mixing_time_from: graph must be connected";
  if n = 1 then Some 0
  else begin
    let max_rounds = Option.value max_rounds ~default:(100 * n) in
    let pi = stationary g in
    (* Keep the polynomial-approximation error well under the decision
       threshold so the bisection below cannot be fooled by it. *)
    let cheb_eps = Float.min 1e-9 (eps /. 100.0) in
    let tv t =
      total_variation (walk_distribution ~lazy_ ~eps:cheb_eps ?pool g ~start ~rounds:t) pi
    in
    if tv 0 <= eps then Some 0
    else begin
      (* TV distance to stationarity from a fixed start is monotone
         non-increasing in t (TV contracts under every application of
         the transition kernel), so geometric probing followed by
         bisection finds the first crossing in O(log t) distribution
         evaluations, each costing O(sqrt t) matvecs. *)
      let rec probe t =
        if t >= max_rounds then if tv max_rounds <= eps then Some max_rounds else None
        else if tv t <= eps then Some t
        else probe (t * 2)
      in
      match probe 1 with
      | None -> None
      | Some hi ->
        let lo = ref (hi / 2) and hi = ref hi in
        (* invariant: tv !lo > eps, tv !hi <= eps *)
        while !hi - !lo > 1 do
          let mid = !lo + ((!hi - !lo) / 2) in
          if tv mid <= eps then hi := mid else lo := mid
        done;
        Some !hi
    end
  end
