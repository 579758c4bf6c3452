module Graph = Cobra_graph.Graph

let total_variation p q =
  let s = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    s := !s +. Float.abs (p.(i) -. q.(i))
  done;
  0.5 *. !s

let stationary g =
  let two_m = float_of_int (Graph.total_degree g) in
  Array.init (Graph.n g) (fun u -> float_of_int (Graph.degree g u) /. two_m)

(* One step of the (lazy) walk distribution as a matvec: y = P^T x, or
   the lazy mix y = (x + P^T x) / 2. *)
let evolution_matvec g ~lazy_ =
  let op = Matvec.distribution_op g in
  if lazy_ then (fun x y ->
    Matvec.apply op x y;
    for i = 0 to Array.length y - 1 do
      Array.unsafe_set y i
        (0.5 *. (Array.unsafe_get x i +. Array.unsafe_get y i))
    done)
  else fun x y -> Matvec.apply op x y

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
