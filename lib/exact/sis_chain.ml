module Graph = Cobra_graph.Graph
module Process = Cobra_core.Process

type t = {
  n : int;
  states : int; (* 2^n *)
  matrix : float array array;
  (* Cached solutions of the two first-step systems, both filled by the
     first query of either: absorption probability into the full set,
     and expected time to absorption, both indexed by state. *)
  mutable tables : (float array * float array) option;
}

let make g ?(branching = Process.Fixed 2) ?(lazy_ = false) () =
  let n = Graph.n g in
  Subset.check_n n;
  if n < 1 then invalid_arg "Sis_chain.make: empty graph";
  if n > 10 then invalid_arg "Sis_chain.make: n <= 10 required";
  Process.validate_branching branching;
  let states = 1 lsl n in
  let matrix = Factorised.kernel g branching lazy_ ~skip:(-1) ~states ~mask_of:Fun.id in
  { n; states; matrix; tables = None }

let transition_probability t a a' = t.matrix.(a).(a')

(* Solve (I - Q) x = rhs over the transient states (everything except
   the empty and full sets), once for both right-hand sides. *)
let tables t =
  match t.tables with
  | Some tables -> tables
  | None ->
      let full = t.states - 1 in
      let transient = Array.init (t.states - 2) (fun j -> j + 1) in
      let x =
        Gauss.solve_transient t.matrix ~transient
          ~rhs:[| (fun s -> t.matrix.(s).(full)); (fun _ -> 1.0) |]
          ~singular:
            "Sis_chain: singular system — on bipartite graphs the plain chain has periodic \
             parity orbits and absorption is not almost-sure; use the lazy variant"
      in
      let by_state x =
        let table = Array.make t.states 0.0 in
        Array.iteri (fun j s -> table.(s) <- x.(j)) transient;
        table
      in
      let saturation = by_state x.(0) in
      saturation.(full) <- 1.0;
      let tables = (saturation, by_state x.(1)) in
      t.tables <- Some tables;
      tables

let check_initial t initial =
  if initial < 0 || initial >= t.states then
    invalid_arg "Sis_chain: initial mask out of range"

let saturation_probability t ~initial =
  check_initial t initial;
  (fst (tables t)).(initial)

let expected_absorption_time t ~initial =
  check_initial t initial;
  (snd (tables t)).(initial)
