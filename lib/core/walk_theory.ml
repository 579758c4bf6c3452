module Graph = Cobra_graph.Graph
module Props = Cobra_graph.Props
module Pool = Cobra_parallel.Pool
module Obs = Cobra_obs.Obs
module Metrics = Cobra_obs.Metrics
module Matvec = Cobra_spectral.Matvec

let emit_cg_obs obs ~solves ~iterations ~residual =
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    let scope = "walk" in
    Metrics.add (Metrics.counter m ~scope "cg_solves") solves;
    Metrics.add (Metrics.counter m ~scope "cg_iterations") iterations;
    Metrics.set (Metrics.gauge m ~scope "cg_residual") residual
  end

(* The grounded Laplacian: y = L x restricted to V \ {target}, under the
   invariant that every vector in the solve keeps component [target] at
   zero (so neighbour sums need no branch).  Hitting times solve
   L_g h = d on that subspace: the system is symmetric positive
   definite, which is what lets conjugate gradients replace the dense
   pseudo-inverse. *)
let grounded_apply g ~target x y =
  let module A1 = Bigarray.Array1 in
  let n = Array.length x in
  let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
  (* Returns <x, y> accumulated in the same pass: CG needs exactly that
     inner product right after every application, and folding it in here
     saves a full extra sweep over both vectors per iteration. *)
  let xy = ref 0.0 in
  for u = 0 to n - 1 do
    if u = target then Array.unsafe_set y u 0.0
    else begin
      let lo = Int32.to_int (A1.unsafe_get offsets u)
      and hi = Int32.to_int (A1.unsafe_get offsets (u + 1)) in
      let s = ref 0.0 in
      for k = lo to hi - 1 do
        s := !s +. Array.unsafe_get x (Int32.to_int (A1.unsafe_get adj k))
      done;
      let xu = Array.unsafe_get x u in
      let yu = (float_of_int (hi - lo) *. xu) -. !s in
      Array.unsafe_set y u yu;
      xy := !xy +. (xu *. yu)
    end
  done;
  !xy

(* Target-independent precomputation shared by every column solve: float
   degrees, their reciprocals, the squared norm of the degree vector,
   and the maximum degree.  All read-only during the solves, so one
   record serves all targets (including pooled column solves). *)
type cg_pre = {
  deg : float array;
  inv_deg : float array;
  deg_sumsq : float;
  d_max : float;
}

let cg_precompute g =
  let n = Graph.n g in
  let deg = Array.init n (fun u -> float_of_int (Graph.degree g u)) in
  let inv_deg = Array.map (fun d -> if d > 0.0 then 1.0 /. d else 0.0) deg in
  let deg_sumsq = Array.fold_left (fun acc d -> acc +. (d *. d)) 0.0 deg in
  let d_max = Array.fold_left Float.max 1.0 deg in
  { deg; inv_deg; deg_sumsq; d_max }

(* Jacobi-preconditioned CG for L_g h = d with a BFS-distance warm
   start.  Returns (h, iterations, relative_residual).  Deterministic:
   no randomness, fixed accumulation order.

   Every vector in the solve keeps component [target] at exactly zero:
   [grounded_apply] writes 0 there, so q, r, z, p and the [h] update all
   preserve it, and the shared (unpatched) [pre.inv_deg] never leaks a
   nonzero into the grounded coordinate. *)
let cg_hitting g ~pre ~target ~tol ~max_iter =
  let n = Graph.n g in
  let h = Array.make n 0.0 in
  if n = 1 then (h, 0, 0.0)
  else begin
    (* Warm start: BFS distances give the right order of magnitude and
       the exact answer on complete-graph-like geometry is one CG
       correction away. *)
    let dist = Props.bfs_distances g target in
    for u = 0 to n - 1 do
      h.(u) <- float_of_int (dist.(u) * n)
    done;
    h.(target) <- 0.0;
    let { deg; inv_deg; deg_sumsq; d_max } = pre in
    let b_norm =
      let dt = deg.(target) in
      sqrt (Float.max 0.0 (deg_sumsq -. (dt *. dt)))
    in
    let r = Array.make n 0.0 in
    let z = Array.make n 0.0 in
    let q = Array.make n 0.0 in
    ignore (grounded_apply g ~target h q : float);
    for u = 0 to n - 1 do
      r.(u) <- deg.(u) -. q.(u);
      z.(u) <- r.(u) *. inv_deg.(u)
    done;
    r.(target) <- 0.0;
    z.(target) <- 0.0;
    let p = Array.copy z in
    let rz = ref (Matvec.dot r z) in
    let iter = ref 0 in
    (* Convergence test in the preconditioner norm, which CG maintains
       for free: with M = diag(d), ||r||^2 <= d_max * r'M^-1 r =
       d_max * rz, so d_max * rz <= (tol * ||b||)^2 certifies the
       relative residual without an extra norm pass per iteration.  The
       true residual is computed once, after the loop. *)
    let thresh2 = tol *. b_norm *. tol *. b_norm in
    while (d_max *. !rz > thresh2) && !iter < max_iter do
      incr iter;
      let pq = grounded_apply g ~target p q in
      if pq <= 0.0 then (* numerically exhausted: the residual is noise *)
        iter := max_iter
      else begin
        let alpha = !rz /. pq in
        (* One fused pass for the solution, residual, preconditioned
           residual, and its inner product — the loop body is the whole
           per-iteration vector cost besides [grounded_apply]. *)
        let rz' = ref 0.0 in
        for u = 0 to n - 1 do
          h.(u) <- h.(u) +. (alpha *. p.(u));
          let ru = r.(u) -. (alpha *. q.(u)) in
          r.(u) <- ru;
          let zu = ru *. inv_deg.(u) in
          z.(u) <- zu;
          rz' := !rz' +. (ru *. zu)
        done;
        let beta = !rz' /. !rz in
        rz := !rz';
        for u = 0 to n - 1 do
          p.(u) <- z.(u) +. (beta *. p.(u))
        done
      end
    done;
    h.(target) <- 0.0;
    (h, !iter, Matvec.norm2 r /. b_norm)
  end

(* CG's stopping rule: relative residual [||L_g h - d|| / ||d||] below
   [cg_tol], or [cg_max_iter n] iterations. *)
let cg_tol = 1e-8
let cg_max_iter n = Int.max 1000 (20 * n)

let check_connected who g =
  if not (Props.is_connected g) then invalid_arg (who ^ ": graph must be connected")

let hitting_times g ~target =
  let n = Graph.n g in
  if target < 0 || target >= n then invalid_arg "Walk_theory.hitting_times: target out of range";
  check_connected "Walk_theory.hitting_times" g;
  let h, _, _ = cg_hitting g ~pre:(cg_precompute g) ~target ~tol:cg_tol ~max_iter:(cg_max_iter n) in
  h

let all_hitting_times ?(obs = Obs.null) ?pool g =
  let n = Graph.n g in
  check_connected "Walk_theory.all_hitting_times" g;
  (* One grounded-Laplacian CG solve per target column.  Columns are
     independent, so a pool spreads them across domains; obs contexts
     are single-domain, so telemetry is aggregated after the loop. *)
  let pre = cg_precompute g in
  let max_iter = cg_max_iter n in
  let iters = Array.make n 0 in
  let resid = Array.make n 0.0 in
  let solve v =
    let h, it, res = cg_hitting g ~pre ~target:v ~tol:cg_tol ~max_iter in
    iters.(v) <- it;
    resid.(v) <- res;
    h
  in
  let cols =
    match pool with
    | Some pool when n > 1 -> Pool.parallel_init pool n solve
    | _ -> Array.init n solve
  in
  emit_cg_obs obs
    ~solves:n
    ~iterations:(Array.fold_left ( + ) 0 iters)
    ~residual:(Array.fold_left Float.max 0.0 resid);
  Array.init n (fun u -> Array.init n (fun v -> cols.(v).(u)))

let max_hitting_time ?obs ?pool g =
  let h = all_hitting_times ?obs ?pool g in
  Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 0.0 h

let harmonic k =
  let s = ref 0.0 in
  for i = 1 to k do
    s := !s +. (1.0 /. float_of_int i)
  done;
  !s

let matthews_upper ~n ~h_max = h_max *. harmonic (n - 1)
