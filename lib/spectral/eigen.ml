module Graph = Cobra_graph.Graph
module Obs = Cobra_obs.Obs
module Metrics = Cobra_obs.Metrics

type solver = Lanczos | Jacobi

type not_converged = { best : float; iterations : int; matvecs : int; residual : float }

(* Solver telemetry: iteration/matvec counts and final residuals land in
   the metrics registry so manifests show convergence behaviour instead
   of solvers spinning (or bailing) silently. *)
let emit_obs obs ~(solver : solver) ~iterations ~matvecs ~restarts ~residual ~converged =
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    let scope = "spectral" in
    let name = match solver with Lanczos -> "lanczos" | Jacobi -> "jacobi" in
    Metrics.incr (Metrics.counter m ~scope ("solves_" ^ name));
    Metrics.add (Metrics.counter m ~scope "iterations") iterations;
    Metrics.add (Metrics.counter m ~scope "matvecs") matvecs;
    Metrics.add (Metrics.counter m ~scope "restarts") restarts;
    Metrics.set (Metrics.gauge m ~scope "last_residual") residual;
    if not converged then Metrics.incr (Metrics.counter m ~scope "not_converged")
  end

(* --- Dense reference solver: cyclic Jacobi on the symmetric N --- *)

let dense_normalized g =
  let n = Graph.n g in
  let a = Array.make_matrix n n 0.0 in
  for u = 0 to n - 1 do
    if Graph.degree g u = 0 then
      invalid_arg "Eigen.dense_spectrum: isolated vertex (transition matrix undefined)"
  done;
  Graph.iter_edges g (fun u v ->
      let w = 1.0 /. sqrt (float_of_int (Graph.degree g u * Graph.degree g v)) in
      a.(u).(v) <- w;
      a.(v).(u) <- w);
  a

let jacobi_eigenvalues a =
  let n = Array.length a in
  let off_diag_norm () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt (2.0 *. !s)
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 1e-15 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
      let t =
        let sgn = if theta >= 0.0 then 1.0 else -1.0 in
        sgn /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      let tau = s /. (1.0 +. c) in
      let app = a.(p).(p) and aqq = a.(q).(q) in
      a.(p).(p) <- app -. (t *. apq);
      a.(q).(q) <- aqq +. (t *. apq);
      a.(p).(q) <- 0.0;
      a.(q).(p) <- 0.0;
      for k = 0 to n - 1 do
        if k <> p && k <> q then begin
          let akp = a.(k).(p) and akq = a.(k).(q) in
          let akp' = akp -. (s *. (akq +. (tau *. akp))) in
          let akq' = akq +. (s *. (akp -. (tau *. akq))) in
          a.(k).(p) <- akp';
          a.(p).(k) <- akp';
          a.(k).(q) <- akq';
          a.(q).(k) <- akq'
        end
      done
    end
    else begin
      a.(p).(q) <- 0.0;
      a.(q).(p) <- 0.0
    end
  in
  let sweeps = ref 0 in
  while off_diag_norm () > 1e-12 && !sweeps < 100 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  let eigs = Array.init n (fun i -> a.(i).(i)) in
  Array.sort (fun x y -> Float.compare y x) eigs;
  eigs

let dense_spectrum g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Eigen.dense_spectrum: empty graph";
  if n > 1024 then invalid_arg "Eigen.dense_spectrum: graph too large for the dense solver";
  jacobi_eigenvalues (dense_normalized g)

let second_eigenvalue_exact g =
  let eigs = dense_spectrum g in
  let n = Array.length eigs in
  if n = 1 then 0.0 else Float.max (Float.abs eigs.(1)) (Float.abs eigs.(n - 1))

(* --- Lanczos driver: both spectrum ends in one basis --- *)

let lanczos_extremes ?pool ~tol ~max_matvecs ~seed g =
  let n = Graph.n g in
  let op = Matvec.normalized_op g in
  let pi = Matvec.stationary_direction g in
  Lanczos.extremes ~n
    ~matvec:(fun x y -> Matvec.apply ?pool op x y)
    ~ortho:[| pi |] ~tol ~max_matvecs ~seed ?pool ()

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let second_eigenvalue_r ?(solver = Lanczos) ?(obs = Obs.null) ?(tol = 1e-10)
    ?(max_iter = 200_000) ?(seed = 1) ?pool g =
  if Graph.n g = 0 then invalid_arg "Eigen.second_eigenvalue: empty graph";
  if Graph.n g = 1 then Ok 0.0
  else
    match solver with
    | Jacobi ->
        let lambda = second_eigenvalue_exact g in
        emit_obs obs ~solver ~iterations:0 ~matvecs:0 ~restarts:0 ~residual:0.0 ~converged:true;
        Ok lambda
    | Lanczos ->
        let r = lanczos_extremes ?pool ~tol ~max_matvecs:max_iter ~seed g in
        let lambda = clamp01 (Float.max (Float.abs r.top) (Float.abs r.bottom)) in
        emit_obs obs ~solver ~iterations:r.stats.iterations ~matvecs:r.stats.matvecs
          ~restarts:r.stats.restarts ~residual:r.stats.residual ~converged:r.stats.converged;
        if r.stats.converged then Ok lambda
        else
          Error
            {
              best = lambda;
              iterations = r.stats.iterations;
              matvecs = r.stats.matvecs;
              residual = r.stats.residual;
            }

(* The plain entry point keeps its historical contract — always a float,
   clamped to [0, 1] — but a failed convergence is no longer silent: it
   bumps the [spectral/not_converged] counter (via {!second_eigenvalue_r})
   and the typed result is one call away. *)
let second_eigenvalue ?solver ?obs ?tol ?max_iter ?seed ?pool g =
  match second_eigenvalue_r ?solver ?obs ?tol ?max_iter ?seed ?pool g with
  | Ok lambda -> lambda
  | Error { best; _ } -> best

let eigenvalue_gap ?solver ?obs ?tol ?max_iter ?seed ?pool g =
  1.0 -. second_eigenvalue ?solver ?obs ?tol ?max_iter ?seed ?pool g

let second_eigenvector ?(solver = Lanczos) ?(obs = Obs.null) ?(tol = 1e-10)
    ?(max_iter = 200_000) ?(seed = 1) ?pool g =
  if Graph.n g = 0 then invalid_arg "Eigen.second_eigenvector: empty graph";
  let n = Graph.n g in
  let lambda2, v =
    match solver with
    | Lanczos ->
        let r = lanczos_extremes ?pool ~tol ~max_matvecs:max_iter ~seed g in
        emit_obs obs ~solver ~iterations:r.stats.iterations ~matvecs:r.stats.matvecs
          ~restarts:r.stats.restarts ~residual:r.stats.residual ~converged:r.stats.converged;
        (r.top, r.top_vec)
    | Jacobi ->
        if n > 1024 then
          invalid_arg "Eigen.second_eigenvector: graph too large for the dense solver";
        let eigs, z = Lanczos.sym_eig (dense_normalized g) in
        (* Ascending order: the principal pair is last; the second
           largest (signed) eigenvalue of P is just before it. *)
        let j = Int.max 0 (n - 2) in
        emit_obs obs ~solver ~iterations:0 ~matvecs:0 ~restarts:0 ~residual:0.0 ~converged:true;
        (eigs.(j), Array.init n (fun i -> z.(i).(j)))
  in
  (* Convert the eigenvector of N into one of P: v_P = D^{-1/2} v_N. *)
  let vp =
    Array.init n (fun u ->
        let d = Graph.degree g u in
        if d = 0 then 0.0 else v.(u) /. sqrt (float_of_int d))
  in
  Matvec.scale_to_unit vp;
  (lambda2, vp)

let lazy_second_eigenvalue ?solver ?obs ?tol ?max_iter ?seed ?pool g =
  let lambda2, _ = second_eigenvector ?solver ?obs ?tol ?max_iter ?seed ?pool g in
  Float.max 0.0 (Float.min 1.0 ((1.0 +. lambda2) /. 2.0))

let lazy_eigenvalue_gap ?solver ?obs ?tol ?max_iter ?seed ?pool g =
  1.0 -. lazy_second_eigenvalue ?solver ?obs ?tol ?max_iter ?seed ?pool g
