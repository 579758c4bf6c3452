module Graph = Cobra_graph.Graph
module Obs = Cobra_obs.Obs
module Metrics = Cobra_obs.Metrics

type not_converged = { best : float; iterations : int; matvecs : int; residual : float }

(* Solver telemetry: iteration/matvec counts and final residuals land in
   the metrics registry so manifests show convergence behaviour instead
   of solvers spinning (or bailing) silently. *)
let emit_obs obs (stats : Lanczos.stats) =
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    let scope = "spectral" in
    Metrics.incr (Metrics.counter m ~scope "solves_lanczos");
    Metrics.add (Metrics.counter m ~scope "iterations") stats.iterations;
    Metrics.add (Metrics.counter m ~scope "matvecs") stats.matvecs;
    Metrics.add (Metrics.counter m ~scope "restarts") stats.restarts;
    Metrics.set (Metrics.gauge m ~scope "last_residual") stats.residual;
    if not stats.converged then Metrics.incr (Metrics.counter m ~scope "not_converged")
  end

(* --- Lanczos driver: both spectrum ends in one basis --- *)

let lanczos_extremes ?pool ~obs ~tol ~max_matvecs ~seed g =
  let n = Graph.n g in
  let op = Matvec.normalized_op g in
  let pi = Matvec.stationary_direction g in
  let r =
    Lanczos.extremes ~n
      ~matvec:(fun x y -> Matvec.apply ?pool op x y)
      ~ortho:[| pi |] ~tol ~max_matvecs ~seed ?pool ()
  in
  emit_obs obs r.stats;
  r

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let second_eigenvalue_r ?(obs = Obs.null) ?(tol = 1e-10) ?(max_iter = 200_000) ?(seed = 1) ?pool
    g =
  if Graph.n g = 0 then invalid_arg "Eigen.second_eigenvalue: empty graph";
  if Graph.n g = 1 then Ok 0.0
  else begin
    let r = lanczos_extremes ?pool ~obs ~tol ~max_matvecs:max_iter ~seed g in
    let lambda = clamp01 (Float.max (Float.abs r.top) (Float.abs r.bottom)) in
    if r.stats.converged then Ok lambda
    else
      Error
        {
          best = lambda;
          iterations = r.stats.iterations;
          matvecs = r.stats.matvecs;
          residual = r.stats.residual;
        }
  end

(* The plain entry point keeps its historical contract — always a float,
   clamped to [0, 1] — but a failed convergence is no longer silent: it
   bumps the [spectral/not_converged] counter (via {!second_eigenvalue_r})
   and the typed result is one call away. *)
let second_eigenvalue ?obs ?tol ?max_iter ?seed ?pool g =
  match second_eigenvalue_r ?obs ?tol ?max_iter ?seed ?pool g with
  | Ok lambda -> lambda
  | Error { best; _ } -> best

let second_eigenvector ?(obs = Obs.null) ?(tol = 1e-10) ?(max_iter = 200_000) ?(seed = 1) ?pool g
    =
  if Graph.n g = 0 then invalid_arg "Eigen.second_eigenvector: empty graph";
  let r = lanczos_extremes ?pool ~obs ~tol ~max_matvecs:max_iter ~seed g in
  (* Convert the eigenvector of N into one of P: v_P = D^{-1/2} v_N. *)
  let vp =
    Array.init (Graph.n g) (fun u ->
        let d = Graph.degree g u in
        if d = 0 then 0.0 else r.top_vec.(u) /. sqrt (float_of_int d))
  in
  Matvec.scale_to_unit vp;
  (r.top, vp)

let lazy_second_eigenvalue ?obs ?tol ?max_iter ?seed ?pool g =
  let lambda2, _ = second_eigenvector ?obs ?tol ?max_iter ?seed ?pool g in
  Float.max 0.0 (Float.min 1.0 ((1.0 +. lambda2) /. 2.0))

let lazy_eigenvalue_gap ?obs ?tol ?max_iter ?seed ?pool g =
  1.0 -. lazy_second_eigenvalue ?obs ?tol ?max_iter ?seed ?pool g
