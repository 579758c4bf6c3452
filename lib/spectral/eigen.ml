module Graph = Cobra_graph.Graph
module Obs = Cobra_obs.Obs
module Metrics = Cobra_obs.Metrics

type spectrum = {
  lambda : float;
  lambda2 : float;
  lazy_lambda : float;
  vec2 : float array;
  stats : Lanczos.stats;
}

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

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let spectrum ?(obs = Obs.null) ?(tol = 1e-10) ?(max_iter = 200_000) ?pool g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Eigen.spectrum: empty graph";
  (* Both ends of the deflated spectrum of N come from one basis.  On a
     single vertex nothing is orthogonal to the stationary direction and
     the solver returns zeros, so lambda is 0 there. *)
  let op = Matvec.normalized_op g in
  let r =
    Lanczos.extremes ~n
      ~matvec:(fun x y -> Matvec.apply ?pool op x y)
      ~ortho:[| Matvec.stationary_direction g |]
      ~tol ~max_matvecs:max_iter ?pool ()
  in
  emit_obs obs r.stats;
  (* Convert the eigenvector of N into one of P: v_P = D^{-1/2} v_N. *)
  let vec2 =
    Array.init n (fun u ->
        let d = Graph.degree g u in
        if d = 0 then 0.0 else r.top_vec.(u) /. sqrt (float_of_int d))
  in
  Matvec.scale_to_unit vec2;
  {
    lambda = clamp01 (Float.max (Float.abs r.top) (Float.abs r.bottom));
    lambda2 = r.top;
    lazy_lambda = clamp01 ((1.0 +. r.top) /. 2.0);
    vec2;
    stats = r.stats;
  }
