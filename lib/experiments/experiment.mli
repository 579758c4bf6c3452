(** The experiment registry.

    Each experiment validates one quantitative claim of the paper (see
    DESIGN.md section 3 for the index) and renders its result as a text
    table.  Experiments are deterministic given [master_seed] and run at
    two scales: [Quick] (seconds each, used by the benches and smoke
    tests) and [Full] (the EXPERIMENTS.md numbers). *)

type scale = Quick | Full

type t = {
  id : string;  (** "e1" .. "e16". *)
  title : string;
  claim : string;  (** The paper statement under test. *)
  run :
    obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> master_seed:int -> scale:scale ->
    string;
      (** Renders the result tables, including a PASS/INFO verdict line.
          An enabled [obs] collects trial-latency metrics and events
          from the Monte-Carlo sweeps the experiment performs; it never
          affects the rendered numbers. *)
}

val make :
  id:string -> title:string -> claim:string ->
  run:
    (obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> master_seed:int -> scale:scale ->
     string) ->
  t

val header : t -> string
(** Banner printed above the experiment output. *)

val manifest : t -> master_seed:int -> scale:scale -> domains:int -> Cobra_obs.Manifest.t
(** The configuration fingerprint for one run of this experiment. *)

val run_observed :
  ?obs:Cobra_obs.Obs.t -> t -> pool:Cobra_parallel.Pool.t -> master_seed:int -> scale:scale ->
  string
(** Runs the experiment wrapped in observability: emits
    [Experiment_started]/[Experiment_completed] events, times the run
    with {!Cobra_obs.Timer} and records an ["experiment/<id>/seconds"]
    gauge.  With the null context this is exactly [t.run]. *)
