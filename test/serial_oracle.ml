(* The serial reference [Montecarlo.run] is held to: trial [i] runs on
   [Rng.for_trial ~master:master_seed ~trial:i], in trial order, on the
   calling domain, so any pool width must reproduce its results. *)
let run ~master_seed ~trials f =
  Array.init trials (fun trial -> f ~trial (Cobra_prng.Rng.for_trial ~master:master_seed ~trial))
