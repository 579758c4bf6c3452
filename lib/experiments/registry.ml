let all =
  [
    E01_general_bound.experiment;
    E02_regular_bound.experiment;
    E03_duality.experiment;
    E04_hypercube.experiment;
    E05_dutta_families.experiment;
    E06_rho_branching.experiment;
    E07_lemma41_growth.experiment;
    E08_candidate_sets.experiment;
    E09_lower_bounds.experiment;
    E10_bipartite_lazy.experiment;
    E11_phases.experiment;
    E12_multiwalk.experiment;
    E13_gossip.experiment;
    E14_ablations.experiment;
    E15_sis_persistence.experiment;
    E16_conjecture_probe.experiment;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun (e : Experiment.t) -> e.id = id) all

let select = function
  | [ "all" ] -> Ok all
  | requested -> (
      match List.filter (fun id -> find id = None) requested with
      | [] -> Ok (List.filter_map find requested)
      | missing ->
          Error
            (Printf.sprintf "unknown experiment id(s): %s (try 'list')"
               (String.concat ", " missing)))
