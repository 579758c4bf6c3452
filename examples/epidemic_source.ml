(* BIPS as an epidemic with a persistently infected host.

   The dual process is interesting in its own right (Section 1 of the
   paper): an SIS-type epidemic where vertices refresh their infection
   by sampling two random neighbours each round, plus one persistent
   source that never recovers.  The persistent source guarantees the
   infection eventually saturates the graph.

   This example tracks one outbreak on a 32x32 torus: the infected
   count, the candidate-set size (the vertices whose fate is still
   random — definition (6) in the paper), and the three growth phases.

   Run with:  dune exec examples/epidemic_source.exe *)

module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Eigen = Cobra_spectral.Eigen
module Bips = Cobra_core.Bips
module Phases = Cobra_core.Phases

let bar width value max_value =
  let len = int_of_float (float_of_int width *. float_of_int value /. float_of_int max_value) in
  String.make (max 0 len) '#'

let () =
  let g = Gen.torus ~dims:[ 33; 33 ] in
  let n = Graph.n g in
  let rng = Cobra_prng.Rng.create 99 in
  Format.printf "graph: %a (33x33 torus)@." Graph.pp_stats g;
  let lambda = (Eigen.spectrum g).lambda in
  Format.printf "lambda = %.4f, gap = %.4f@.@." lambda (1.0 -. lambda);
  match Bips.run_trajectory g rng ~source:0 () with
  | None -> print_endline "outbreak did not saturate within the cap (unexpected)"
  | Some traj ->
      Format.printf "round  infected  candidates@.";
      Array.iteri
        (fun round size ->
          if round mod 5 = 0 || round = traj.rounds then begin
            let cand =
              if round < Array.length traj.candidate_sizes then
                string_of_int traj.candidate_sizes.(round)
              else "-"
            in
            Format.printf "%5d  %8d  %10s  %s@." round size cand (bar 40 size n)
          end)
        traj.sizes;
      let threshold = Phases.default_small_threshold ~n ~lambda in
      let s = Phases.split ~n ~small_threshold:threshold ~sizes:traj.sizes in
      Format.printf
        "@.saturated in %d rounds: start %d (to %d infected), bulk %d (to n/4), tail %d@."
        traj.rounds s.start_rounds threshold s.bulk_rounds s.tail_rounds;
      (* The duality reading: the time BIPS needs to reach a vertex set C
         from source v bounds the COBRA hitting time of v from C. *)
      Format.printf
        "duality: P(COBRA from any C misses v for T rounds) = P(BIPS from v avoids C at T)@."
