(* COBRA among the gossip protocols.

   COBRA, BIPS, PUSH and PUSH-PULL all run on the keyed round kernels of
   Cobra_core.Process — a PUSH round is a COBRA round at b = 1 from the
   informed set, and PUSH-PULL adds an SIS round at b = 1 — so rounds
   and message counts are directly comparable.  This example races them
   on three topologies and prints the round-by-round spread of one COBRA
   run.

   Run with:  dune exec examples/gossip_protocols.exe *)

module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Rng = Cobra_prng.Rng
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Gossip = Cobra_core.Gossip
module Table = Cobra_stats.Table

(* Rounds and messages to completion.  A request and its reply count as
   two messages: PUSH-PULL pays 2n per round, BIPS 4(n - 1). *)
let protocols g =
  let gossip protocol rng =
    Option.map
      (fun (r : Gossip.run) -> (r.rounds, r.messages))
      (Gossip.run_cover g rng ~protocol ~start:0 ())
  in
  [
    ( "COBRA b=2",
      fun rng ->
        Option.map
          (fun (r : Cobra.run) -> (r.rounds, r.transmissions))
          (Cobra.run_cover_detailed g rng ~start:0 ()) );
    ("PUSH", gossip Gossip.Push);
    ("PUSH-PULL", gossip Gossip.Push_pull);
    ( "BIPS",
      fun rng ->
        Option.map
          (fun rounds -> (rounds, 4 * (Graph.n g - 1) * rounds))
          (Bips.run_infection g rng ~source:0 ()) );
  ]

let race name g =
  Format.printf "@.%s: %a@." name Graph.pp_stats g;
  let t =
    Table.create
      [ ("protocol", Table.Left); ("rounds", Table.Right); ("messages", Table.Right) ]
  in
  let trials = 25 in
  let mean f =
    let rounds = ref 0.0 and msgs = ref 0.0 in
    for seed = 1 to trials do
      match f (Rng.create seed) with
      | Some (r, m) ->
          rounds := !rounds +. float_of_int r;
          msgs := !msgs +. float_of_int m
      | None -> failwith "capped"
    done;
    (!rounds /. float_of_int trials, !msgs /. float_of_int trials)
  in
  List.iter
    (fun (pname, f) ->
      let rounds, msgs = mean f in
      Table.add_row t [ pname; Printf.sprintf "%.1f" rounds; Printf.sprintf "%.0f" msgs ])
    (protocols g);
  print_string (Table.render t)

let () =
  let rng = Rng.create 7 in
  race "random 8-regular" (Gen.random_regular ~n:256 ~r:8 rng);
  race "hypercube d=8" (Gen.hypercube 8);
  race "2-D torus 16x16" (Gen.torus ~dims:[ 16; 16 ]);

  (* Watch one COBRA run spread: every active vertex sends two messages. *)
  let g = Gen.random_regular ~n:256 ~r:8 rng in
  match Cobra.run_cover_detailed g (Rng.create 99) ~start:0 () with
  | None -> failwith "capped"
  | Some r ->
      Format.printf "@.one COBRA run on the 8-regular graph (informed / active / messages):@.";
      let sent = ref 0 in
      for round = 1 to r.rounds do
        sent := !sent + (2 * r.active_sizes.(round - 1));
        Format.printf "  round %2d: %3d informed, %3d active, %4d messages@." round
          r.visited_sizes.(round) r.active_sizes.(round) !sent
      done
