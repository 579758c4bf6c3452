module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Summary = Cobra_stats.Summary
module Rng = Cobra_prng.Rng
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Gossip = Cobra_core.Gossip

(* All four protocols run on the keyed round kernels of
   [Cobra_core.Process] (PUSH and PUSH-PULL are built from the COBRA and
   SIS rounds at b = 1), so their rounds are directly comparable.
   Messages count a request and its reply separately: COBRA sends its
   transmissions, PUSH |I_t| per round, PUSH-PULL 2n per round (n calls,
   each answered) and BIPS 4(n - 1) per round (every non-source vertex
   queries two neighbours, each answered).  This experiment is an
   extension beyond the paper's claims: it situates COBRA among the
   classical gossip baselines its introduction cites. *)

type proto = {
  pname : string;
  run : Graph.t -> Rng.t -> (int * int) option;  (* rounds and messages to completion *)
}

let gossip protocol g rng =
  Option.map
    (fun (r : Gossip.run) -> (r.rounds, r.messages))
    (Gossip.run_cover g rng ~protocol ~start:0 ())

let protos =
  [
    {
      pname = "COBRA b=2";
      run =
        (fun g rng ->
          Option.map
            (fun (r : Cobra.run) -> (r.rounds, r.transmissions))
            (Cobra.run_cover_detailed g rng ~start:0 ()));
    };
    { pname = "PUSH"; run = gossip Gossip.Push };
    { pname = "PUSH-PULL"; run = gossip Gossip.Push_pull };
    {
      pname = "BIPS (infection)";
      run =
        (fun g rng ->
          Option.map
            (fun rounds -> (rounds, 4 * (Graph.n g - 1) * rounds))
            (Bips.run_infection g rng ~source:0 ()));
    };
  ]

let run ~obs ~pool ~master_seed ~scale =
  let cases, trials =
    match scale with
    | Experiment.Quick -> ([ ("regular-8", 128) ], 12)
    | Experiment.Full -> ([ ("complete", 256); ("regular-8", 256); ("hypercube", 256); ("torus2d", 256) ], 32)
  in
  let buf = Buffer.create 2048 in
  let all_ok = ref true in
  List.iter
    (fun (family, n) ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      Buffer.add_string buf
        (Common.section (Printf.sprintf "%s, n = %d, m = %d" family (Graph.n g) (Graph.m g)));
      let t =
        Table.create
          [
            ("protocol", Table.Left); ("rounds (mean)", Table.Right);
            ("rounds (q90)", Table.Right); ("messages (mean)", Table.Right);
            ("msgs/vertex", Table.Right);
          ]
      in
      let cobra_rounds = ref nan and pp_rounds = ref nan in
      List.iter
        (fun proto ->
          let results =
            Cobra_parallel.Montecarlo.run ~obs
              ~codec:Cobra_parallel.Journal.(option (pair float_ float_))
              ~pool
              ~master_seed:(master_seed + Hashtbl.hash proto.pname)
              ~trials
              (fun ~trial rng ->
                ignore trial;
                Option.map
                  (fun (rounds, messages) -> (float_of_int rounds, float_of_int messages))
                  (proto.run g rng))
          in
          let completed = List.filter_map Fun.id (Array.to_list results) in
          if List.length completed < trials then all_ok := false;
          let rounds = Array.of_list (List.map fst completed) in
          let msgs = Array.of_list (List.map snd completed) in
          let rs = Summary.of_array rounds and ms = Summary.of_array msgs in
          if proto.pname = "COBRA b=2" then cobra_rounds := rs.mean;
          if proto.pname = "PUSH-PULL" then pp_rounds := rs.mean;
          Table.add_row t
            [
              proto.pname; Table.cell_f rs.mean;
              Table.cell_f (Cobra_stats.Quantile.quantile rounds 0.9); Table.cell_f ms.mean;
              Table.cell_f (ms.mean /. float_of_int (Graph.n g));
            ])
        protos;
      Buffer.add_string buf (Table.render t);
      (* COBRA should stay within a small factor of PUSH-PULL in rounds
         on these well-connected instances, despite going quiet after
         each push. *)
      if !cobra_rounds > 4.0 *. !pp_rounds then all_ok := false)
    cases;
  Buffer.add_string buf
    (Printf.sprintf
       "\nmessages: COBRA its transmissions, PUSH sum of |I_t|, PUSH-PULL 2n per round, BIPS \
        4(n-1) per round (requests and replies both counted)\nverdict: %s\n"
       (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e13" ~title:"Extension — COBRA among gossip baselines"
    ~claim:
      "on the synchronous network model, COBRA covers within a small factor of PUSH-PULL rounds while bounding per-vertex sends (extension beyond the paper's tables)"
    ~run
