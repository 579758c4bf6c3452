(* The double-edge-switch generator that [Gen.random_regular] ran before
   its slot table, kept as the reference the generator is held to: the
   same circulant base, the same draws and the same accept/reject rule,
   with edges as a tuple array and membership in a polymorphic [Hashtbl]
   keyed by the packed unordered pair.  No code shared with [Gen] beyond
   the graph constructors, [Props.is_connected] and the [Rng] draws. *)

module Graph = Cobra_graph.Graph
module Props = Cobra_graph.Props
module Rng = Cobra_prng.Rng

let circulant_regular n r =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for k = 1 to r / 2 do
      edges := (i, (i + k) mod n) :: !edges
    done
  done;
  if r mod 2 = 1 then
    for i = 0 to (n / 2) - 1 do
      edges := (i, i + (n / 2)) :: !edges
    done;
  Graph.of_edges ~n !edges

let random_regular ~n ~r ?(switches_per_edge = 30) ?(ensure_connected = true) rng =
  if r < 1 then invalid_arg "Gen.random_regular: r must be >= 1";
  if r >= n then invalid_arg "Gen.random_regular: need r < n";
  if n * r mod 2 = 1 then invalid_arg "Gen.random_regular: n * r must be even";
  let base = circulant_regular n r in
  let m = Graph.m base in
  let edge_arr = Array.of_list (Graph.edges base) in
  let tbl = Hashtbl.create (2 * m) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  Array.iteri (fun i (u, v) -> Hashtbl.replace tbl (key u v) i) edge_arr;
  let attempt_switch () =
    let i = Rng.int_below rng m in
    let j = Rng.int_below rng m in
    if i <> j then begin
      let a, b = edge_arr.(i) in
      let c, d = edge_arr.(j) in
      let c, d = if Rng.bool rng then (c, d) else (d, c) in
      if a <> c && a <> d && b <> c && b <> d
         && (not (Hashtbl.mem tbl (key a c)))
         && not (Hashtbl.mem tbl (key b d))
      then begin
        Hashtbl.remove tbl (key a b);
        Hashtbl.remove tbl (key c d);
        edge_arr.(i) <- (a, c);
        edge_arr.(j) <- (b, d);
        Hashtbl.replace tbl (key a c) i;
        Hashtbl.replace tbl (key b d) j
      end
    end
  in
  let run_switches count =
    for _ = 1 to count do
      attempt_switch ()
    done
  in
  run_switches (switches_per_edge * m);
  let build () = Graph.of_edge_array ~n (Array.copy edge_arr) in
  if not ensure_connected then build ()
  else begin
    let rec go tries g =
      if Props.is_connected g then g
      else if tries = 0 then failwith "Gen.random_regular: could not reach a connected sample"
      else begin
        run_switches (2 * m);
        go (tries - 1) (build ())
      end
    in
    go 100 (build ())
  end
