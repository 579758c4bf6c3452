module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset

let of_set g s =
  let n = Graph.n g in
  let card = Bitset.cardinal s in
  if card = 0 || card = n then invalid_arg "Conductance.of_set: set must be proper and non-empty";
  let vol = ref 0 and cut = ref 0 in
  Bitset.iter
    (fun u ->
      vol := !vol + Graph.degree g u;
      Graph.iter_neighbors g u (fun v -> if not (Bitset.mem s v) then incr cut))
    s;
  let total = Graph.total_degree g in
  let denom = min !vol (total - !vol) in
  if denom = 0 then infinity else float_of_int !cut /. float_of_int denom

let exact g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Conductance.exact: need at least 2 vertices";
  if n > 24 then invalid_arg "Conductance.exact: graph too large for enumeration";
  let total = Graph.total_degree g in
  let in_set = Array.make n false in
  let vol = ref 0 and cut = ref 0 in
  let best = ref infinity in
  (* Gray-code walk over all subsets: each step flips one vertex, and the
     cut/volume update is proportional to its degree. *)
  let flip u =
    let d = Graph.degree g u in
    if in_set.(u) then begin
      in_set.(u) <- false;
      vol := !vol - d;
      Graph.iter_neighbors g u (fun v -> if in_set.(v) then incr cut else decr cut)
    end
    else begin
      in_set.(u) <- true;
      vol := !vol + d;
      Graph.iter_neighbors g u (fun v -> if in_set.(v) then decr cut else incr cut)
    end
  in
  let subsets = 1 lsl n in
  for i = 1 to subsets - 1 do
    (* The bit flipped between Gray codes of i-1 and i is the lowest set
       bit of i. *)
    let bit =
      let rec pos k x = if x land 1 = 1 then k else pos (k + 1) (x lsr 1) in
      pos 0 i
    in
    flip bit;
    let denom = min !vol (total - !vol) in
    if denom > 0 then begin
      let phi = float_of_int !cut /. float_of_int denom in
      if phi < !best then best := phi
    end
  done;
  !best

let sweep_of_vector g v =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Conductance.sweep_of_vector: need at least 2 vertices";
  if Array.length v <> n then invalid_arg "Conductance.sweep_of_vector: length mismatch";
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare v.(a) v.(b)) order;
  let total = Graph.total_degree g in
  let in_set = Array.make n false in
  let vol = ref 0 and cut = ref 0 in
  let best = ref infinity in
  for k = 0 to n - 2 do
    let u = order.(k) in
    in_set.(u) <- true;
    vol := !vol + Graph.degree g u;
    Graph.iter_neighbors g u (fun w -> if in_set.(w) then decr cut else incr cut);
    let denom = min !vol (total - !vol) in
    if denom > 0 then begin
      let phi = float_of_int !cut /. float_of_int denom in
      if phi < !best then best := phi
    end
  done;
  !best
