(* The per-vertex call chain the keyed step kernels of [Process] ran
   before they computed their draws inline, kept as the reference the
   kernels are held to.  One [Keyed] cursor, repositioned per vertex
   with [Keyed.position]; the fan-out drawn with [Keyed.bernoulli]; each
   pick drawn with [Keyed.bool] (lazy) and [Keyed.int_below] of the
   degree, and read through the checked [Graph.neighbor]; every set
   written through [Bitset.add] and read through [Bitset.mem].  Serial,
   every pick drawn, and no code shared with [Process] beyond the graph
   and set accessors.  A pick that needs a neighbour of an isolated
   vertex raises from [Keyed.int_below]. *)

module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Keyed = Cobra_prng.Keyed
module Process = Cobra_core.Process

let fanout k = function
  | Process.Fixed b -> b
  | Process.Bernoulli rho -> if Keyed.bernoulli k rho then 2 else 1

let pick g k ~lazy_ u =
  if lazy_ && Keyed.bool k then u else Graph.neighbor g u (Keyed.int_below k (Graph.degree g u))

(* [next] := C_{t+1}; returns the transmissions, one per pick. *)
let cobra_step g ~master ~round ~branching ~lazy_ ~current ~next =
  let k = Keyed.create ~master in
  Bitset.clear next;
  let tx = ref 0 in
  Bitset.iter
    (fun u ->
      Keyed.position k ~round ~vertex:u;
      let f = fanout k branching in
      for _ = 1 to f do
        Bitset.add next (pick g k ~lazy_ u)
      done;
      tx := !tx + f)
    current;
  !tx

let infected g k ~branching ~lazy_ ~current u =
  let f = fanout k branching in
  let hit = ref false in
  for _ = 1 to f do
    if Bitset.mem current (pick g k ~lazy_ u) then hit := true
  done;
  !hit

(* [source] < 0 is SIS: no vertex is held infected. *)
let scan_step g ~master ~round ~branching ~lazy_ ~source ~current ~next =
  let k = Keyed.create ~master in
  Bitset.clear next;
  for u = 0 to Graph.n g - 1 do
    if u <> source then begin
      Keyed.position k ~round ~vertex:u;
      if infected g k ~branching ~lazy_ ~current u then Bitset.add next u
    end
  done;
  if source >= 0 then Bitset.add next source

let bips_step g ~master ~round ~branching ~lazy_ ~source ~current ~next =
  scan_step g ~master ~round ~branching ~lazy_ ~source ~current ~next

let sis_step g ~master ~round ~branching ~lazy_ ~current ~next =
  scan_step g ~master ~round ~branching ~lazy_ ~source:(-1) ~current ~next

(* Floyd's sample of [b] distinct neighbour indices per active vertex,
   or all neighbours when there are at most [b]. *)
let without_replacement_step g ~master ~round ~b ~current ~next =
  let k = Keyed.create ~master in
  Bitset.clear next;
  let tx = ref 0 in
  let chosen = Array.make b 0 in
  Bitset.iter
    (fun u ->
      let d = Graph.degree g u in
      if d <= b then begin
        Graph.iter_neighbors g u (Bitset.add next);
        tx := !tx + d
      end
      else begin
        Keyed.position k ~round ~vertex:u;
        for i = 0 to b - 1 do
          let j = d - b + i in
          let r = Keyed.int_below k (j + 1) in
          chosen.(i) <- (if Array.exists (( = ) r) (Array.sub chosen 0 i) then j else r)
        done;
        Array.iter (fun i -> Bitset.add next (Graph.neighbor g u i)) chosen;
        tx := !tx + b
      end)
    current;
  !tx
