(* The queue BFS that [Props] ran before its level-synchronous search,
   kept as the reference the search is held to.  One FIFO queue, one
   distance array, every neighbour of every reached vertex scanned
   through [Graph.iter_neighbors]: no direction switch and no code
   shared with [Props] beyond the graph accessors. *)

module Graph = Cobra_graph.Graph

let bfs_distances g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  dist

let is_connected g =
  let n = Graph.n g in
  n <= 1 || Array.for_all (fun d -> d >= 0) (bfs_distances g 0)

let eccentricity g u =
  if not (is_connected g) then invalid_arg "Props.eccentricity: graph is disconnected";
  Array.fold_left max 0 (bfs_distances g u)

(* The smallest vertex at the largest finite distance from [u], and that
   distance ([u] itself when nothing else is reachable). *)
let farthest_from g u =
  let d = bfs_distances g u in
  let best = ref u and bestd = ref 0 in
  Array.iteri
    (fun v x ->
      if x > !bestd then begin
        best := v;
        bestd := x
      end)
    d;
  (!best, !bestd)

let double_sweep g = farthest_from g (fst (farthest_from g 0))
