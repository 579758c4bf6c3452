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

(* One pass over all vertices with one queue: [labels] doubles as the
   visited set, so the cost is O(n + m) however many components there
   are.  Components are disjoint, so each BFS restarts the queue at 0. *)
let components g =
  let n = Graph.n g in
  let labels = Array.make n (-1) in
  let queue = Array.make n 0 in
  let k = ref 0 in
  for src = 0 to n - 1 do
    if labels.(src) < 0 then begin
      let id = !k in
      labels.(src) <- id;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        Graph.iter_neighbors g u (fun v ->
            if labels.(v) < 0 then begin
              labels.(v) <- id;
              queue.(!tail) <- v;
              incr tail
            end)
      done;
      incr k
    end
  done;
  (labels, !k)

let require_connected fn g =
  if not (is_connected g) then invalid_arg (fn ^ ": graph is disconnected")

let eccentricity g u =
  require_connected "Props.eccentricity" g;
  Array.fold_left max 0 (bfs_distances g u)

let diameter g =
  require_connected "Props.diameter" g;
  let n = Graph.n g in
  let best = ref 0 in
  for u = 0 to n - 1 do
    let d = bfs_distances g u in
    Array.iter (fun x -> if x > !best then best := x) d
  done;
  !best

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

let diameter_lower_bound g =
  if Graph.n g <= 1 then 0
  else begin
    let far, _ = farthest_from g 0 in
    let _, d = farthest_from g far in
    d
  end

let is_bipartite g =
  let n = Graph.n g in
  let colour = Array.make n (-1) in
  let ok = ref true in
  let queue = Array.make (max n 1) 0 in
  for src = 0 to n - 1 do
    if !ok && colour.(src) < 0 then begin
      colour.(src) <- 0;
      let head = ref 0 and tail = ref 0 in
      queue.(!tail) <- src;
      incr tail;
      while !ok && !head < !tail do
        let u = queue.(!head) in
        incr head;
        Graph.iter_neighbors g u (fun v ->
            if colour.(v) < 0 then begin
              colour.(v) <- 1 - colour.(u);
              queue.(!tail) <- v;
              incr tail
            end
            else if colour.(v) = colour.(u) then ok := false)
      done
    end
  done;
  !ok

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to Graph.n g - 1 do
    let d = Graph.degree g u in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let average_degree g =
  if Graph.n g = 0 then 0.0 else 2.0 *. float_of_int (Graph.m g) /. float_of_int (Graph.n g)

let largest_component g =
  let n = Graph.n g in
  if n = 0 || is_connected g then g
  else begin
    let labels, k = components g in
    let sizes = Array.make k 0 in
    Array.iter (fun l -> sizes.(l) <- sizes.(l) + 1) labels;
    (* Smallest label wins ties, so the extraction is deterministic. *)
    let best = ref 0 in
    for l = 1 to k - 1 do
      if sizes.(l) > sizes.(!best) then best := l
    done;
    let best = !best in
    (* Dense renumbering in increasing original vertex order. *)
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for v = 0 to n - 1 do
      if labels.(v) = best then begin
        remap.(v) <- !next;
        incr next
      end
    done;
    let b = Builder.create ~n:sizes.(best) ~edges_hint:(Graph.m g) () in
    Graph.iter_edges g (fun u v ->
        if labels.(u) = best then Builder.add_edge b remap.(u) remap.(v));
    Builder.finish b
  end

let degree_tail_exponent ?(dmin = 2) g =
  let n = Graph.n g in
  (* CCDF log-log regression: for a tail exponent gamma,
     log P(D >= d) = -(gamma - 1) log d + c, and the CCDF is much less
     noisy than the raw histogram.  One (log d, log ccdf) point per
     distinct degree >= dmin; at least three points required. *)
  let hist = degree_histogram g in
  let above = List.filter (fun (d, _) -> d >= dmin) hist in
  if n = 0 || List.length above < 3 then None
  else begin
    let tail_total = List.fold_left (fun acc (_, c) -> acc + c) 0 above in
    let pts =
      (* Walk distinct degrees in increasing order, maintaining the
         count of vertices with degree >= d. *)
      let remaining = ref tail_total in
      List.map
        (fun (d, c) ->
          let ccdf = float_of_int !remaining /. float_of_int n in
          remaining := !remaining - c;
          (log (float_of_int d), log ccdf))
        above
    in
    let k = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    let denom = (k *. sxx) -. (sx *. sx) in
    if denom <= 0.0 then None
    else begin
      let slope = ((k *. sxy) -. (sx *. sy)) /. denom in
      (* slope = -(gamma - 1) *)
      Some (1.0 -. slope)
    end
  end
