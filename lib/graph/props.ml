module A1 = Bigarray.Array1

(* Breadth-first search, one level at a time over the int32 CSR.  The
   queue holds every vertex reached, in level order, so each level is one
   contiguous segment of it, and [level.{v}] is v's distance, or -1 while
   v is unvisited: the visited set, the frontier test and the source of
   bfs_distances' result in one array.  A level runs top-down (each frontier vertex
   scans its neighbours) or bottom-up (each unvisited vertex scans its
   neighbours until one is at the frontier's distance).  Either way the
   level's vertex set is the same, so every distance, reach and depth
   below is independent of the direction chosen.

   The rule, after Beamer, Asanovic and Patterson (SC 2012): bottom-up
   only when the frontier's degree sum exceeds half the unvisited
   vertices' and the frontier holds more than n/24 vertices.  The first
   caps a bottom-up level's edge checks at twice the top-down level's;
   the second pays for its O(n) pass over [level].  Top-down levels do
   no work beyond their own frontier's edges, so a search is O(n + m)
   even on a path.

   Every level reads [level] unchecked: a graph's adjacency entries lie
   in [0, n) by construction (Int_sort.assemble_csr) or by the check
   Cgr.read_mmap runs when it opens a file.

   [queue] and [level] are int32 bigarrays (a distance is below n, which
   fits, as every CSR index does): 8 bytes a vertex instead of 16, and
   off the OCaml heap, so a search's scratch is not garbage that the
   major collector must reach before it frees it. *)
type scratch = { queue : Graph.int32_array; level : Graph.int32_array }

let scratch n =
  let buf () = A1.create Bigarray.int32 Bigarray.c_layout n in
  { queue = buf (); level = buf () }

(* A search reaches [reached] vertices; its deepest level is at distance
   [depth], and [far] is that level's smallest vertex: the tie-break
   that makes the double sweep a function of the distances alone. *)
type sweep = { reached : int; depth : int; far : int }

let sweep { queue; level } g src =
  let n = Graph.n g in
  if src < 0 || src >= n then
    invalid_arg (Printf.sprintf "Props: source vertex %d outside [0, %d)" src n);
  let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
  let[@inline] offset u = Int32.to_int (A1.unsafe_get offsets u) in
  A1.fill level (-1l);
  A1.set level src 0l;
  A1.set queue 0 (Int32.of_int src);
  let tail = ref 1 in
  (* The frontier is [queue.{lo .. hi - 1}], at distance [depth]; [seen]
     is the degree sum of the levels before it.  A top-down level reads
     its vertices' degrees as it goes, so only a frontier that passes
     the size test has its degree sum taken up front. *)
  let total = 2 * Graph.m g in
  let lo = ref 0 and hi = ref 1 and depth = ref 0 and seen = ref 0 and continue = ref true in
  while !continue do
    let d = !depth + 1 in
    let large = 24 * (!hi - !lo) > n in
    let frontier_deg = ref 0 in
    if large then
      for i = !lo to !hi - 1 do
        let u = Int32.to_int (A1.unsafe_get queue i) in
        frontier_deg := !frontier_deg + offset (u + 1) - offset u
      done;
    if large && 2 * !frontier_deg > total - !seen - !frontier_deg then begin
      seen := !seen + !frontier_deg;
      let at_depth = Int32.of_int !depth and mark = Int32.of_int d in
      for v = 0 to n - 1 do
        if A1.unsafe_get level v < 0l then begin
          let i = ref (offset v) and stop = offset (v + 1) in
          while
            !i < stop
            && A1.unsafe_get level (Int32.to_int (A1.unsafe_get adj !i)) <> at_depth
          do
            incr i
          done;
          if !i < stop then begin
            A1.unsafe_set level v mark;
            A1.unsafe_set queue !tail (Int32.of_int v);
            incr tail
          end
        end
      done
    end
    else begin
      let mark = Int32.of_int d in
      for i = !lo to !hi - 1 do
        let u = Int32.to_int (A1.unsafe_get queue i) in
        let first = offset u and stop = offset (u + 1) in
        seen := !seen + stop - first;
        for j = first to stop - 1 do
          let v = Int32.to_int (A1.unsafe_get adj j) in
          if A1.unsafe_get level v < 0l then begin
            A1.unsafe_set level v mark;
            A1.unsafe_set queue !tail (Int32.of_int v);
            incr tail
          end
        done
      done
    end;
    if !tail = !hi then continue := false
    else begin
      lo := !hi;
      hi := !tail;
      depth := d
    end
  done;
  let far = ref (Int32.to_int (A1.unsafe_get queue !lo)) in
  for i = !lo + 1 to !tail - 1 do
    far := Int.min !far (Int32.to_int (A1.unsafe_get queue i))
  done;
  { reached = !tail; depth = !depth; far = !far }

let bfs_distances g src =
  let n = Graph.n g in
  let s = scratch n in
  ignore (sweep s g src : sweep);
  let dist = Array.make n 0 in
  for v = 0 to n - 1 do
    Array.unsafe_set dist v (Int32.to_int (A1.unsafe_get s.level v))
  done;
  dist

let is_connected g =
  let n = Graph.n g in
  n <= 1 || (sweep (scratch n) g 0).reached = n

let connected_sweep fn s g u =
  let r = sweep s g u in
  if r.reached < Graph.n g then invalid_arg (fn ^ ": graph is disconnected");
  r.depth

let eccentricity g u = connected_sweep "Props.eccentricity" (scratch (Graph.n g)) g u

let diameter g =
  let s = scratch (Graph.n g) in
  let best = ref 0 in
  for u = 0 to Graph.n g - 1 do
    best := Int.max !best (connected_sweep "Props.diameter" s g u)
  done;
  !best

let double_sweep g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Props.double_sweep: empty graph";
  let s = scratch n in
  let r = sweep s g (sweep s g 0).far in
  (r.far, r.depth)

let diameter_lower_bound g = if Graph.n g = 0 then 0 else snd (double_sweep g)

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
