module Rng = Cobra_prng.Rng

let cartesian_product g h =
  let ng = Graph.n g and nh = Graph.n h in
  if ng = 0 || nh = 0 then invalid_arg "Gen_extra.cartesian_product: empty factor";
  let encode u v = (u * nh) + v in
  let b =
    Builder.create ~n:(ng * nh) ~edges_hint:((ng * Graph.m h) + (nh * Graph.m g)) ()
  in
  for u = 0 to ng - 1 do
    Graph.iter_edges h (fun v1 v2 -> Builder.add_edge b (encode u v1) (encode u v2))
  done;
  for v = 0 to nh - 1 do
    Graph.iter_edges g (fun u1 u2 -> Builder.add_edge b (encode u1 v) (encode u2 v))
  done;
  Builder.finish b

let cycle_plus_matching ~n rng =
  if n < 6 || n mod 2 = 1 then
    invalid_arg "Gen_extra.cycle_plus_matching: need even n >= 6";
  (* Sample a perfect matching avoiding cycle edges and self-pairs by
     shuffling and pairing consecutive entries, retrying locally: the
     matching pairs entries 2i and 2i + 1 of the accepted shuffle. *)
  let rec sample attempts =
    if attempts = 0 then
      failwith "Gen_extra.cycle_plus_matching: failed to sample a valid matching"
    else begin
      let perm = Array.init n (fun i -> i) in
      Rng.shuffle_in_place rng perm;
      let ok = ref true in
      for i = 0 to (n / 2) - 1 do
        let a = perm.(2 * i) and b = perm.((2 * i) + 1) in
        if (a + 1) mod n = b || (b + 1) mod n = a then ok := false
      done;
      if !ok then perm else sample (attempts - 1)
    end
  in
  let perm = sample 1000 in
  let b = Builder.create ~n ~edges_hint:(n + (n / 2)) () in
  for i = 0 to n - 1 do
    Builder.add_edge b i ((i + 1) mod n)
  done;
  for i = 0 to (n / 2) - 1 do
    Builder.add_edge b perm.(2 * i) perm.((2 * i) + 1)
  done;
  Builder.finish b

let watts_strogatz ~n ~k ~beta rng =
  if k < 2 || k mod 2 = 1 || k >= n then
    invalid_arg "Gen_extra.watts_strogatz: need even k with 2 <= k < n";
  if not (beta >= 0.0 && beta <= 1.0) then
    invalid_arg "Gen_extra.watts_strogatz: beta must be in [0, 1]";
  (* Membership table so rewires keep the graph simple. *)
  let tbl = Hashtbl.create (n * k) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let add u v = Hashtbl.replace tbl (key u v) () in
  let mem u v = Hashtbl.mem tbl (key u v) in
  let remove u v = Hashtbl.remove tbl (key u v) in
  for i = 0 to n - 1 do
    for j = 1 to k / 2 do
      add i ((i + j) mod n)
    done
  done;
  (* A sampled candidate that collides with an existing edge (or is i
     itself) must be re-drawn, not silently abandoned — abandoning it
     under-rewires relative to the standard model, and the shortfall
     grows with beta and k.  Retries are bounded: if every draw in the
     budget collides (essentially impossible unless the vertex is
     adjacent to almost everything), the lattice edge is kept, a
     residual bias towards the ring that is negligible for k << n. *)
  let max_candidate_tries = 32 in
  for i = 0 to n - 1 do
    for j = 1 to k / 2 do
      let partner = (i + j) mod n in
      if Rng.bernoulli rng beta && mem i partner then begin
        let rec rewire tries =
          if tries > 0 then begin
            let candidate = Rng.int_below rng n in
            if candidate <> i && not (mem i candidate) then begin
              remove i partner;
              add i candidate
            end
            else rewire (tries - 1)
          end
        in
        rewire max_candidate_tries
      end
    done
  done;
  let b = Builder.create ~n ~edges_hint:(Hashtbl.length tbl) () in
  Hashtbl.iter (fun key () -> Builder.add_edge b (key / n) (key mod n)) tbl;
  Builder.finish b

let barabasi_albert ~n ~m rng =
  (* m >= n is the one genuinely impossible prescription: every vertex
     after the seed clique sees at least m + 1 distinct earlier vertices,
     so with 1 <= m < n each attachment round below always terminates. *)
  if m < 1 || m >= n then invalid_arg "Gen_extra.barabasi_albert: need 1 <= m < n";
  (* Degree-proportional sampling via the repeated-endpoints trick: every
     edge endpoint lives in a growable array (amortised O(1) appends —
     the old list-rebuild-per-vertex was O(n·m) overall) and a uniform
     slot is degree-biased for free. *)
  let total_edges = (m * (m + 1) / 2) + (m * (n - m - 1)) in
  let endpoints = ref (Array.make (max 16 (2 * total_edges)) 0) in
  let count = ref 0 in
  let builder = Builder.create ~n ~edges_hint:total_edges () in
  let push x =
    if !count = Array.length !endpoints then begin
      let bigger = Array.make (2 * Array.length !endpoints) 0 in
      Array.blit !endpoints 0 bigger 0 !count;
      endpoints := bigger
    end;
    !endpoints.(!count) <- x;
    incr count
  in
  let add_edge u v =
    Builder.add_edge builder u v;
    push u;
    push v
  in
  for u = 0 to m do
    for v = u + 1 to m do
      add_edge u v
    done
  done;
  let chosen = Array.make m (-1) in
  for v = m + 1 to n - 1 do
    (* Exactly m distinct targets: a draw that repeats an already-chosen
       target or hits v itself is re-drawn (the old bounded guard gave
       up and silently attached fewer than m edges on dense prefixes).
       Termination is sure: at least m + 1 distinct candidates exist and
       each holds at least one endpoint slot. *)
    let k = ref 0 in
    while !k < m do
      let target = !endpoints.(Rng.int_below rng !count) in
      if target <> v then begin
        let dup = ref false in
        for i = 0 to !k - 1 do
          if chosen.(i) = target then dup := true
        done;
        if not !dup then begin
          chosen.(!k) <- target;
          incr k
        end
      end
    done;
    for i = 0 to m - 1 do
      add_edge v chosen.(i)
    done
  done;
  Builder.finish builder

let cube_connected_cycles d =
  if d < 3 then invalid_arg "Gen_extra.cube_connected_cycles: need d >= 3";
  if d > 20 then invalid_arg "Gen_extra.cube_connected_cycles: dimension too large";
  let corners = 1 lsl d in
  let n = d * corners in
  let id corner pos = (corner * d) + pos in
  (* n ring edges and n / 2 hypercube edges. *)
  let b = Builder.create ~n ~edges_hint:(n + (n / 2)) () in
  for corner = 0 to corners - 1 do
    for pos = 0 to d - 1 do
      (* Cycle edge inside the corner's ring. *)
      Builder.add_edge b (id corner pos) (id corner ((pos + 1) mod d));
      (* Hypercube edge along dimension [pos]. *)
      let other = corner lxor (1 lsl pos) in
      if other > corner then Builder.add_edge b (id corner pos) (id other pos)
    done
  done;
  Builder.finish b

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Gen_extra.caterpillar: need spine >= 1, legs >= 0";
  let n = spine * (1 + legs) in
  let b = Builder.create ~n ~edges_hint:(n - 1) () in
  for i = 0 to spine - 2 do
    Builder.add_edge b i (i + 1)
  done;
  for i = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      Builder.add_edge b i (spine + (i * legs) + l)
    done
  done;
  Builder.finish b

let broom ~handle ~bristles =
  if handle < 1 || bristles < 0 then
    invalid_arg "Gen_extra.broom: need handle >= 1, bristles >= 0";
  let n = handle + bristles in
  let b = Builder.create ~n ~edges_hint:(n - 1) () in
  for i = 0 to handle - 2 do
    Builder.add_edge b i (i + 1)
  done;
  for k = 0 to bristles - 1 do
    Builder.add_edge b (handle - 1) (handle + k)
  done;
  Builder.finish b
