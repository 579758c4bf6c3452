(* Every generator adds its edges to one [Builder] sized to the exact
   edge count where the generator knows it, so no graph allocates a
   tuple per edge; [Builder.finish] assembles the CSR with the same
   [Int_sort.assemble_csr] as [Graph.of_edge_array], so the same edge
   multiset gives the same graph. *)

let add_clique b ~base ~size =
  for u = base to base + size - 1 do
    for v = u + 1 to base + size - 1 do
      Builder.add_edge b u v
    done
  done

let complete n =
  if n < 1 then invalid_arg "Gen.complete: n must be >= 1";
  let b = Builder.create ~n ~edges_hint:(n * (n - 1) / 2) () in
  add_clique b ~base:0 ~size:n;
  Builder.finish b

let path n =
  if n < 1 then invalid_arg "Gen.path: n must be >= 1";
  let b = Builder.create ~n ~edges_hint:(n - 1) () in
  for i = 0 to n - 2 do
    Builder.add_edge b i (i + 1)
  done;
  Builder.finish b

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  let b = Builder.create ~n ~edges_hint:n () in
  for i = 0 to n - 1 do
    Builder.add_edge b i ((i + 1) mod n)
  done;
  Builder.finish b

let star n =
  if n < 2 then invalid_arg "Gen.star: n must be >= 2";
  let b = Builder.create ~n ~edges_hint:(n - 1) () in
  for i = 1 to n - 1 do
    Builder.add_edge b 0 i
  done;
  Builder.finish b

let wheel n =
  if n < 4 then invalid_arg "Gen.wheel: n must be >= 4";
  let b = Builder.create ~n ~edges_hint:(2 * (n - 1)) () in
  for i = 0 to n - 2 do
    Builder.add_edge b (1 + i) (1 + ((i + 1) mod (n - 1)));
    Builder.add_edge b 0 (i + 1)
  done;
  Builder.finish b

let complete_bipartite a b =
  if a < 1 || b < 1 then invalid_arg "Gen.complete_bipartite: sides must be >= 1";
  let bld = Builder.create ~n:(a + b) ~edges_hint:(a * b) () in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      Builder.add_edge bld u v
    done
  done;
  Builder.finish bld

let binary_tree n =
  if n < 1 then invalid_arg "Gen.binary_tree: n must be >= 1";
  let b = Builder.create ~n ~edges_hint:(n - 1) () in
  for i = 0 to n - 1 do
    if (2 * i) + 1 < n then Builder.add_edge b i ((2 * i) + 1);
    if (2 * i) + 2 < n then Builder.add_edge b i ((2 * i) + 2)
  done;
  Builder.finish b

(* Mixed-radix lattice coding shared by [grid] and [torus]: vertex id
   encodes coordinates with dimension 0 as the most significant digit. *)
let lattice ~dims ~wrap =
  if dims = [] then invalid_arg "Gen.lattice: empty dimension list";
  List.iter (fun d -> if d < 1 then invalid_arg "Gen.lattice: dimensions must be >= 1") dims;
  let dims = Array.of_list dims in
  let k = Array.length dims in
  let n = Array.fold_left ( * ) 1 dims in
  let strides = Array.make k 1 in
  for i = k - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  (* Dimension i has d - 1 steps on each of its n / d lines, plus the
     wraparound when it is on and d >= 3. *)
  let m =
    Array.fold_left
      (fun acc d -> acc + (n / d * (d - 1)) + if wrap && d >= 3 then n / d else 0)
      0 dims
  in
  let b = Builder.create ~n ~edges_hint:m () in
  let coord = Array.make k 0 in
  for v = 0 to n - 1 do
    let rest = ref v in
    for i = 0 to k - 1 do
      coord.(i) <- !rest / strides.(i);
      rest := !rest mod strides.(i)
    done;
    for i = 0 to k - 1 do
      if coord.(i) + 1 < dims.(i) then Builder.add_edge b v (v + strides.(i))
      else if wrap && dims.(i) >= 3 then
        (* Wraparound edge back to coordinate 0 in dimension i. *)
        Builder.add_edge b v (v - ((dims.(i) - 1) * strides.(i)))
    done
  done;
  Builder.finish b

let grid ~dims = lattice ~dims ~wrap:false
let torus ~dims = lattice ~dims ~wrap:true

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: dimension must be >= 1";
  if d > 24 then invalid_arg "Gen.hypercube: dimension too large";
  let n = 1 lsl d in
  let b = Builder.create ~n ~edges_hint:(n / 2 * d) () in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let u = v lxor (1 lsl bit) in
      if u > v then Builder.add_edge b v u
    done
  done;
  Builder.finish b

let lollipop ~clique ~tail =
  if clique < 2 then invalid_arg "Gen.lollipop: clique must be >= 2";
  if tail < 1 then invalid_arg "Gen.lollipop: tail must be >= 1";
  let n = clique + tail in
  let b = Builder.create ~n ~edges_hint:((clique * (clique - 1) / 2) + tail) () in
  add_clique b ~base:0 ~size:clique;
  (* Attach the path at clique vertex 0. *)
  Builder.add_edge b 0 clique;
  for i = clique to n - 2 do
    Builder.add_edge b i (i + 1)
  done;
  Builder.finish b

let barbell ~clique ~bridge =
  if clique < 2 then invalid_arg "Gen.barbell: clique must be >= 2";
  if bridge < 0 then invalid_arg "Gen.barbell: bridge must be >= 0";
  let n = (2 * clique) + bridge in
  let b = Builder.create ~n ~edges_hint:((clique * (clique - 1)) + bridge + 1) () in
  add_clique b ~base:0 ~size:clique;
  add_clique b ~base:clique ~size:clique;
  (* Bridge path between vertex 0 of the first clique and vertex [clique]
     of the second; bridge vertices are 2*clique .. n-1. *)
  if bridge = 0 then Builder.add_edge b 0 clique
  else begin
    Builder.add_edge b 0 (2 * clique);
    for i = 0 to bridge - 2 do
      Builder.add_edge b ((2 * clique) + i) ((2 * clique) + i + 1)
    done;
    Builder.add_edge b ((2 * clique) + bridge - 1) clique
  end;
  Builder.finish b

let ladder k =
  if k < 2 then invalid_arg "Gen.ladder: k must be >= 2";
  grid ~dims:[ 2; k ]

let petersen () =
  (* Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5. *)
  let b = Builder.create ~n:10 ~edges_hint:15 () in
  for i = 0 to 4 do
    Builder.add_edge b i ((i + 1) mod 5);
    Builder.add_edge b (5 + i) (5 + ((i + 2) mod 5));
    Builder.add_edge b i (i + 5)
  done;
  Builder.finish b

let erdos_renyi_gnp ~n ~p rng =
  if n < 1 then invalid_arg "Gen.erdos_renyi_gnp: n must be >= 1";
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.erdos_renyi_gnp: p must be in [0, 1]";
  if p >= 1.0 then complete n
  else begin
    (* Batagelj–Brandes skip sampling: walk the pair sequence with
       geometric jumps so the cost is O(n + m), not O(n^2).  The edge
       count is random; the hint is its mean. *)
    let b =
      Builder.create ~n ~edges_hint:(int_of_float (p *. float_of_int (n * (n - 1) / 2))) ()
    in
    let log1mp = log (1.0 -. p) in
    if p > 0.0 then begin
      let v = ref 1 and w = ref (-1) in
      while !v < n do
        let r = Cobra_prng.Rng.float01 rng in
        let skip = int_of_float (floor (log (1.0 -. r) /. log1mp)) in
        w := !w + 1 + skip;
        while !w >= !v && !v < n do
          w := !w - !v;
          incr v
        done;
        if !v < n then Builder.add_edge b !w !v
      done
    end;
    Builder.finish b
  end

let connected_gnp ~n ~p ?(max_tries = 1000) rng =
  let rec go tries =
    if tries = 0 then failwith "Gen.connected_gnp: exceeded max_tries without a connected sample";
    let g = erdos_renyi_gnp ~n ~p rng in
    if Props.is_connected g then g else go (tries - 1)
  in
  go max_tries

let random_tree ~n rng =
  if n < 1 then invalid_arg "Gen.random_tree: n must be >= 1";
  if n <= 2 then path n
  else begin
    (* Decode a uniform Pruefer sequence in O(n) with the pointer-scan
       technique: maintain the smallest index that is still a leaf. *)
    let seq = Array.init (n - 2) (fun _ -> Cobra_prng.Rng.int_below rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    let b = Builder.create ~n ~edges_hint:(n - 1) () in
    let ptr = ref 0 in
    while deg.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iter
      (fun v ->
        Builder.add_edge b !leaf v;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 && v < !ptr then leaf := v
        else begin
          incr ptr;
          while deg.(!ptr) <> 1 do
            incr ptr
          done;
          leaf := !ptr
        end)
      seq;
    Builder.add_edge b !leaf (n - 1);
    Builder.finish b
  end

(* --- Random regular graphs by double-edge-switch randomisation --- *)

(* The switch chain's state.  Edge [e] is the record [recs.(4e) ..
   recs.(4e + 3)] = [(u, v, su, sv)]: its endpoints, the index in
   [slots] of v's entry in u's slice and of u's entry in v's.
   [slots.(u * r .. u * r + r - 1)] holds u's neighbours.  A switch
   keeps every degree at exactly r, so the slot table never overflows;
   it rewrites the four slots its records name, and the membership test
   is a scan of r contiguous ints: no hashing, no search for the slot
   to rewrite, and no tuple or bucket allocated per switch. *)
let[@inline] slot_mem (slots : int array) ~r u (v : int) =
  let lo = u * r in
  let i = ref lo in
  while !i < lo + r && Array.unsafe_get slots !i <> v do
    incr i
  done;
  !i < lo + r

(* [count] double-edge switches.  Each draws two edge indices i and j
   and, when they differ, an orientation for edge j, so both rewirings
   (a-c, b-d) and (a-d, b-c) of a-b and c-d are reachable; the coin is
   the 0/1 offset of c in j's record.  A switch is taken only when the
   result stays simple. *)
let run_switches rng ~slots ~r ~(recs : int array) count =
  let m = Array.length recs / 4 in
  for _ = 1 to count do
    let i = 4 * Cobra_prng.Rng.int_below rng m in
    let j = 4 * Cobra_prng.Rng.int_below rng m in
    if i <> j then begin
      let a = recs.(i) and b = recs.(i + 1) in
      let o = Bool.to_int (not (Cobra_prng.Rng.bool rng)) in
      let c = recs.(j + o) and d = recs.(j + 1 - o) in
      if a <> c && a <> d && b <> c && b <> d
         && (not (slot_mem slots ~r a c))
         && not (slot_mem slots ~r b d)
      then begin
        (* The slots holding b in a's slice, a in b's, d in c's and c
           in d's. *)
        let sa = recs.(i + 2) and sb = recs.(i + 3) in
        let sc = recs.(j + 2 + o) and sd = recs.(j + 3 - o) in
        slots.(sa) <- c;
        slots.(sb) <- d;
        slots.(sc) <- a;
        slots.(sd) <- b;
        (* Edge i becomes (a, c) and edge j (b, d). *)
        recs.(i + 1) <- c;
        recs.(i + 3) <- sc;
        recs.(j) <- b;
        recs.(j + 1) <- d;
        recs.(j + 2) <- sb;
        recs.(j + 3) <- sd
      end
    end
  done

(* The circulant start: u is adjacent to u ± 1 .. u ± r/2 (mod n), and
   to u + n/2 when r is odd.  [offset] lists those shifts in increasing
   order; u's neighbours below it are the shifts that wrap past n, so
   its sorted slice is the wrapped shifts, then the rest.  The records
   are written in [Graph.edges] order (u ascending, then v > u
   ascending), the order the switches index; a vertex's lower
   neighbours fill the front of its slice in the order the loop meets
   them, which [lower] counts. *)
let circulant_start ~n ~r =
  let h = r / 2 in
  let offset t = if t < h then t + 1 else if t < r - h then n / 2 else n - r + t in
  let slots = Array.make (n * r) 0 and recs = Array.make (2 * n * r) 0 in
  let lower = Array.make n 0 in
  let e = ref 0 in
  for u = 0 to n - 1 do
    let base = u * r in
    let p = ref 0 in
    while !p < r && u + offset !p < n do
      incr p
    done;
    let p = !p in
    for t = p to r - 1 do
      slots.(base + t - p) <- u + offset t - n
    done;
    for t = 0 to p - 1 do
      let k = base + r - p + t and v = u + offset t in
      slots.(k) <- v;
      recs.(!e) <- u;
      recs.(!e + 1) <- v;
      recs.(!e + 2) <- k;
      recs.(!e + 3) <- (v * r) + lower.(v);
      lower.(v) <- lower.(v) + 1;
      e := !e + 4
    done
  done;
  (slots, recs)

let random_regular ~n ~r ?(switches_per_edge = 30) ?(ensure_connected = true) rng =
  if r < 1 then invalid_arg "Gen.random_regular: r must be >= 1";
  if r >= n then invalid_arg "Gen.random_regular: need r < n";
  if n * r mod 2 = 1 then invalid_arg "Gen.random_regular: n * r must be even";
  let m = n * r / 2 in
  let slots, recs = circulant_start ~n ~r in
  let run_switches = run_switches rng ~slots ~r ~recs in
  run_switches (switches_per_edge * m);
  let build () =
    let b = Builder.create ~n ~edges_hint:m () in
    for e = 0 to m - 1 do
      Builder.add_edge b recs.(4 * e) recs.((4 * e) + 1)
    done;
    Builder.finish b
  in
  if not ensure_connected then build ()
  else begin
    let rec go tries g =
      if Props.is_connected g then g
      else if tries = 0 then
        failwith "Gen.random_regular: could not reach a connected sample"
      else begin
        run_switches (2 * m);
        go (tries - 1) (build ())
      end
    in
    go 100 (build ())
  end

(* --- Family registry for CLIs and the experiment harness --- *)

let round_to_even n = if n mod 2 = 0 then n else n + 1

let nearest_power_of_two n =
  let rec go d = if 1 lsl (d + 1) - n < n - (1 lsl d) then go (d + 1) else d in
  if n <= 2 then 1 else go 1

let int_root n k =
  (* Largest s with s^k <= n, then round to the closer of s, s+1. *)
  let powk s = int_of_float (Float.round (float_of_int s ** float_of_int k)) in
  let s = int_of_float (float_of_int n ** (1.0 /. float_of_int k)) in
  let s = max 2 s in
  if abs (powk (s + 1) - n) < abs (powk s - n) then s + 1 else s

(* Parameterized family strings: "family:param[:param]".  These carry
   their model parameters in the name so experiment sweeps and the
   server's job keys can select e.g. "chunglu:2.5" without a second
   configuration channel. *)

let float_param ~family s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> x
  | _ -> invalid_arg (Printf.sprintf "Gen.by_name: bad parameter %S for %s" s family)

let int_param ~family s =
  match int_of_string_opt s with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Gen.by_name: bad parameter %S for %s" s family)

let by_parameterized_name ~family ~params ~n rng =
  (* Chung–Lu and configuration-model samples may be disconnected; the
     experiments only make sense on a connected piece, so the registry
     hands out the giant component (the realised size is Graph.n of the
     result, as with the dimension-rounding families). *)
  let giant = Props.largest_component in
  match (family, params) with
  | "chunglu", ([ _ ] | [ _; _ ]) ->
      let exponent = float_param ~family (List.nth params 0) in
      let avg_degree =
        match params with [ _; a ] -> float_param ~family a | _ -> 8.0
      in
      giant (Chung_lu.power_law ~n:(max 4 n) ~exponent ~avg_degree rng)
  | "config", ([ _ ] | [ _; _ ]) ->
      let exponent = float_param ~family (List.nth params 0) in
      let dmin = match params with [ _; d ] -> max 1 (int_param ~family d) | _ -> 2 in
      let n = max 4 n in
      let degrees = Chung_lu.power_law_degrees ~n ~exponent ~dmin rng in
      giant (Chung_lu.configuration_model ~degrees rng)
  | "ba", [ m_str ] ->
      let m = int_param ~family m_str in
      if m < 1 then invalid_arg (Printf.sprintf "Gen.by_name: ba needs m >= 1, got %d" m);
      Gen_extra.barabasi_albert ~n:(max (m + 2) n) ~m rng
  | _ ->
      invalid_arg
        (Printf.sprintf "Gen.by_name: unknown family %S"
           (String.concat ":" (family :: params)))

let by_name_plain name ~n rng =
  match name with
  | "complete" -> complete (max 2 n)
  | "path" -> path (max 2 n)
  | "cycle" -> cycle (max 3 n)
  | "star" -> star (max 2 n)
  | "wheel" -> wheel (max 4 n)
  | "binary-tree" -> binary_tree (max 3 n)
  | "grid2d" ->
      let s = int_root (max 4 n) 2 in
      grid ~dims:[ s; s ]
  | "grid3d" ->
      let s = int_root (max 8 n) 3 in
      grid ~dims:[ s; s; s ]
  | "torus2d" ->
      let s = max 3 (int_root (max 9 n) 2) in
      torus ~dims:[ s; s ]
  | "torus3d" ->
      let s = max 3 (int_root (max 27 n) 3) in
      torus ~dims:[ s; s; s ]
  | "hypercube" -> hypercube (max 2 (nearest_power_of_two n))
  | "lollipop" ->
      let clique = max 2 (n / 2) in
      lollipop ~clique ~tail:(max 1 (n - clique))
  | "barbell" ->
      let clique = max 2 (2 * n / 5) in
      barbell ~clique ~bridge:(max 0 (n - (2 * clique)))
  | "ladder" -> ladder (max 2 (n / 2))
  | "petersen" -> petersen ()
  | "random-tree" -> random_tree ~n:(max 2 n) rng
  | "gnp" ->
      let n = max 4 n in
      let p = 2.0 *. log (float_of_int n) /. float_of_int n in
      connected_gnp ~n ~p rng
  | "cycle-matching" -> Gen_extra.cycle_plus_matching ~n:(max 6 (round_to_even n)) rng
  | "small-world" ->
      let n = max 8 n in
      Gen_extra.watts_strogatz ~n ~k:4 ~beta:0.2 rng
  | "pref-attach" -> Gen_extra.barabasi_albert ~n:(max 5 n) ~m:2 rng
  | "ccc" ->
      let d =
        (* Pick d with d * 2^d closest to n. *)
        let rec go d = if (d + 1) * (1 lsl (d + 1)) - n < n - (d * (1 lsl d)) then go (d + 1) else d in
        max 3 (go 3)
      in
      Gen_extra.cube_connected_cycles d
  | "broom" ->
      let handle = max 2 (n / 2) in
      Gen_extra.broom ~handle ~bristles:(max 1 (n - handle))
  | "regular-3" -> random_regular ~n:(round_to_even (max 4 n)) ~r:3 rng
  | "regular-4" -> random_regular ~n:(max 5 n) ~r:4 rng
  | "regular-8" -> random_regular ~n:(max 9 n) ~r:8 rng
  | "regular-16" -> random_regular ~n:(max 17 n) ~r:16 rng
  | other -> invalid_arg (Printf.sprintf "Gen.by_name: unknown family %S" other)

let by_name name ~n rng =
  match String.index_opt name ':' with
  | Some cut ->
      let family = String.sub name 0 cut in
      let params =
        String.split_on_char ':' (String.sub name (cut + 1) (String.length name - cut - 1))
      in
      by_parameterized_name ~family ~params ~n rng
  | None -> by_name_plain name ~n rng

let family_names =
  [
    "complete"; "path"; "cycle"; "star"; "wheel"; "binary-tree"; "grid2d"; "grid3d";
    "torus2d"; "torus3d"; "hypercube"; "lollipop"; "barbell"; "ladder"; "petersen";
    "random-tree"; "gnp"; "regular-3"; "regular-4"; "regular-8"; "regular-16";
    "cycle-matching"; "small-world"; "pref-attach"; "ccc"; "broom";
    (* Parameterized power-law families (any "family:params" spelling is
       accepted; these are representative instances for CLI listings and
       the all-family test sweeps). *)
    "chunglu:2.5"; "config:2.5"; "ba:4";
  ]
