let complete n =
  if n < 1 then invalid_arg "Gen.complete: n must be >= 1";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let path n =
  if n < 1 then invalid_arg "Gen.path: n must be >= 1";
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  if n < 2 then invalid_arg "Gen.star: n must be >= 2";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let wheel n =
  if n < 4 then invalid_arg "Gen.wheel: n must be >= 4";
  let rim = List.init (n - 1) (fun i -> (1 + i, 1 + ((i + 1) mod (n - 1)))) in
  let spokes = List.init (n - 1) (fun i -> (0, i + 1)) in
  Graph.of_edges ~n (rim @ spokes)

let complete_bipartite a b =
  if a < 1 || b < 1 then invalid_arg "Gen.complete_bipartite: sides must be >= 1";
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n:(a + b) !edges

let binary_tree n =
  if n < 1 then invalid_arg "Gen.binary_tree: n must be >= 1";
  let edges = ref [] in
  for i = 0 to n - 1 do
    if (2 * i) + 1 < n then edges := (i, (2 * i) + 1) :: !edges;
    if (2 * i) + 2 < n then edges := (i, (2 * i) + 2) :: !edges
  done;
  Graph.of_edges ~n !edges

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
  let edges = ref [] in
  let coord = Array.make k 0 in
  for v = 0 to n - 1 do
    let rest = ref v in
    for i = 0 to k - 1 do
      coord.(i) <- !rest / strides.(i);
      rest := !rest mod strides.(i)
    done;
    for i = 0 to k - 1 do
      if coord.(i) + 1 < dims.(i) then edges := (v, v + strides.(i)) :: !edges
      else if wrap && dims.(i) >= 3 then
        (* Wraparound edge back to coordinate 0 in dimension i. *)
        edges := (v, v - ((dims.(i) - 1) * strides.(i))) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let grid ~dims = lattice ~dims ~wrap:false
let torus ~dims = lattice ~dims ~wrap:true

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: dimension must be >= 1";
  if d > 24 then invalid_arg "Gen.hypercube: dimension too large";
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if u > v then edges := (v, u) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let lollipop ~clique ~tail =
  if clique < 2 then invalid_arg "Gen.lollipop: clique must be >= 2";
  if tail < 1 then invalid_arg "Gen.lollipop: tail must be >= 1";
  let n = clique + tail in
  let edges = ref [] in
  for u = 0 to clique - 1 do
    for v = u + 1 to clique - 1 do
      edges := (u, v) :: !edges
    done
  done;
  (* Attach the path at clique vertex 0. *)
  edges := (0, clique) :: !edges;
  for i = clique to n - 2 do
    edges := (i, i + 1) :: !edges
  done;
  Graph.of_edges ~n !edges

let barbell ~clique ~bridge =
  if clique < 2 then invalid_arg "Gen.barbell: clique must be >= 2";
  if bridge < 0 then invalid_arg "Gen.barbell: bridge must be >= 0";
  let n = (2 * clique) + bridge in
  let edges = ref [] in
  let add_clique base =
    for u = base to base + clique - 1 do
      for v = u + 1 to base + clique - 1 do
        edges := (u, v) :: !edges
      done
    done
  in
  add_clique 0;
  add_clique clique;
  (* Bridge path between vertex 0 of the first clique and vertex [clique]
     of the second; bridge vertices are 2*clique .. n-1. *)
  if bridge = 0 then edges := (0, clique) :: !edges
  else begin
    edges := (0, 2 * clique) :: !edges;
    for i = 0 to bridge - 2 do
      edges := ((2 * clique) + i, (2 * clique) + i + 1) :: !edges
    done;
    edges := ((2 * clique) + bridge - 1, clique) :: !edges
  end;
  Graph.of_edges ~n !edges

let ladder k =
  if k < 2 then invalid_arg "Gen.ladder: k must be >= 2";
  grid ~dims:[ 2; k ]

let petersen () =
  (* Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5. *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  Graph.of_edges ~n:10 (outer @ inner @ spokes)

let erdos_renyi_gnp ~n ~p rng =
  if n < 1 then invalid_arg "Gen.erdos_renyi_gnp: n must be >= 1";
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.erdos_renyi_gnp: p must be in [0, 1]";
  if p >= 1.0 then complete n
  else begin
    (* Batagelj–Brandes skip sampling: walk the pair sequence with
       geometric jumps so the cost is O(n + m), not O(n^2). *)
    let edges = ref [] in
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
        if !v < n then edges := (!w, !v) :: !edges
      done
    end;
    Graph.of_edges ~n !edges
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
    let edges = ref [] in
    let ptr = ref 0 in
    while deg.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iter
      (fun v ->
        edges := (!leaf, v) :: !edges;
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
    edges := (!leaf, n - 1) :: !edges;
    Graph.of_edges ~n !edges
  end

(* --- Random regular graphs by double-edge-switch randomisation --- *)

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

(* The switch chain's state: edge [i] is [(eu.(i), ev.(i))], and
   [slots.(u * r .. u * r + r - 1)] holds u's neighbours in no particular
   order.  A switch keeps every degree at exactly r, so the slot table
   never overflows, and the membership test is a scan of r ints: no
   hashing, and no tuple or bucket allocated per switch. *)
let[@inline] slot_mem (slots : int array) ~r u (v : int) =
  let lo = u * r in
  let i = ref lo in
  while !i < lo + r && Array.unsafe_get slots !i <> v do
    incr i
  done;
  !i < lo + r

let[@inline] slot_replace (slots : int array) ~r u ~(old : int) v =
  let i = ref (u * r) in
  while Array.unsafe_get slots !i <> old do
    incr i
  done;
  Array.unsafe_set slots !i v

(* [count] double-edge switches.  Each draws two edge indices and, when
   they differ, an orientation for the second edge, so both rewirings
   (a-c, b-d) and (a-d, b-c) are reachable; it is taken only when the
   result stays simple. *)
let run_switches rng ~slots ~r ~(eu : int array) ~(ev : int array) count =
  let m = Array.length eu in
  for _ = 1 to count do
    let i = Cobra_prng.Rng.int_below rng m in
    let j = Cobra_prng.Rng.int_below rng m in
    if i <> j then begin
      let a = eu.(i) and b = ev.(i) in
      let keep = Cobra_prng.Rng.bool rng in
      let c = if keep then eu.(j) else ev.(j) and d = if keep then ev.(j) else eu.(j) in
      if a <> c && a <> d && b <> c && b <> d
         && (not (slot_mem slots ~r a c))
         && not (slot_mem slots ~r b d)
      then begin
        slot_replace slots ~r a ~old:b c;
        slot_replace slots ~r b ~old:a d;
        slot_replace slots ~r c ~old:d a;
        slot_replace slots ~r d ~old:c b;
        eu.(i) <- a;
        ev.(i) <- c;
        eu.(j) <- b;
        ev.(j) <- d
      end
    end
  done

let random_regular ~n ~r ?(switches_per_edge = 30) ?(ensure_connected = true) rng =
  if r < 1 then invalid_arg "Gen.random_regular: r must be >= 1";
  if r >= n then invalid_arg "Gen.random_regular: need r < n";
  if n * r mod 2 = 1 then invalid_arg "Gen.random_regular: n * r must be even";
  let base = circulant_regular n r in
  let m = Graph.m base in
  let edges = Array.of_list (Graph.edges base) in
  let eu = Array.map fst edges and ev = Array.map snd edges in
  let slots = Array.make (n * r) 0 and filled = Array.make n 0 in
  let attach u v =
    slots.((u * r) + filled.(u)) <- v;
    filled.(u) <- filled.(u) + 1
  in
  Array.iter
    (fun (u, v) ->
      attach u v;
      attach v u)
    edges;
  let run_switches = run_switches rng ~slots ~r ~eu ~ev in
  run_switches (switches_per_edge * m);
  let build () = Graph.of_edge_array ~n (Array.init m (fun i -> (eu.(i), ev.(i)))) in
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
