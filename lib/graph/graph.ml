module A1 = Bigarray.Array1

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

(* CSR in C-layout int32 bigarrays: 4 bytes per entry, so the adjacency
   of an m-edge graph costs 8m bytes, and the storage can be backed by
   [Unix.map_file] so multi-GiB graphs open in O(1) and page in on
   demand (see {!Cgr}).  The loads compile to an unboxed 32-bit read
   plus sign extension — allocation-free in the kernel loops.

   Every stored value fits an int32: vertex ids and offsets (bounded by
   2m) stay below 2^31, which [Int_sort.assemble_csr] and the [Cgr]
   header checks enforce. *)
type t = { n : int; m : int; offsets : int32_array; adj : int32_array }

let n t = t.n
let m t = t.m

let check_vertex t u =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0, %d)" u t.n)

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edge_array: negative n";
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Graph.of_edge_array: edge (%d, %d) out of range [0, %d)" u v n);
      if u = v then
        invalid_arg (Printf.sprintf "Graph.of_edge_array: self-loop at %d" u))
    edges;
  let keys = Array.map (fun (u, v) -> (u lsl 31) lor v) edges in
  let offsets, adj =
    Int_sort.assemble_csr ~who:"Graph.of_edge_array" ~n ~count:(Array.length keys) keys
  in
  { n; m = A1.dim adj / 2; offsets; adj }

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

(* Trusted constructor for Builder.finish and the .cgr loaders: the
   caller guarantees the CSR invariants (offsets monotone with
   offsets.(n) = 2m, every slice sorted and duplicate-free, edges
   symmetric, no self-loops).  Only the cheap length consistency is
   re-checked here — re-validating the structure would cost the O(m)
   pass this constructor exists to avoid. *)
let unsafe_of_packed_csr ~n ~m ~offsets ~adj =
  if n < 0 || m < 0 || A1.dim offsets <> n + 1
     || Int32.to_int (A1.get offsets n) <> 2 * m
     || A1.dim adj <> 2 * m
  then invalid_arg "Graph.unsafe_of_packed_csr: inconsistent CSR arrays";
  { n; m; offsets; adj }

let storage_bytes t = 4 * (A1.dim t.offsets + A1.dim t.adj)

(* --- Accessors --- *)

let[@inline] offset t u = Int32.to_int (A1.unsafe_get t.offsets u)

(* [degree] without the vertex-range check — the companion of
   [unsafe_neighbor] for loops over vertices in range by construction. *)
let[@inline] unsafe_degree t u = offset t (u + 1) - offset t u

let degree t u =
  check_vertex t u;
  unsafe_degree t u

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    let d = unsafe_degree t u in
    if d > !best then best := d
  done;
  !best

let min_degree t =
  if t.n = 0 then 0
  else begin
    let best = ref max_int in
    for u = 0 to t.n - 1 do
      let d = unsafe_degree t u in
      if d < !best then best := d
    done;
    !best
  end

let is_regular t = t.n <= 1 || max_degree t = min_degree t

(* [neighbor] without the vertex/index checks, for inner loops whose
   indices come from [int_below (degree u)]. *)
let[@inline] unsafe_neighbor t u i = Int32.to_int (A1.unsafe_get t.adj (offset t u + i))

let neighbor t u i =
  check_vertex t u;
  let d = unsafe_degree t u in
  if i < 0 || i >= d then
    invalid_arg (Printf.sprintf "Graph.neighbor: index %d out of range [0, %d)" i d);
  unsafe_neighbor t u i

let random_neighbor t rng u =
  check_vertex t u;
  let d = unsafe_degree t u in
  if d = 0 then invalid_arg (Printf.sprintf "Graph.random_neighbor: vertex %d is isolated" u);
  Int32.to_int (A1.unsafe_get t.adj (offset t u + Cobra_prng.Rng.int_below rng d))

let neighbors t u =
  check_vertex t u;
  Array.init (unsafe_degree t u) (fun i -> unsafe_neighbor t u i)

let iter_neighbors t u f =
  check_vertex t u;
  for i = offset t u to offset t (u + 1) - 1 do
    f (Int32.to_int (A1.unsafe_get t.adj i))
  done

let fold_neighbors t u f init =
  check_vertex t u;
  let acc = ref init in
  iter_neighbors t u (fun v -> acc := f !acc v);
  !acc

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  let lo = ref 0 and hi = ref (unsafe_degree t u - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = unsafe_neighbor t u mid in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.n - 1 do
    let d = unsafe_degree t u in
    for i = 0 to d - 1 do
      let v = unsafe_neighbor t u i in
      if u < v then f u v
    done
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let total_degree t = 2 * t.m

(* --- Raw CSR access for the float kernels (matvec, CG, .cgr writer) --- *)

let csr_offsets t = t.offsets
let csr_adjacency t = t.adj

(* The int-array constructor is never built: the variant keeps its
   historical shape only because existing consumers match both
   constructors. *)
type csr =
  | Csr_boxed of { offsets : int array; adj : int array }
  | Csr_packed of { offsets : int32_array; adj : int32_array }

let csr t = Csr_packed { offsets = t.offsets; adj = t.adj }

let pp_stats ppf t =
  Format.fprintf ppf "n=%d m=%d deg=[%d..%d]%s" t.n t.m (min_degree t) (max_degree t)
    (if is_regular t then " regular" else "")
