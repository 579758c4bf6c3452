module Graph = Cobra_graph.Graph
module Pool = Cobra_parallel.Pool

let check_lengths g x y =
  let n = Graph.n g in
  if Array.length x <> n || Array.length y <> n then
    invalid_arg "Matvec: vector length does not match vertex count"

(* --- Precompiled walk operators over the raw CSR arrays ---

   Every walk matrix this library needs is of the form
   [y(u) = out(u) * sum over v in N(u) of in(v) * x(v)]:

     transition    P  = D^{-1} A        : out = 1/d, in = 1
     normalized    N  = D^{-1/2} A D^{-1/2} : out = in = d^{-1/2}
     distribution  P^T = A D^{-1}       : out = 1,  in = 1/d

   An [op] precomputes the scaling vectors once, so the inner loop of
   [apply] is a pure CSR gather — no per-edge multiply, no closures, no
   per-call O(n) allocation (rebuilding [d^{-1/2}] on every product
   would cost an O(n) pass thousands of times per eigensolve).

   When [scale_in] is present the input is pre-scaled into [xs] (one
   O(n) pass) so the gather reads a contiguous already-scaled vector.
   [xs] makes an op single-apply-at-a-time: concurrent [apply]s of the
   same op race on the scratch.  The solvers own their ops, so this
   never happens in-tree. *)

type op = {
  g : Graph.t;
  scale_in : float array option;  (* per-source weight, applied before the gather *)
  scale_out : float array option; (* per-row weight, applied after the gather *)
  xs : float array;               (* scratch for the pre-scaled input *)
  blocks : int array;             (* row starts of the cache blocks; last entry = n *)
}

(* Rows are grouped into blocks of roughly [target_block_nnz] adjacency
   entries: small enough that a block's slice of [adj] plus its gathered
   [xs] entries stay L2-resident, large enough that a pool chunk
   amortises its claim.  Blocks never split a row, so each output entry
   is accumulated in neighbour order no matter how blocks are scheduled
   — the product is bit-identical for any pool width (and to the serial
   product). *)
let target_block_nnz = 16_384

let make_blocks offsets n =
  let off i = Int32.to_int (Bigarray.Array1.unsafe_get offsets i) in
  if n = 0 then [| 0 |]
  else begin
    let acc = ref [ 0 ] in
    let count = ref 1 in
    let block_start = ref 0 in
    for u = 0 to n - 1 do
      if u > !block_start && off (u + 1) - off !block_start > target_block_nnz then begin
        acc := u :: !acc;
        incr count;
        block_start := u
      end
    done;
    let blocks = Array.make (!count + 1) n in
    List.iteri (fun i u -> blocks.(!count - 1 - i) <- u) !acc;
    blocks
  end

let inv_degree g =
  Array.init (Graph.n g) (fun u ->
      let d = Graph.degree g u in
      if d = 0 then 0.0 else 1.0 /. float_of_int d)

let inv_sqrt_degree g =
  Array.init (Graph.n g) (fun u ->
      let d = Graph.degree g u in
      if d = 0 then 0.0 else 1.0 /. sqrt (float_of_int d))

let make_op g ~scale_in ~scale_out =
  {
    g;
    scale_in;
    scale_out;
    xs = Array.make (Graph.n g) 0.0;
    blocks = make_blocks (Graph.csr_offsets g) (Graph.n g);
  }

let transition_op g = make_op g ~scale_in:None ~scale_out:(Some (inv_degree g))

let normalized_op g =
  let s = inv_sqrt_degree g in
  make_op g ~scale_in:(Some s) ~scale_out:(Some s)

let distribution_op g = make_op g ~scale_in:(Some (inv_degree g)) ~scale_out:None

(* Pure CSR gather over rows [lo, hi) of the pre-scaled input, one loop
   per scaling so the inner loop carries no branch.  Floating-point
   addition order is the neighbour order; the 4-byte entries are read
   with an allocation-free [Int32.to_int] of an immediate. *)
let gather_rows op src y ~lo ~hi =
  let module A1 = Bigarray.Array1 in
  let offsets = Graph.csr_offsets op.g and adj = Graph.csr_adjacency op.g in
  match op.scale_out with
  | Some out ->
      for u = lo to hi - 1 do
        let s = ref 0.0 in
        for i = Int32.to_int (A1.unsafe_get offsets u)
            to Int32.to_int (A1.unsafe_get offsets (u + 1)) - 1 do
          s := !s +. Array.unsafe_get src (Int32.to_int (A1.unsafe_get adj i))
        done;
        Array.unsafe_set y u (!s *. Array.unsafe_get out u)
      done
  | None ->
      for u = lo to hi - 1 do
        let s = ref 0.0 in
        for i = Int32.to_int (A1.unsafe_get offsets u)
            to Int32.to_int (A1.unsafe_get offsets (u + 1)) - 1 do
          s := !s +. Array.unsafe_get src (Int32.to_int (A1.unsafe_get adj i))
        done;
        Array.unsafe_set y u !s
      done

(* Below this many adjacency entries a pool round trip costs more than
   the whole product; the parallel and serial paths are bit-identical,
   so routing on size is scheduling-only. *)
let parallel_nnz_threshold = 1 lsl 15

let apply ?pool op x y =
  check_lengths op.g x y;
  let n = Graph.n op.g in
  let src =
    match op.scale_in with
    | None -> x
    | Some sc ->
        let xs = op.xs in
        for i = 0 to n - 1 do
          Array.unsafe_set xs i (Array.unsafe_get x i *. Array.unsafe_get sc i)
        done;
        xs
  in
  let nblocks = Array.length op.blocks - 1 in
  let nnz = 2 * Graph.m op.g in
  match pool with
  | Some pool when nnz >= parallel_nnz_threshold && nblocks > 1 ->
      Pool.parallel_chunked pool ~lo:0 ~hi:nblocks (fun ~worker:_ ~lo ~hi ->
          for b = lo to hi - 1 do
            gather_rows op src y ~lo:op.blocks.(b) ~hi:op.blocks.(b + 1)
          done)
  | _ -> gather_rows op src y ~lo:0 ~hi:n

let stationary_direction g =
  let n = Graph.n g in
  let v = Array.init n (fun u -> sqrt (float_of_int (Graph.degree g u))) in
  let nrm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v) in
  if nrm > 0.0 then Array.map (fun x -> x /. nrm) v else v

(* Reductions follow the same determinism contract as [apply]: the
   summation order depends only on the vector length, never on the pool.
   Long vectors are always reduced chunk-by-chunk (serially or not) and
   the per-chunk partials combined in index order, so a pooled dot is
   bit-identical to the serial one. *)
let red_chunk = 1 lsl 16

let dot_range x y ~lo ~hi =
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !s

let dot ?pool x y =
  let n = Array.length x in
  if n <= red_chunk then dot_range x y ~lo:0 ~hi:n
  else begin
    let nchunks = (n + red_chunk - 1) / red_chunk in
    let partial = Array.make nchunks 0.0 in
    let fill lo hi =
      for c = lo to hi - 1 do
        let clo = c * red_chunk in
        partial.(c) <- dot_range x y ~lo:clo ~hi:(Int.min n (clo + red_chunk))
      done
    in
    (match pool with
    | Some pool -> Pool.parallel_chunked pool ~lo:0 ~hi:nchunks (fun ~worker:_ ~lo ~hi -> fill lo hi)
    | None -> fill 0 nchunks);
    let s = ref 0.0 in
    for c = 0 to nchunks - 1 do
      s := !s +. Array.unsafe_get partial c
    done;
    !s
  end

let norm2 ?pool x = sqrt (dot ?pool x x)

let axpy_range ~alpha x y ~lo ~hi =
  for i = lo to hi - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (alpha *. Array.unsafe_get x i))
  done

let axpy ?pool ~alpha x y =
  let n = Array.length x in
  match pool with
  | Some pool when n > red_chunk ->
      (* Elementwise update: any split is bit-identical. *)
      Pool.parallel_chunked pool ~lo:0 ~hi:n ~chunk:red_chunk
        (fun ~worker:_ ~lo ~hi -> axpy_range ~alpha x y ~lo ~hi)
  | _ -> axpy_range ~alpha x y ~lo:0 ~hi:n

let scale_to_unit ?pool x =
  let nrm = norm2 ?pool x in
  if nrm > 0.0 then
    for i = 0 to Array.length x - 1 do
      x.(i) <- x.(i) /. nrm
    done
