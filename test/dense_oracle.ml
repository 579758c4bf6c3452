(* Dense reference implementations of the spectral quantities, shared by
   every suite that holds the library's solvers to an independent
   answer.  The library computes each quantity one way (lambda and its
   eigenvector by Lanczos, hitting and commute times by grounded-Laplacian
   CG, walk distributions by the blocked matvec); these O(n^3) or
   step-by-step versions share no code with it and are meant for graphs
   of at most a few hundred vertices. *)

module Graph = Cobra_graph.Graph
module Props = Cobra_graph.Props

(* --- Cyclic Jacobi --- *)

(* [jacobi a] is the full eigendecomposition of the dense symmetric
   matrix [a] (destroyed) by cyclic Jacobi rotations: eigenvalues in
   ascending order and [z] with [z.(i).(j)] the i-th component of the
   j-th eigenvector.  Sweeps stop once the off-diagonal Frobenius norm
   falls to 1e-14 of the whole matrix's (convergence is quadratic, so
   the last sweep usually lands far below that). *)
let jacobi a =
  let n = Array.length a in
  let z = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let frobenius ~diag =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if diag || i <> j then s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !s
  in
  let threshold = 1e-14 *. frobenius ~diag:true in
  let rotate p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 1e-300 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
      let t =
        let sgn = if theta >= 0.0 then 1.0 else -1.0 in
        sgn /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      let tau = s /. (1.0 +. c) in
      let app = a.(p).(p) and aqq = a.(q).(q) in
      a.(p).(p) <- app -. (t *. apq);
      a.(q).(q) <- aqq +. (t *. apq);
      a.(p).(q) <- 0.0;
      a.(q).(p) <- 0.0;
      for k = 0 to n - 1 do
        if k <> p && k <> q then begin
          let akp = a.(k).(p) and akq = a.(k).(q) in
          let akp' = akp -. (s *. (akq +. (tau *. akp))) in
          let akq' = akq +. (s *. (akp -. (tau *. akq))) in
          a.(k).(p) <- akp';
          a.(p).(k) <- akp';
          a.(k).(q) <- akq';
          a.(q).(k) <- akq'
        end
      done;
      for k = 0 to n - 1 do
        let zkp = z.(k).(p) and zkq = z.(k).(q) in
        z.(k).(p) <- zkp -. (s *. (zkq +. (tau *. zkp)));
        z.(k).(q) <- zkq +. (s *. (zkp -. (tau *. zkq)))
      done
    end
    else begin
      a.(p).(q) <- 0.0;
      a.(q).(p) <- 0.0
    end
  in
  let sweeps = ref 0 in
  while frobenius ~diag:false > threshold && !sweeps < 100 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let eigs = Array.map (fun i -> a.(i).(i)) order in
  let vecs = Array.init n (fun i -> Array.map (fun j -> z.(i).(j)) order) in
  (eigs, vecs)

(* --- The spectrum of P --- *)

(* The symmetric normalisation N = D^{-1/2} A D^{-1/2}, similar to P. *)
let dense_normalized g =
  let n = Graph.n g in
  let a = Array.make_matrix n n 0.0 in
  for u = 0 to n - 1 do
    if Graph.degree g u = 0 then invalid_arg "Dense_oracle.dense_normalized: isolated vertex"
  done;
  Graph.iter_edges g (fun u v ->
      let w = 1.0 /. sqrt (float_of_int (Graph.degree g u * Graph.degree g v)) in
      a.(u).(v) <- w;
      a.(v).(u) <- w);
  a

(* The full spectrum of P, in decreasing order. *)
let dense_spectrum g =
  let eigs, _ = jacobi (dense_normalized g) in
  let n = Array.length eigs in
  Array.init n (fun i -> eigs.(n - 1 - i))

(* lambda = max(|l_2|, |l_n|), read off the dense spectrum. *)
let second_eigenvalue_exact g =
  let eigs = dense_spectrum g in
  let n = Array.length eigs in
  if n = 1 then 0.0 else Float.max (Float.abs eigs.(1)) (Float.abs eigs.(n - 1))

(* --- Hitting times from the Laplacian pseudo-inverse --- *)

(* Dense Gauss-Jordan inversion with partial pivoting. *)
let invert_in_place a =
  let n = Array.length a in
  let inv = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < 1e-12 then failwith "Dense_oracle.invert_in_place: singular";
    let swap m =
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp
    in
    swap a;
    swap inv;
    let d = a.(col).(col) in
    for j = 0 to n - 1 do
      a.(col).(j) <- a.(col).(j) /. d;
      inv.(col).(j) <- inv.(col).(j) /. d
    done;
    for row = 0 to n - 1 do
      if row <> col then begin
        let f = a.(row).(col) in
        if f <> 0.0 then
          for j = 0 to n - 1 do
            a.(row).(j) <- a.(row).(j) -. (f *. a.(col).(j));
            inv.(row).(j) <- inv.(row).(j) -. (f *. inv.(col).(j))
          done
      end
    done
  done;
  inv

(* L^+, the Moore–Penrose pseudo-inverse of the Laplacian, via the
   identity (L + J/n)^{-1} = L^+ + J/n. *)
let laplacian_pseudoinverse g =
  let n = Graph.n g in
  if not (Props.is_connected g) then
    invalid_arg "Dense_oracle.laplacian_pseudoinverse: graph must be connected";
  let jn = 1.0 /. float_of_int n in
  let m = Array.init n (fun _ -> Array.make n jn) in
  for u = 0 to n - 1 do
    m.(u).(u) <- m.(u).(u) +. float_of_int (Graph.degree g u);
    Graph.iter_neighbors g u (fun v -> m.(u).(v) <- m.(u).(v) -. 1.0)
  done;
  let minv = invert_in_place m in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      minv.(u).(v) <- minv.(u).(v) -. jn
    done
  done;
  minv

(* All pairs from L^+ by the Fouss et al. identity
   H(u,v) = sum_k d(k) (L+_{uk} - L+_{uv} - L+_{vk} + L+_{vv})
          = s(u) - s(v) + 2m (L+_{vv} - L+_{uv}),  s(v) = sum_k d(k) L+_{vk}. *)
let all_hitting_times_dense g =
  let n = Graph.n g in
  let lp = laplacian_pseudoinverse g in
  let two_m = float_of_int (Graph.total_degree g) in
  let s =
    Array.init n (fun v ->
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (float_of_int (Graph.degree g k) *. lp.(v).(k))
        done;
        !acc)
  in
  Array.init n (fun u ->
      Array.init n (fun v ->
          if u = v then 0.0 else s.(u) -. s.(v) +. (two_m *. (lp.(v).(v) -. lp.(u).(v)))))

(* --- Walk distributions by naive stepping --- *)

(* One step of the (lazy) walk distribution, P^T by its definition:
   next(v) = sum over neighbours u of cur(u) / d(u), halved and mixed
   with the current mass when lazy. *)
let step g ~lazy_ cur next =
  for v = 0 to Graph.n g - 1 do
    let s = ref 0.0 in
    Graph.iter_neighbors g v (fun u -> s := !s +. (cur.(u) /. float_of_int (Graph.degree g u)));
    next.(v) <- (if lazy_ then (0.5 *. cur.(v)) +. (0.5 *. !s) else !s)
  done

(* The walk distribution after [rounds] steps from [start]. *)
let walk_distribution ?(lazy_ = false) g ~start ~rounds =
  let n = Graph.n g in
  let init = Array.make n 0.0 in
  init.(start) <- 1.0;
  let cur = ref init and next = ref (Array.make n 0.0) in
  for _ = 1 to rounds do
    step g ~lazy_ !cur !next;
    let t = !cur in
    cur := !next;
    next := t
  done;
  !cur
