(* Incremental CSR construction.

   [Graph.of_edge_array] needs the caller's tuple array (three words
   per edge plus the array slot) alive beside the key buffer it packs
   into.  The builder keeps one growable int array with each edge
   packed into a single word, so the peak while [finish] runs is the
   key buffer (1 word/edge) plus the int32 adjacency being scattered
   into (1 word-equivalent/edge) plus O(n) counters — the difference
   between fitting a 10^9-edge graph in tens of GB and not fitting it
   at all.  [finish] hands the buffer to [Int_sort.assemble_csr], the
   same counting sort [Graph.of_edge_array] uses. *)

(* Edges are packed as [(u lsl 31) lor v], so vertex ids must fit in 31
   bits; the CSR's int32 storage further caps n at 2^31 - 1. *)
let max_id = (1 lsl 31) - 1

type t = {
  mutable n : int;
  fixed_n : bool;
  mutable packed : int array;
  mutable count : int;
  mutable finished : bool;
}

let create ?n ?(edges_hint = 1024) () =
  let n, fixed_n =
    match n with
    | Some n ->
        if n < 0 then invalid_arg "Builder.create: negative n";
        if n > max_id then
          invalid_arg
            (Printf.sprintf "Builder.create: n = %d exceeds the int32 CSR limit 2^31 - 1 = %d" n
               max_id);
        (n, true)
    | None -> (0, false)
  in
  { n; fixed_n; packed = Array.make (max 16 edges_hint) 0; count = 0; finished = false }

let[@inline never] grow t =
  let bigger = Array.make (2 * Array.length t.packed) 0 in
  Array.blit t.packed 0 bigger 0 t.count;
  t.packed <- bigger

let add_edge t u v =
  if t.finished then invalid_arg "Builder.add_edge: builder already finished";
  if u = v then invalid_arg (Printf.sprintf "Builder.add_edge: self-loop at %d" u);
  if t.fixed_n then begin
    if u < 0 || u >= t.n || v < 0 || v >= t.n then
      invalid_arg
        (Printf.sprintf "Builder.add_edge: edge (%d, %d) out of range [0, %d)" u v t.n)
  end
  else begin
    if u < 0 || v < 0 then
      invalid_arg (Printf.sprintf "Builder.add_edge: negative endpoint in (%d, %d)" u v);
    if u > max_id || v > max_id then
      invalid_arg "Builder.add_edge: vertex ids must be < 2^31";
    let hi = 1 + if u > v then u else v in
    if hi > t.n then t.n <- hi
  end;
  if t.count = Array.length t.packed then grow t;
  Array.unsafe_set t.packed t.count ((u lsl 31) lor v);
  t.count <- t.count + 1

let endpoint t j =
  if t.finished then invalid_arg "Builder.endpoint: builder already finished";
  if j < 0 || j >= 2 * t.count then
    invalid_arg (Printf.sprintf "Builder.endpoint: %d outside [0, %d)" j (2 * t.count));
  let p = Array.unsafe_get t.packed (j lsr 1) in
  if j land 1 = 0 then p lsr 31 else p land max_id

let finish t =
  if t.finished then invalid_arg "Builder.finish: builder already finished";
  t.finished <- true;
  let packed = t.packed in
  t.packed <- [||];
  let offsets, adj =
    Int_sort.assemble_csr ~who:"Builder.finish" ~n:t.n ~count:t.count packed
  in
  Graph.unsafe_of_packed_csr ~n:t.n ~m:(Bigarray.Array1.dim adj / 2) ~offsets ~adj
