(* The one CSR assembly routine, and the in-place int32 slice sort it
   runs once per vertex.

   [assemble_csr] is the only place an edge list becomes CSR storage:
   [Graph.of_edge_array] and [Builder.finish] both call it.  Its slice
   pass needs "sort adjacency entries [lo, hi) of this array" once per
   vertex; the obvious [Array.sub]/sort/[Array.blit] dance would
   allocate a temporary per vertex — millions of short-lived arrays on
   a power-law graph.  The sorter works directly on the range:
   introsort-style quicksort (median-of-three pivot, recursion on the
   smaller side, insertion sort below a threshold, heapsort fallback
   past the depth budget so adversarial inputs stay O(n log n)).

   Sorted integer sequences are unique regardless of algorithm, so
   swapping the sorter cannot change any CSR array. *)

module A1 = Bigarray.Array1

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

let insertion_threshold = 16

let[@inline] swap (a : int32_array) i j =
  let t = A1.unsafe_get a i in
  A1.unsafe_set a i (A1.unsafe_get a j);
  A1.unsafe_set a j t

let insertion (a : int32_array) ~lo ~hi =
  for i = lo + 1 to hi - 1 do
    let x = A1.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && A1.unsafe_get a !j > x do
      A1.unsafe_set a (!j + 1) (A1.unsafe_get a !j);
      decr j
    done;
    A1.unsafe_set a (!j + 1) x
  done

(* Binary max-heap over [lo, hi): the O(n log n) safety net. *)
let heapsort (a : int32_array) ~lo ~hi =
  let len = hi - lo in
  let sift root len =
    let root = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !root) + 1 in
      if child >= len then continue := false
      else begin
        let child =
          if child + 1 < len && A1.unsafe_get a (lo + child) < A1.unsafe_get a (lo + child + 1)
          then child + 1
          else child
        in
        if A1.unsafe_get a (lo + !root) < A1.unsafe_get a (lo + child) then begin
          swap a (lo + !root) (lo + child);
          root := child
        end
        else continue := false
      end
    done
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    swap a lo (lo + last);
    sift 0 last
  done

let rec quick (a : int32_array) ~lo ~hi depth =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > insertion_threshold do
    if depth = 0 then begin
      heapsort a ~lo:!lo ~hi:!hi;
      lo := !hi
    end
    else begin
      (* Median of first/middle/last as the pivot, stashed at [hi - 1]. *)
      let mid = !lo + ((!hi - !lo) / 2) in
      if A1.unsafe_get a mid < A1.unsafe_get a !lo then swap a mid !lo;
      if A1.unsafe_get a (!hi - 1) < A1.unsafe_get a !lo then swap a (!hi - 1) !lo;
      if A1.unsafe_get a mid < A1.unsafe_get a (!hi - 1) then swap a mid (!hi - 1);
      let pivot = A1.unsafe_get a (!hi - 1) in
      let i = ref !lo in
      for j = !lo to !hi - 2 do
        if A1.unsafe_get a j <= pivot then begin
          swap a !i j;
          incr i
        end
      done;
      swap a !i (!hi - 1);
      (* Recurse on the smaller side; loop on the larger. *)
      if !i - !lo < !hi - !i - 1 then begin
        quick a ~lo:!lo ~hi:!i (depth - 1);
        lo := !i + 1
      end
      else begin
        quick a ~lo:(!i + 1) ~hi:!hi (depth - 1);
        hi := !i
      end
    end
  done;
  insertion a ~lo:!lo ~hi:!hi

let depth_budget len =
  let d = ref 0 and n = ref len in
  while !n > 0 do
    incr d;
    n := !n lsr 1
  done;
  2 * !d

let sort_slice (a : int32_array) ~lo ~hi =
  if hi - lo > 1 then quick a ~lo ~hi (depth_budget (hi - lo))

(* --- CSR assembly by counting sort ---

   One pass counts degrees, a prefix sum turns them into offsets, one
   pass scatters both directions straight into the int32 adjacency,
   then each slice is sorted and deduplicated in place (the write
   pointer never overtakes the read position because compaction only
   ever shrinks earlier slices).  Peak memory is the caller's key
   buffer (1 word/edge) plus the int32 adjacency (1 word-equivalent per
   edge) plus O(n) counters. *)

let max_entry = Int32.to_int Int32.max_int

let assemble_csr ~who ~n ~count keys =
  (* Both limits are checked before anything O(n) is allocated. *)
  if n > max_entry then
    invalid_arg
      (Printf.sprintf "%s: n = %d exceeds the int32 CSR limit 2^31 - 1 = %d" who n max_entry);
  if count > max_entry / 2 then
    invalid_arg
      (Printf.sprintf "%s: 2 * %d edges exceeds the int32 CSR limit 2^31 - 1 = %d" who count
         max_entry);
  let deg = Array.make (max n 1) 0 in
  for k = 0 to count - 1 do
    let p = Array.unsafe_get keys k in
    let u = p lsr 31 and v = p land max_entry in
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  done;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let adj = A1.create Bigarray.int32 Bigarray.c_layout (2 * count) in
  (* Reuse [deg] as the scatter cursor to avoid a second O(n) array. *)
  Array.blit offsets 0 deg 0 n;
  for k = 0 to count - 1 do
    let p = Array.unsafe_get keys k in
    let u = p lsr 31 and v = p land max_entry in
    A1.unsafe_set adj deg.(u) (Int32.of_int v);
    deg.(u) <- deg.(u) + 1;
    A1.unsafe_set adj deg.(v) (Int32.of_int u);
    deg.(v) <- deg.(v) + 1
  done;
  let write = ref 0 in
  for u = 0 to n - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    offsets.(u) <- !write;
    if hi > lo then begin
      sort_slice adj ~lo ~hi;
      A1.unsafe_set adj !write (A1.unsafe_get adj lo);
      incr write;
      for i = lo + 1 to hi - 1 do
        let x = A1.unsafe_get adj i in
        if x <> A1.unsafe_get adj (i - 1) then begin
          A1.unsafe_set adj !write x;
          incr write
        end
      done
    end
  done;
  let total = !write in
  offsets.(n) <- total;
  (* Duplicates leave slack at the end: copy to an exact-size array
     rather than returning an [Array1.sub] view, which would keep the
     whole pre-dedup buffer alive for the graph's lifetime. *)
  let adj =
    if total = A1.dim adj then adj
    else begin
      let exact = A1.create Bigarray.int32 Bigarray.c_layout total in
      A1.blit (A1.sub adj 0 total) exact;
      exact
    end
  in
  let poffsets = A1.create Bigarray.int32 Bigarray.c_layout (n + 1) in
  for i = 0 to n do
    A1.unsafe_set poffsets i (Int32.of_int (Array.unsafe_get offsets i))
  done;
  (poffsets, adj)
