(* Bits are packed 63 per OCaml int (the full tagged-int width on 64-bit
   platforms), so a set over n vertices costs ceil(n/63) words. *)

let bpw = 63

type t = {
  capacity : int;
  words : int array;
  mutable card : int;
}

let () =
  if Sys.int_size < 63 then
    failwith "Bitset: requires a 64-bit platform (63-bit native ints)"

let nwords capacity = (capacity + bpw - 1) / bpw

(* Word/bit addressing divides by 63 on every membership operation, and
   ocamlopt emits a hardware divide for it.  A multiply-shift by the
   rounded-up reciprocal [ceil(2^36 / 63)] computes the same quotient in
   a couple of cycles; it is exact for all 0 <= i < 2^30 (verified
   exhaustively at the boundaries and by the theorem bound i < 2^36/62),
   and [create] caps the capacity accordingly — universes beyond a
   billion vertices are far outside this simulator's reach anyway. *)
let max_capacity = 1 lsl 30
let recip63 = 0x41041042

let[@inline] div_bpw i = (i * recip63) lsr 36
let[@inline] mod_bpw i = i - (div_bpw i * bpw)

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  if capacity > max_capacity then
    invalid_arg
      (Printf.sprintf
         "Bitset.create: capacity %d exceeds the %d (2^30) addressing limit of the \
          multiply-shift word indexing"
         capacity max_capacity);
  { capacity; words = Array.make (max 1 (nwords capacity)) 0; card = 0 }

let capacity t = t.capacity
let cardinal t = t.card
let is_empty t = t.card = 0
let bits_per_word = bpw
let num_words t = Array.length t.words

let[@inline never] out_of_range t i =
  invalid_arg (Printf.sprintf "Bitset: element %d out of range [0, %d)" i t.capacity)

(* Inlined into [mem] and [add], so a checked read is one call, not two. *)
let[@inline] check t i = if i < 0 || i >= t.capacity then out_of_range t i

let mem t i =
  check t i;
  Array.unsafe_get t.words (div_bpw i) land (1 lsl mod_bpw i) <> 0

let add t i =
  check t i;
  let w = div_bpw i and b = 1 lsl mod_bpw i in
  let old = Array.unsafe_get t.words w in
  if old land b = 0 then begin
    Array.unsafe_set t.words w (old lor b);
    t.card <- t.card + 1
  end

(* Raw bit write: no range check, and — unlike [add] — no cardinality
   maintenance, so concurrent writers touching disjoint words never
   contend on the shared [card] field.  The caller owns the repair:
   [unsafe_set_cardinal] after the writes complete. *)
let[@inline] unsafe_set_bit t i =
  let w = div_bpw i in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl mod_bpw i))

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

let copy t = { capacity = t.capacity; words = Array.copy t.words; card = t.card }

let same_capacity a b =
  if a.capacity <> b.capacity then
    invalid_arg "Bitset: operands have different capacities"

let blit ~src ~dst =
  same_capacity src dst;
  Array.blit src.words 0 dst.words 0 (Array.length src.words);
  dst.card <- src.card

(* --- word-level bit kernels --- *)

(* SWAR popcount over the 63-bit word.  The byte-lane algorithm carries
   over from the 64-bit version unchanged: the top lane is simply one
   bit short, every partial sum still fits its lane, and the final
   multiply accumulates all byte counts into bits 56..62 (the total is
   at most 63, so the missing 64th bit is never needed).  Constants are
   hex literals above [max_int]; OCaml wraps them to the intended 63-bit
   patterns. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* De Bruijn-style trailing-zero count for a one-hot word (exactly one
   bit set, position 0..62).  Multiplying the one-hot value by the
   constant shifts it left by the bit position mod 2^63; the constant is
   chosen (by exhaustive backtracking search) so the resulting top six
   bits are distinct for all 63 positions, indexing a lookup table.
   This replaces an O(63) shift-and-compare scan per emitted bit in the
   iteration kernels.  The [-1] entry is the one 6-bit
   window no shift produces — unreachable for one-hot input. *)
let debruijn = 0x0245434CB63AE7BF

let debruijn_table =
  [| -1; 0; 1; 17; 2; 9; 18; 38; 6; 3; 10; 29; 25; 19; 39; 50; 15; 7; 4; 23; 13; 11; 30; 44;
     35; 26; 20; 32; 46; 40; 51; 56; 62; 16; 8; 37; 5; 28; 24; 49; 14; 22; 12; 43; 34; 31;
     45; 55; 61; 36; 27; 48; 21; 42; 33; 54; 60; 47; 41; 53; 59; 52; 58; 57 |]

let[@inline] ctz_onehot low = debruijn_table.((low * debruijn) lsr 57)

let equal a b =
  same_capacity a b;
  a.card = b.card && a.words = b.words

(* The union folds the new cardinality into the rewrite pass itself —
   one sweep over the words, not a second recount sweep. *)
let union_into ~into b =
  same_capacity into b;
  let aw = into.words and bw = b.words in
  let c = ref 0 in
  for w = 0 to Array.length aw - 1 do
    let x = aw.(w) lor bw.(w) in
    aw.(w) <- x;
    c := !c + popcount x
  done;
  into.card <- !c

let intersects a b =
  same_capacity a b;
  let n = Array.length a.words in
  let rec go w = w < n && (a.words.(w) land b.words.(w) <> 0 || go (w + 1)) in
  go 0

let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let word = ref words.(w) in
    if !word <> 0 then begin
      let base = w * bpw in
      while !word <> 0 do
        let low = !word land - !word in
        f (base + ctz_onehot low);
        word := !word lxor low
      done
    end
  done

(* --- word-range kernels for domain-sharded steps ---

   A parallel step splits the word array into contiguous shards, one per
   domain.  [next_member] walks one shard; the per-domain output sets are
   then combined with [drain_words_range], and [unsafe_set_cardinal] of
   the summed range popcounts repairs the cardinality. *)

let check_word_range t ~lo ~hi =
  if lo < 0 || hi > Array.length t.words || lo > hi then
    invalid_arg
      (Printf.sprintf "Bitset: word range [%d, %d) outside [0, %d]" lo hi
         (Array.length t.words))

(* The smallest member in [i, stop), or [stop]: a step kernel walks its
   range of the frontier by calling this in its own loop, so no closure
   call per member sits between the kernel and its per-vertex work.  The
   word holding [i] is masked below [i]; the scan then skips empty
   words up to the one holding [stop - 1]. *)
let next_member t i ~stop =
  if i < 0 || stop > t.capacity then
    invalid_arg
      (Printf.sprintf "Bitset.next_member: range [%d, %d) outside [0, %d]" i stop t.capacity);
  if i >= stop then stop
  else begin
    let words = t.words in
    let last = div_bpw (stop - 1) in
    let w = ref (div_bpw i) in
    let word = ref (Array.unsafe_get words !w land (-1 lsl mod_bpw i)) in
    while !word = 0 && !w < last do
      incr w;
      word := Array.unsafe_get words !w
    done;
    if !word = 0 then stop
    else begin
      let m = (!w * bpw) + ctz_onehot (!word land - !word) in
      if m < stop then m else stop
    end
  end

(* OR-merges the per-shard scratch sets into [into] over one word range
   and zeroes every source word it reads: one sweep both merges them and
   leaves them clean for the next round, so the sharded kernels pay no
   separate clear-scratch pass at all.  Source cardinals are NOT maintained —
   scratch sets written through {!unsafe_set_bit} carry
   meaningless counts by construction, and the merged count is the
   returned popcount. *)
let drain_words_range ~into srcs ~lo ~hi =
  check_word_range into ~lo ~hi;
  Array.iter (fun s -> same_capacity into s) srcs;
  let dst = into.words in
  let c = ref 0 in
  for w = lo to hi - 1 do
    let x = ref 0 in
    for s = 0 to Array.length srcs - 1 do
      let sw = (Array.unsafe_get srcs s).words in
      let v = Array.unsafe_get sw w in
      if v <> 0 then begin
        x := !x lor v;
        Array.unsafe_set sw w 0
      end
    done;
    Array.unsafe_set dst w !x;
    c := !c + popcount !x
  done;
  !c

let popcount_words_range t ~lo ~hi =
  check_word_range t ~lo ~hi;
  let words = t.words in
  let c = ref 0 in
  for w = lo to hi - 1 do
    c := !c + popcount (Array.unsafe_get words w)
  done;
  !c

let clear_words_range t ~lo ~hi =
  check_word_range t ~lo ~hi;
  Array.fill t.words lo (hi - lo) 0

let unsafe_set_cardinal t c = t.card <- c

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_array t =
  let a = Array.make t.card 0 in
  let k = ref 0 in
  iter
    (fun i ->
      a.(!k) <- i;
      incr k)
    t;
  a

let of_list capacity xs =
  let t = create capacity in
  List.iter (add t) xs;
  t

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf ppf ", ";
      Format.fprintf ppf "%d" i)
    t;
  Format.fprintf ppf "}"
