(* Tests for Bitset: unit cases plus a qcheck model check against
   Stdlib's Set over the same operation sequences. *)

module Bitset = Cobra_bitset.Bitset
module IntSet = Set.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  let s = Bitset.create 10 in
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_bool "is_empty" true (Bitset.is_empty s);
  check_int "capacity" 10 (Bitset.capacity s);
  check_bool "mem" false (Bitset.mem s 3);
  Alcotest.(check (list int)) "to_list" [] (Bitset.to_list s)

let test_add () =
  let s = Bitset.create 100 in
  Bitset.add s 5;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check_int "cardinal after adds" 4 (Bitset.cardinal s);
  check_bool "mem 63 (word boundary)" true (Bitset.mem s 63);
  check_bool "mem 64" true (Bitset.mem s 64);
  Bitset.add s 5;
  check_int "idempotent add" 4 (Bitset.cardinal s);
  check_bool "not added" false (Bitset.mem s 6)

let test_word_boundaries () =
  (* Bits 62 (sign bit of word 0), 63 (first bit of word 1) and friends. *)
  let s = Bitset.create 130 in
  List.iter (Bitset.add s) [ 0; 61; 62; 63; 125; 126; 129 ];
  Alcotest.(check (list int)) "sorted members" [ 0; 61; 62; 63; 125; 126; 129 ]
    (Bitset.to_list s);
  check_int "cardinal" 7 (Bitset.cardinal s)

let test_fill_clear () =
  List.iter
    (fun cap ->
      let s = Bitset.of_list cap (List.init cap Fun.id) in
      check_int (Printf.sprintf "fill cardinal (cap %d)" cap) cap (Bitset.cardinal s);
      for i = 0 to cap - 1 do
        if not (Bitset.mem s i) then Alcotest.failf "fill: missing %d at cap %d" i cap
      done;
      Bitset.clear s;
      check_int "clear cardinal" 0 (Bitset.cardinal s))
    [ 1; 62; 63; 64; 126; 127; 200 ]

let test_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3; 10 ] in
  let b = Bitset.of_list 20 [ 2; 3; 4; 19 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~into:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 10; 19 ] (Bitset.to_list u);
  check_bool "intersects" true (Bitset.intersects a b);
  check_bool "no intersects" false (Bitset.intersects a (Bitset.of_list 20 [ 0; 4; 19 ]))

let test_subset_equal () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  (* [x] is a subset of [y] iff [x ∪ y = y]. *)
  let subset x y =
    let u = Bitset.copy x in
    Bitset.union_into ~into:u y;
    Bitset.equal u y
  in
  check_bool "a subset b" true (subset a b);
  check_bool "b not subset a" false (subset b a);
  check_bool "a subset a" true (subset a a);
  check_bool "not equal" false (Bitset.equal a b);
  check_bool "equal to copy" true (Bitset.equal a (Bitset.copy a))

let test_blit () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.of_list 10 [ 7 ] in
  Bitset.blit ~src:a ~dst:b;
  check_bool "blit equal" true (Bitset.equal a b);
  Bitset.add b 9;
  check_bool "blit decoupled" false (Bitset.equal a b)

let test_fold () =
  let s = Bitset.of_list 50 [ 42; 7; 13 ] in
  check_int "fold sum" 62 (Bitset.fold (fun i acc -> i + acc) s 0);
  Alcotest.(check (array int)) "to_array" [| 7; 13; 42 |] (Bitset.to_array s)

let test_errors () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: element 10 out of range [0, 10)")
    (fun () -> Bitset.add s 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: element -1 out of range [0, 10)")
    (fun () -> ignore (Bitset.mem s (-1)));
  let t = Bitset.create 11 in
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset: operands have different capacities") (fun () ->
      Bitset.union_into ~into:s t);
  Alcotest.check_raises "negative capacity" (Invalid_argument "Bitset.create: negative capacity")
    (fun () -> ignore (Bitset.create (-1)))

(* The multiply-shift word addressing is only exact below 2^30, so
   [create] caps capacity there.  Exercise both sides of the boundary:
   the cap itself must work (including the last element, whose word/bit
   decomposition is the largest the reciprocal ever sees), one past it
   must raise an error naming the cap and the requested capacity. *)
let test_capacity_cap () =
  let cap = 1 lsl 30 in
  let s = Bitset.create cap in
  check_int "capacity at the cap" cap (Bitset.capacity s);
  Bitset.add s (cap - 1);
  Bitset.add s 0;
  check_bool "last element addressable" true (Bitset.mem s (cap - 1));
  check_int "cardinal" 2 (Bitset.cardinal s);
  Alcotest.check_raises "one past the cap"
    (Invalid_argument
       (Printf.sprintf
          "Bitset.create: capacity %d exceeds the %d (2^30) addressing limit of the \
           multiply-shift word indexing"
          (cap + 1) cap))
    (fun () -> ignore (Bitset.create (cap + 1)))

let test_pp () =
  let s = Bitset.of_list 10 [ 3; 1; 7 ] in
  Alcotest.(check string) "pp" "{1, 3, 7}" (Format.asprintf "%a" Bitset.pp s)

(* --- Model check against Set.Make(Int) --- *)

type op = Add of int | Clear

(* Mostly insertions, with an occasional clear. *)
let op_gen cap =
  QCheck2.Gen.(
    frequency
      [ (15, map (fun i -> Add (i mod cap)) (int_bound (cap - 1))); (1, return Clear) ])

let model_test =
  QCheck2.Test.make ~name:"bitset agrees with Set over op sequences" ~count:200
    QCheck2.Gen.(pair (int_range 1 200) (list_size (int_bound 300) (op_gen 200)))
    (fun (cap, ops) ->
      let cap = max cap 1 in
      let ops = List.map (function Add i -> Add (i mod cap) | Clear -> Clear) ops in
      let bs = Bitset.create cap in
      let model = ref IntSet.empty in
      List.iter
        (function
          | Add i ->
              Bitset.add bs i;
              model := IntSet.add i !model
          | Clear ->
              Bitset.clear bs;
              model := IntSet.empty)
        ops;
      Bitset.cardinal bs = IntSet.cardinal !model
      && Bitset.to_list bs = IntSet.elements !model
      && IntSet.for_all (fun i -> Bitset.mem bs i) !model)

let binop_test =
  QCheck2.Test.make ~name:"bitset binary ops agree with Set" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 150)
        (list_size (int_bound 100) (int_bound 149))
        (list_size (int_bound 100) (int_bound 149)))
    (fun (cap, xs, ys) ->
      let xs = List.map (fun i -> i mod cap) xs and ys = List.map (fun i -> i mod cap) ys in
      let a = Bitset.of_list cap xs and b = Bitset.of_list cap ys in
      let sa = IntSet.of_list xs and sb = IntSet.of_list ys in
      let test op set_op =
        let t = Bitset.copy a in
        op ~into:t b;
        Bitset.to_list t = IntSet.elements (set_op sa sb)
      in
      test Bitset.union_into IntSet.union
      && Bitset.equal a b = IntSet.equal sa sb
      && Bitset.intersects a b = not (IntSet.is_empty (IntSet.inter sa sb)))

(* Differential checks for the word-parallel iteration kernels against
   naive references.  The kernels are tuned (de Bruijn bit extraction,
   SWAR popcount) under the contract that observable behaviour —
   membership and its order — is unchanged; these properties pin that
   contract. *)

let iteration_kernels_test =
  QCheck2.Test.make ~name:"iteration kernels agree with naive bit scan" ~count:200
    QCheck2.Gen.(pair (int_range 1 400) (list_size (int_bound 150) (int_bound 399)))
    (fun (cap, xs) ->
      let xs = List.map (fun i -> i mod cap) xs in
      let bs = Bitset.of_list cap xs in
      let expected = IntSet.elements (IntSet.of_list xs) in
      (* iter must emit exactly the members, in increasing order. *)
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) bs;
      let via_iter = List.rev !via_iter in
      (* A naive per-element membership scan finds the same members. *)
      let via_mem = List.filter (Bitset.mem bs) (List.init cap Fun.id) in
      via_iter = expected && via_mem = expected
      && Bitset.fold (fun i acc -> i :: acc) bs [] = List.rev expected
      && Array.to_list (Bitset.to_array bs) = expected)

let word_range_kernels_test =
  QCheck2.Test.make ~name:"word-range kernels agree with whole-set scans" ~count:200
    QCheck2.Gen.(pair (int_range 1 400) (list_size (int_bound 150) (int_bound 399)))
    (fun (cap, xs) ->
      let xs = List.map (fun i -> i mod cap) xs in
      let bs = Bitset.of_list cap xs in
      let nw = Bitset.num_words bs in
      let expected = IntSet.elements (IntSet.of_list xs) in
      (* Tiling [0, nw) at any split must reproduce iter exactly. *)
      let collect lo hi =
        let acc = ref [] in
        Bitset.iter_range (fun i -> acc := i :: !acc) bs ~lo ~hi;
        List.rev !acc
      in
      let mid = nw / 2 in
      let ok_iter_range = collect 0 mid @ collect mid nw = expected in
      (* members_into fills a prefix with exactly to_array's contents. *)
      let buf = Array.make (Bitset.cardinal bs + 3) (-1) in
      let k = Bitset.members_into bs buf in
      let ok_members =
        k = Bitset.cardinal bs && Array.to_list (Array.sub buf 0 k) = expected
      in
      (* unsafe_set_bit leaves cardinal stale; the range popcounts sum
         to the true cardinality, and unsafe_set_cardinal of the sum
         makes the set equal to a checked build. *)
      let raw = Bitset.create cap in
      List.iter (Bitset.unsafe_set_bit raw) xs;
      Bitset.unsafe_set_cardinal raw
        (Bitset.popcount_words_range raw ~lo:0 ~hi:mid
        + Bitset.popcount_words_range raw ~lo:mid ~hi:nw);
      let ok_raw = Bitset.equal raw bs in
      (* drain_words_range over split ranges = union_into of all
         sources, the returned range popcounts sum to the merged
         cardinality, and the sources are left empty. *)
      let third = List.filteri (fun i _ -> i mod 3 = 0) xs in
      let reference = Bitset.create cap in
      List.iter (Bitset.union_into ~into:reference) [ bs; Bitset.of_list cap third ];
      let srcs = [| Bitset.copy bs; Bitset.of_list cap third |] in
      let drained = Bitset.create cap in
      let c1 = Bitset.drain_words_range ~into:drained srcs ~lo:0 ~hi:mid in
      let c2 = Bitset.drain_words_range ~into:drained srcs ~lo:mid ~hi:nw in
      Bitset.unsafe_set_cardinal drained (c1 + c2);
      let ok_drain =
        Bitset.equal drained reference
        && Bitset.cardinal drained = Bitset.cardinal reference
        && Array.for_all (fun s -> Bitset.popcount_words_range s ~lo:0 ~hi:nw = 0) srcs
      in
      ok_iter_range && ok_members && ok_raw && ok_drain)

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
          Alcotest.test_case "fill/clear" `Quick test_fill_clear;
          Alcotest.test_case "set ops" `Quick test_ops;
          Alcotest.test_case "subset/equal" `Quick test_subset_equal;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "capacity cap boundary" `Quick test_capacity_cap;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest model_test;
          QCheck_alcotest.to_alcotest binop_test;
          QCheck_alcotest.to_alcotest iteration_kernels_test;
          QCheck_alcotest.to_alcotest word_range_kernels_test;
        ] );
    ]
