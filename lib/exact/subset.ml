module Graph = Cobra_graph.Graph

let max_n = 20

let check_n n =
  if n < 0 || n > max_n then
    invalid_arg (Printf.sprintf "Cobra_exact: exact solvers support n <= %d, got %d" max_n n)

let full n = (1 lsl n) - 1

let check_mask ~fn n mask =
  if mask land lnot (full n) <> 0 then
    invalid_arg (Printf.sprintf "%s: subset mask %d has vertices outside [0, %d)" fn mask n)

let mem mask u = mask land (1 lsl u) <> 0
let add mask u = mask lor (1 lsl u)

(* Branch-free SWAR popcount over the 62 value bits of a non-negative
   int: next_dist calls it once per (subset, sender). *)
let cardinal mask =
  let x = mask - ((mask lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

let iter_subsets_of mask f =
  (* Standard submask enumeration: s = (s - 1) land mask walks all
     submasks in decreasing order; include the empty set at the end. *)
  let s = ref mask in
  let continue_ = ref true in
  while !continue_ do
    f !s;
    if !s = 0 then continue_ := false else s := (!s - 1) land mask
  done

let neighborhood_mask g c =
  let acc = ref 0 in
  for u = 0 to Graph.n g - 1 do
    if mem c u then Graph.iter_neighbors g u (fun v -> acc := add !acc v)
  done;
  !acc

let degree_into g u s = Graph.fold_neighbors g u (fun acc v -> if mem s v then acc + 1 else acc) 0

let pp ppf mask =
  Format.fprintf ppf "{";
  let first = ref true in
  for u = 0 to max_n - 1 do
    if mem mask u then begin
      if !first then first := false else Format.fprintf ppf ", ";
      Format.fprintf ppf "%d" u
    end
  done;
  Format.fprintf ppf "}"
