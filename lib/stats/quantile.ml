let of_sorted sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let check xs q =
  if Array.length xs = 0 then invalid_arg "Quantile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile: q must be in [0, 1]"

let quantile xs q =
  check xs q;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  of_sorted sorted q

let quantiles xs qs =
  List.iter (fun q -> check xs q) qs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.map (of_sorted sorted) qs
