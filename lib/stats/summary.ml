type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable min : float;
  mutable max : float;
}

type stats = {
  count : int;
  mean : float;
  variance : float;
  stddev : float;
  min : float;
  max : float;
}

let create () = { count = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan }

let add (t : t) x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.count = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let stats (t : t) : stats =
  (* No observations carry no estimate at all; one carries no spread. *)
  let variance =
    if t.count = 0 then nan else if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  in
  {
    count = t.count;
    mean = (if t.count = 0 then nan else t.mean);
    variance;
    stddev = sqrt variance;
    min = t.min;
    max = t.max;
  }

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  stats t

let mean_confidence95 s =
  (* With fewer than two observations there is no variance estimate; a
     half-width of 0 would read as "exact", so report nan instead. *)
  if s.count < 2 then nan else 1.96 *. s.stddev /. sqrt (float_of_int s.count)

let pp ppf s =
  let ci = mean_confidence95 s in
  if Float.is_nan ci then
    Format.fprintf ppf "%.2f ± n/a (%.0f .. %.0f, %d trials)" s.mean s.min s.max s.count
  else Format.fprintf ppf "%.2f ± %.2f (%.0f .. %.0f, %d trials)" s.mean ci s.min s.max s.count
