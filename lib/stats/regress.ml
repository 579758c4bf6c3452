type fit = { slope : float; intercept : float; r2 : float }

let fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Regress.fit: length mismatch";
  if n < 2 then invalid_arg "Regress.fit: need at least 2 points";
  let nf = float_of_int n in
  let mean a = Array.fold_left ( +. ) 0.0 a /. nf in
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx <= 0.0 then invalid_arg "Regress.fit: zero variance in x";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  (* Constant y leaves r2 = 0/0: no variance to explain, so the
     goodness-of-fit is undefined, not perfect. *)
  let r2 = if !syy <= 0.0 then nan else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }

let positive name a =
  Array.iter (fun x -> if x <= 0.0 then invalid_arg (name ^ ": coordinates must be positive")) a

let fit_loglog xs ys =
  positive "Regress.fit_loglog" xs;
  positive "Regress.fit_loglog" ys;
  fit (Array.map log xs) (Array.map log ys)

let fit_exponent_vs_log ns ys =
  positive "Regress.fit_exponent_vs_log" ys;
  Array.iter
    (fun n ->
      if n <= Float.exp 1.0 then
        invalid_arg "Regress.fit_exponent_vs_log: need n > e so log log n > 0")
    ns;
  fit (Array.map (fun n -> log (log n)) ns) (Array.map log ys)
