(* Thick-restart Lanczos (Wu & Simon) with full reorthogonalisation, for
   the two extreme eigenvalues of a symmetric operator restricted to the
   orthogonal complement of a set of known eigenvectors.

   The solver builds an orthonormal basis V by repeated application of
   the operator, projects A onto it (T = V^T A V, computed from the
   actual Gram–Schmidt coefficients, so correctness never relies on the
   three-term recurrence surviving floating point), diagonalises the
   small projected matrix with [sym_eig_qr], and — when the basis fills
   before the extreme Ritz pairs converge — restarts with a few Ritz
   vectors from each end plus the last residual direction.
   Ritz residuals |beta * z_last| drive the stopping test; a claimed
   convergence is confirmed with an explicit ||A u - theta u|| before
   being reported, so the answer is never optimistic. *)

type stats = {
  matvecs : int;
  iterations : int;
  restarts : int;
  residual : float;
  converged : bool;
}

type extremes = {
  top : float;
  top_vec : float array;
  bottom : float;
  bottom_vec : float array;
  stats : stats;
}

(* --- Dense symmetric eigensolver for the projected matrix ---

   Householder tridiagonalisation followed by implicit-shift QL:
   eigenvalues ascending, [z.(i).(j)] the i-th component of the j-th
   eigenvector, [a] destroyed.  A single O(m^3) reduction plus
   O(m^2)-per-eigenvalue QL instead of O(m^3) per Jacobi sweep — roughly
   two orders of magnitude faster at m = 40, which is what makes
   frequent Rayleigh–Ritz checkpoints affordable.  The projected
   matrices are at most [basis_cap] x [basis_cap] (tens), so this is
   noise next to one matvec on a large graph. *)
let sym_eig_qr a =
  let n = Array.length a in
  if n = 0 then ([||], [||])
  else begin
    let d = Array.make n 0.0 and e = Array.make n 0.0 in
    (* tred2: reduce to tridiagonal, accumulating the transform in [a]. *)
    for i = n - 1 downto 1 do
      let l = i - 1 in
      let h = ref 0.0 and scale = ref 0.0 in
      if l > 0 then begin
        for k = 0 to l do
          scale := !scale +. Float.abs a.(i).(k)
        done;
        if !scale = 0.0 then e.(i) <- a.(i).(l)
        else begin
          for k = 0 to l do
            a.(i).(k) <- a.(i).(k) /. !scale;
            h := !h +. (a.(i).(k) *. a.(i).(k))
          done;
          let f = a.(i).(l) in
          let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
          e.(i) <- !scale *. g;
          h := !h -. (f *. g);
          a.(i).(l) <- f -. g;
          let fs = ref 0.0 in
          for j = 0 to l do
            a.(j).(i) <- a.(i).(j) /. !h;
            let g = ref 0.0 in
            for k = 0 to j do
              g := !g +. (a.(j).(k) *. a.(i).(k))
            done;
            for k = j + 1 to l do
              g := !g +. (a.(k).(j) *. a.(i).(k))
            done;
            e.(j) <- !g /. !h;
            fs := !fs +. (e.(j) *. a.(i).(j))
          done;
          let hh = !fs /. (!h +. !h) in
          for j = 0 to l do
            let f = a.(i).(j) in
            let g = e.(j) -. (hh *. f) in
            e.(j) <- g;
            for k = 0 to j do
              a.(j).(k) <- a.(j).(k) -. ((f *. e.(k)) +. (g *. a.(i).(k)))
            done
          done
        end
      end
      else e.(i) <- a.(i).(l);
      d.(i) <- !h
    done;
    d.(0) <- 0.0;
    e.(0) <- 0.0;
    for i = 0 to n - 1 do
      if d.(i) <> 0.0 then
        for j = 0 to i - 1 do
          let g = ref 0.0 in
          for k = 0 to i - 1 do
            g := !g +. (a.(i).(k) *. a.(k).(j))
          done;
          for k = 0 to i - 1 do
            a.(k).(j) <- a.(k).(j) -. (!g *. a.(k).(i))
          done
        done;
      d.(i) <- a.(i).(i);
      a.(i).(i) <- 1.0;
      for j = 0 to i - 1 do
        a.(j).(i) <- 0.0;
        a.(i).(j) <- 0.0
      done
    done;
    (* tql2: implicit-shift QL on (d, e), rotations folded into [a]. *)
    for i = 1 to n - 1 do
      e.(i - 1) <- e.(i)
    done;
    e.(n - 1) <- 0.0;
    for l = 0 to n - 1 do
      let iter = ref 0 in
      let finished = ref false in
      while not !finished do
        let m = ref l in
        let searching = ref true in
        while !searching && !m < n - 1 do
          let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
          if Float.abs e.(!m) <= Float.epsilon *. dd then searching := false
          else incr m
        done;
        let m = !m in
        if m = l then finished := true
        else begin
          incr iter;
          if !iter > 50 then failwith "Lanczos.sym_eig_qr: QL failed to converge";
          let g = ref ((d.(l + 1) -. d.(l)) /. (2.0 *. e.(l))) in
          let r0 = Float.hypot !g 1.0 in
          g := d.(m) -. d.(l) +. (e.(l) /. (!g +. Float.copy_sign r0 !g));
          let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
          let i = ref (m - 1) in
          let underflow = ref false in
          while (not !underflow) && !i >= l do
            let f = !s *. e.(!i) and b = !c *. e.(!i) in
            let r = Float.hypot f !g in
            e.(!i + 1) <- r;
            if r = 0.0 then begin
              (* Rotation annihilated early: deflate and retry. *)
              d.(!i + 1) <- d.(!i + 1) -. !p;
              e.(m) <- 0.0;
              underflow := true
            end
            else begin
              s := f /. r;
              c := !g /. r;
              let gg = d.(!i + 1) -. !p in
              let rr = ((d.(!i) -. gg) *. !s) +. (2.0 *. !c *. b) in
              p := !s *. rr;
              d.(!i + 1) <- gg +. !p;
              g := (!c *. rr) -. b;
              for k = 0 to n - 1 do
                let f = a.(k).(!i + 1) in
                a.(k).(!i + 1) <- (!s *. a.(k).(!i)) +. (!c *. f);
                a.(k).(!i) <- (!c *. a.(k).(!i)) -. (!s *. f)
              done;
              decr i
            end
          done;
          if not !underflow then begin
            d.(l) <- d.(l) -. !p;
            e.(l) <- !g;
            e.(m) <- 0.0
          end
        end
      done
    done;
    let order = Array.init n (fun i -> i) in
    Array.sort (fun i j -> Float.compare d.(i) d.(j)) order;
    let eigs = Array.map (fun i -> d.(i)) order in
    let vecs = Array.init n (fun i -> Array.map (fun j -> a.(i).(j)) order) in
    (eigs, vecs)
  end

(* Classical Gram–Schmidt of [w] against [ortho] and the first [ms]
   basis vectors, accumulating the projection coefficients on the basis
   into [coeffs].  Full reorthogonalisation with the DGKS "twice is
   enough" test: a second pass runs only when the first one cancelled a
   substantial fraction of the norm (the signature of lost
   orthogonality).  This is the dominant vector work of the solver on
   large graphs — the criterion halves it on the typical step — and the
   dots and axpys shard over the pool with the width-independent
   reduction order of {!Matvec.dot}. *)
let dgks_eta = 1.0 /. Float.sqrt 2.0

let orthogonalize ?pool ~ortho ~basis ~ms ~coeffs w =
  Array.fill coeffs 0 (Array.length coeffs) 0.0;
  let pass () =
    Array.iter
      (fun q ->
        let c = Matvec.dot ?pool q w in
        Matvec.axpy ?pool ~alpha:(-.c) q w)
      ortho;
    for i = 0 to ms - 1 do
      let c = Matvec.dot ?pool basis.(i) w in
      coeffs.(i) <- coeffs.(i) +. c;
      Matvec.axpy ?pool ~alpha:(-.c) basis.(i) w
    done
  in
  let before = Matvec.norm2 ?pool w in
  pass ();
  let after = Matvec.norm2 ?pool w in
  if after < dgks_eta *. before then pass ()

(* The stored basis holds at most [basis_cap] vectors; a full basis
   thick-restarts, keeping a few Ritz pairs from each end.  The random
   start direction is drawn from a fixed seed. *)
let basis_cap = 24
let start_seed = 1

let extremes ~n ~matvec ~ortho ~tol ~max_matvecs ?pool () =
  let norm2 x = Matvec.norm2 ?pool x in
  if n < 1 then invalid_arg "Lanczos.extremes: empty operator";
  let dim_free = Int.max 1 (n - Array.length ortho) in
  let m = Int.max 4 (Int.min basis_cap dim_free) in
  let m = Int.min m n in
  (* How many Ritz pairs survive a restart at each end of the spectrum:
     enough to keep the converging wavefronts warm, small enough that a
     restart discards most of the basis. *)
  let keep_per_end = Int.max 1 (Int.min 6 ((m - 2) / 4)) in
  let rng = Cobra_prng.Rng.create start_seed in
  let v = Array.init m (fun _ -> Array.make n 0.0) in
  let t = Array.make_matrix m m 0.0 in
  let coeffs = Array.make m 0.0 in
  let w = Array.make n 0.0 in
  let scratch = Array.make n 0.0 in
  let matvecs = ref 0 in
  let iterations = ref 0 in
  let restarts = ref 0 in
  let apply x y =
    incr matvecs;
    matvec x y
  in
  (* Fill [w] with a fresh random direction orthogonal to everything
     committed so far; false when the complement is (numerically)
     exhausted. *)
  let random_direction ~ms =
    let rec try_draw attempts =
      if attempts = 0 then false
      else begin
        for i = 0 to n - 1 do
          w.(i) <- Cobra_prng.Rng.float01 rng -. 0.5
        done;
        orthogonalize ?pool ~ortho ~basis:v ~ms ~coeffs w;
        let nrm = norm2 w in
        if nrm > 1e-8 then begin
          for i = 0 to n - 1 do
            w.(i) <- w.(i) /. nrm
          done;
          true
        end
        else try_draw (attempts - 1)
      end
    in
    try_draw 4
  in
  (* State across restart cycles: [ms] basis vectors committed, the
     projected matrix in t.(0..ms-1).(0..ms-1), and [w] holding the next
     normalised direction to append (valid when [have_next]). *)
  let ms = ref 0 in
  let have_next = ref (random_direction ~ms:0) in
  let exhausted = ref (not !have_next) in
  let result = ref None in
  let residual_of ~theta ~zcol ~ms:k =
    (* Explicit ||A u - theta u|| for the Ritz vector u = V z. *)
    Array.fill scratch 0 n 0.0;
    for i = 0 to k - 1 do
      Matvec.axpy ?pool ~alpha:zcol.(i) v.(i) scratch
    done;
    apply scratch w;
    Matvec.axpy ?pool ~alpha:(-.theta) scratch w;
    let r = norm2 w in
    (* [w] was clobbered; the caller must re-seed it before extending. *)
    r
  in
  (* Rayleigh–Ritz checkpoints: diagonalise the projected matrix every
     [check_every] appended vectors rather than only when the basis
     fills.  On an easy spectrum the extreme pairs converge long before
     the basis cap, and stopping there skips both the remaining
     extensions and the large projected solve. *)
  let check_every = 8 in
  let next_check = ref check_every in
  while !result = None do
    (* Extend the basis until the next checkpoint, the basis cap,
       breakdown-exhaustion, or out of budget. *)
    let budget_left () = !matvecs < max_matvecs in
    let continue_ = ref true in
    while !continue_ && !ms < Int.min m !next_check && budget_left () do
      if not !have_next then begin
        have_next := random_direction ~ms:!ms;
        if not !have_next then begin
          exhausted := true;
          continue_ := false
        end
      end;
      if !have_next then begin
        let j = !ms in
        Array.blit w 0 v.(j) 0 n;
        ms := j + 1;
        incr iterations;
        apply v.(j) w;
        orthogonalize ?pool ~ortho ~basis:v ~ms:!ms ~coeffs w;
        for i = 0 to j do
          t.(i).(j) <- coeffs.(i);
          t.(j).(i) <- coeffs.(i)
        done;
        let beta = norm2 w in
        if beta > 1e-13 then begin
          for i = 0 to n - 1 do
            w.(i) <- w.(i) /. beta
          done;
          if j + 1 < m then begin
            t.(j).(j + 1) <- beta;
            t.(j + 1).(j) <- beta
          end;
          (* Remember the coupling of the last column for the Ritz
             residual estimate even when the basis is full. *)
          coeffs.(0) <- beta;
          have_next := true
        end
        else begin
          (* Invariant subspace: the recurrence terminated.  Continue
             with a fresh random direction (zero coupling). *)
          coeffs.(0) <- 0.0;
          have_next := false
        end
      end
    done;
    let k = !ms in
    if k = 0 then begin
      (* Nothing orthogonal to [ortho] exists (n = 1 connected graph). *)
      result :=
        Some
          {
            top = 0.0;
            top_vec = Array.make n 0.0;
            bottom = 0.0;
            bottom_vec = Array.make n 0.0;
            stats =
              {
                matvecs = !matvecs;
                iterations = !iterations;
                restarts = !restarts;
                residual = 0.0;
                converged = true;
              };
          }
    end
    else begin
      let beta_last = if !have_next then coeffs.(0) else 0.0 in
      let sub = Array.init k (fun i -> Array.init k (fun j -> t.(i).(j))) in
      let eigs, z = sym_eig_qr sub in
      let zcol j = Array.init k (fun i -> z.(i).(j)) in
      let z_bot = zcol 0 and z_top = zcol (k - 1) in
      let est_bot = Float.abs (beta_last *. z_bot.(k - 1)) in
      let est_top = Float.abs (beta_last *. z_top.(k - 1)) in
      let theta_bot = eigs.(0) and theta_top = eigs.(k - 1) in
      let tol_bot = tol *. Float.max 1.0 (Float.abs theta_bot) in
      let tol_top = tol *. Float.max 1.0 (Float.abs theta_top) in
      let claim_converged =
        (est_bot <= tol_bot && est_top <= tol_top) || !exhausted || not (budget_left ())
      in
      if claim_converged then begin
        (* Confirm with explicit residuals before reporting. *)
        let make_vec zc =
          let u = Array.make n 0.0 in
          for i = 0 to k - 1 do
            Matvec.axpy ?pool ~alpha:zc.(i) v.(i) u
          done;
          Matvec.scale_to_unit ?pool u;
          u
        in
        let res_top = residual_of ~theta:theta_top ~zcol:z_top ~ms:k in
        let res_bot = residual_of ~theta:theta_bot ~zcol:z_bot ~ms:k in
        let worst = Float.max res_top res_bot in
        let confirmed = res_top <= 10.0 *. tol_top && res_bot <= 10.0 *. tol_bot in
        if confirmed || !exhausted || not (budget_left ()) then
          result :=
            Some
              {
                top = theta_top;
                top_vec = make_vec z_top;
                bottom = theta_bot;
                bottom_vec = make_vec z_bot;
                stats =
                  {
                    matvecs = !matvecs;
                    iterations = !iterations;
                    restarts = !restarts;
                    residual = worst;
                    converged = confirmed;
                  };
              }
        else begin
          (* The cheap estimate lied (can happen right after a restart);
             re-seed the next direction and keep going. *)
          have_next := random_direction ~ms:k;
          if not !have_next then exhausted := true
        end
      end;
      if !result = None then begin
        if k < m then
          (* Unconverged checkpoint with room left in the basis: resume
             extending in place — the projected matrix already holds the
             couplings for columns [0..k-1]. *)
          next_check := k + check_every
        else begin
        (* Thick restart: keep [keep_per_end] Ritz pairs from each end
           plus the residual direction already waiting in [w]. *)
        incr restarts;
        let keep = Int.min keep_per_end (k / 2) in
        let keep = Int.max 1 keep in
        let sel = ref [] in
        for i = k - 1 downto k - keep do
          sel := i :: !sel
        done;
        for i = keep - 1 downto 0 do
          sel := i :: !sel
        done;
        let sel = Array.of_list (List.sort_uniq Int.compare !sel) in
        let l = Array.length sel in
        let fresh = Array.init l (fun _ -> Array.make n 0.0) in
        Array.iteri
          (fun jj j ->
            let u = fresh.(jj) in
            for i = 0 to k - 1 do
              Matvec.axpy ?pool ~alpha:z.(i).(j) v.(i) u
            done)
          sel;
        Array.iteri (fun jj u -> Array.blit u 0 v.(jj) 0 n) fresh;
        for i = 0 to m - 1 do
          Array.fill t.(i) 0 m 0.0
        done;
        Array.iteri
          (fun jj j ->
            t.(jj).(jj) <- eigs.(j);
            let s = beta_last *. z.(k - 1).(j) in
            if l < m then begin
              t.(jj).(l) <- s;
              t.(l).(jj) <- s
            end)
          sel;
        ms := l;
        next_check := l + check_every;
        if not !have_next then begin
          have_next := random_direction ~ms:l;
          if not !have_next then exhausted := true
        end
        end
      end
    end
  done;
  Option.get !result
