(* The P² algorithm, Jain & Chlamtac, "The P² algorithm for dynamic
   calculation of quantiles and histograms without storing observations",
   CACM 28(10), 1985.  Five markers track the minimum, the p/2, p and
   (1+p)/2 quantiles and the maximum; marker heights are adjusted with a
   piecewise-parabolic (P²) interpolation as observations stream in. *)

type estimator = {
  p : float;
  q : float array;  (* marker heights *)
  n : int array;  (* marker positions, 1-based *)
  n' : float array;  (* desired marker positions *)
  dn : float array;  (* desired position increments *)
  mutable count : int;
}

let estimator p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Quantile.estimator: p must be in (0, 1)";
  {
    p;
    q = Array.make 5 0.;
    n = [| 1; 2; 3; 4; 5 |];
    n' = [| 1.; 1. +. (2. *. p); 1. +. (4. *. p); 3. +. (2. *. p); 5. |];
    dn = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
    count = 0;
  }

(* [parabolic] and [linear] are inlined into [add]: as calls, each would
   box its float result. *)
let[@inline] parabolic t i d =
  let q = t.q and n = t.n in
  q.(i)
  +. d
     /. float_of_int (n.(i + 1) - n.(i - 1))
     *. (((float_of_int (n.(i) - n.(i - 1)) +. d)
          *. (q.(i + 1) -. q.(i))
          /. float_of_int (n.(i + 1) - n.(i)))
        +. ((float_of_int (n.(i + 1) - n.(i)) -. d)
           *. (q.(i) -. q.(i - 1))
           /. float_of_int (n.(i) - n.(i - 1))))

let[@inline] linear t i d =
  let di = int_of_float d in
  t.q.(i)
  +. d
     *. (t.q.(i + di) -. t.q.(i))
     /. float_of_int (t.n.(i + di) - t.n.(i))

let add t x =
  t.count <- t.count + 1;
  if t.count <= 5 then begin
    t.q.(t.count - 1) <- x;
    if t.count = 5 then Array.sort Float.compare t.q
  end
  else begin
    (* Find the cell k with q.(k) <= x < q.(k+1), clamping the extremes. *)
    let k =
      if x < t.q.(0) then begin
        t.q.(0) <- x;
        0
      end
      else if x >= t.q.(4) then begin
        t.q.(4) <- x;
        3
      end
      else begin
        let i = ref 0 in
        while not (x < t.q.(!i + 1)) do
          incr i
        done;
        !i
      end
    in
    for i = k + 1 to 4 do
      t.n.(i) <- t.n.(i) + 1
    done;
    for i = 0 to 4 do
      t.n'.(i) <- t.n'.(i) +. t.dn.(i)
    done;
    (* Adjust the three interior markers if they drifted off their desired
       positions by one or more. *)
    for i = 1 to 3 do
      let d = t.n'.(i) -. float_of_int t.n.(i) in
      if
        (d >= 1. && t.n.(i + 1) - t.n.(i) > 1)
        || (d <= -1. && t.n.(i - 1) - t.n.(i) < -1)
      then begin
        let d = if d >= 0. then 1. else -1. in
        let candidate = parabolic t i d in
        let q' =
          if t.q.(i - 1) < candidate && candidate < t.q.(i + 1) then candidate
          else linear t i d
        in
        t.q.(i) <- q';
        t.n.(i) <- t.n.(i) + int_of_float d
      end
    done
  end

let exact_small t =
  (* Fewer than five observations: nearest-rank on the stored values. *)
  let sorted = Array.sub t.q 0 t.count in
  Array.sort Float.compare sorted;
  let rank =
    int_of_float (Float.ceil (t.p *. float_of_int t.count))
  in
  sorted.(Stdlib.max 0 (Stdlib.min (t.count - 1) (rank - 1)))

let estimate t =
  if t.count = 0 then None
  else if t.count < 5 then Some (exact_small t)
  else Some t.q.(2)

let observations t = t.count

(* --- digest ------------------------------------------------------------- *)

(* The running moments live in an all-float record, which OCaml stores
   flat: updating them writes floats in place instead of boxing each new
   value, so {!observe} allocates nothing. *)
type moments = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  estimators : estimator array;  (* ascending in p *)
  mutable d_count : int;
  m : moments;
}

let default_quantiles = [ 0.5; 0.95; 0.99; 0.999 ]

let create ?(quantiles = default_quantiles) () =
  if quantiles = [] then invalid_arg "Quantile.create: no quantiles";
  {
    estimators =
      Array.of_list (List.map estimator (List.sort_uniq Float.compare quantiles));
    d_count = 0;
    m = { sum = 0.; min_v = Float.infinity; max_v = Float.neg_infinity };
  }

let observe t x =
  t.d_count <- t.d_count + 1;
  let m = t.m in
  m.sum <- m.sum +. x;
  if x < m.min_v then m.min_v <- x;
  if x > m.max_v then m.max_v <- x;
  for i = 0 to Array.length t.estimators - 1 do
    add t.estimators.(i) x
  done

let count t = t.d_count
let mean t = if t.d_count = 0 then None else Some (t.m.sum /. float_of_int t.d_count)
let min_value t = if t.d_count = 0 then None else Some t.m.min_v
let max_value t = if t.d_count = 0 then None else Some t.m.max_v

let quantile t p =
  match Array.find_opt (fun e -> Float.equal e.p p) t.estimators with
  | None -> None
  | Some e -> estimate e

let quantiles t =
  if t.d_count = 0 then []
  else
    List.filter_map
      (fun e -> Option.map (fun v -> (e.p, v)) (estimate e))
      (Array.to_list t.estimators)

(* --- merge -------------------------------------------------------------- *)

let copy_estimator e =
  {
    e with
    q = Array.copy e.q;
    n = Array.copy e.n;
    n' = Array.copy e.n';
    dn = Array.copy e.dn;
  }

(* The P² state is lossy, so a merge cannot be exact in general.  Below five
   observations the q array still holds the raw samples; past that the five
   markers are a piecewise-linear sketch of the empirical CDF, and we
   reconstruct one pseudo-sample per rank from it.  Replaying those into a
   fresh estimator is deterministic (no clocks, no randomness), exact when
   the combined count fits in the small-sample regime, and keeps min/max
   exact because markers 0 and 4 are the true extremes. *)
let pseudo_samples e =
  Array.init e.count (fun i ->
      let r = i + 1 in
      let rec seg j = if j >= 3 || r <= e.n.(j + 1) then j else seg (j + 1) in
      let j = seg 0 in
      let n0 = e.n.(j) and n1 = e.n.(j + 1) in
      if n1 = n0 then e.q.(j)
      else
        let frac = float_of_int (r - n0) /. float_of_int (n1 - n0) in
        e.q.(j) +. (frac *. (e.q.(j + 1) -. e.q.(j))))

let samples_of e =
  if e.count <= 5 then Array.sub e.q 0 e.count else pseudo_samples e

let merge_estimator p ea eb =
  if ea.count = 0 then copy_estimator eb
  else if eb.count = 0 then copy_estimator ea
  else begin
    let m = estimator p in
    Array.iter (add m) (samples_of ea);
    Array.iter (add m) (samples_of eb);
    m
  end

let copy t =
  {
    estimators = Array.map copy_estimator t.estimators;
    d_count = t.d_count;
    m = { sum = t.m.sum; min_v = t.m.min_v; max_v = t.m.max_v };
  }

let merge a b =
  if Array.map (fun e -> e.p) a.estimators <> Array.map (fun e -> e.p) b.estimators
  then invalid_arg "Quantile.merge: tracked quantile sets differ";
  {
    estimators =
      Array.map2 (fun ea eb -> merge_estimator ea.p ea eb) a.estimators
        b.estimators;
    d_count = a.d_count + b.d_count;
    m =
      {
        sum = a.m.sum +. b.m.sum;
        min_v = Float.min a.m.min_v b.m.min_v;
        max_v = Float.max a.m.max_v b.m.max_v;
      };
  }

let merge_into ~into b =
  let merged = merge into b in
  Array.blit merged.estimators 0 into.estimators 0
    (Array.length into.estimators);
  into.d_count <- merged.d_count;
  into.m.sum <- merged.m.sum;
  into.m.min_v <- merged.m.min_v;
  into.m.max_v <- merged.m.max_v

let pp ppf t =
  if t.d_count = 0 then Format.fprintf ppf "n=0"
  else begin
    Format.fprintf ppf "n=%d mean=%.1f min=%.1f" t.d_count
      (Option.get (mean t))
      t.m.min_v;
    List.iter
      (fun (p, v) -> Format.fprintf ppf " p%g=%.1f" (p *. 100.) v)
      (quantiles t);
    Format.fprintf ppf " max=%.1f" t.m.max_v
  end
