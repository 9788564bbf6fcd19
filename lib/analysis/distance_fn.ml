module Cycles = Rthv_engine.Cycles

type t = { entries : Cycles.t array }

(* Sentinel for "no distance learned yet": large enough to never be met by a
   real trace, small enough that sums of a few of them cannot overflow. *)
let huge = max_int / 4

let length t = Array.length t.entries
let entries t = Array.copy t.entries

let normalise entries =
  let n = Array.length entries in
  let out = Array.make n 0 in
  let running_max = ref 0 in
  for i = 0 to n - 1 do
    let v = Stdlib.max 0 entries.(i) in
    running_max := Stdlib.max !running_max v;
    out.(i) <- !running_max
  done;
  out

let of_entries entries =
  if Array.length entries = 0 then
    invalid_arg "Distance_fn.of_entries: empty array";
  { entries = normalise entries }

let d_min d = of_entries [| d |]

let finite t = Array.for_all (fun e -> e < huge) t.entries

let unbounded ~l =
  if l <= 0 then invalid_arg "Distance_fn.unbounded: l must be positive";
  { entries = Array.make l 0 }

let delta t q =
  if q < 0 then invalid_arg "Distance_fn.delta: negative q"
  else if q <= 1 then 0
  else begin
    let l = Array.length t.entries in
    if q - 2 < l then t.entries.(q - 2)
    else begin
      (* Superadditive extension in closed form: peel off k complete chunks
         of l gaps (each worth entries.(l-1)) until the remainder r lands in
         the stored horizon, i.e. delta(q) = k*entries.(l-1) + delta(r) with
         r = q - k*l in [2, l+1]. *)
      let k = (q - 2) / l in
      let r = q - (k * l) in
      let rest = if r <= 1 then 0 else t.entries.(r - 2) in
      Cycles.( + ) (Cycles.( * ) t.entries.(l - 1) k) rest
    end
  end

let eta_plus t dt =
  if dt <= 0 then 0
  else begin
    let l = Array.length t.entries in
    if t.entries.(l - 1) = 0 then
      failwith "Distance_fn.eta_plus: degenerate function admits unbounded load";
    (* delta is non-decreasing and unbounded here; find max q with
       delta q < dt by doubling then binary search.  Plain loops over refs
       the compiler keeps in registers: no closure per call. *)
    let hi = ref 2 in
    while delta t !hi < dt do
      hi := !hi * 2
    done;
    (* Invariant: delta lo < dt <= delta hi. *)
    let lo = ref 1 in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if delta t mid < dt then lo := mid else hi := mid
    done;
    !lo
  end

let conforms t timestamps =
  let ts = Array.of_list timestamps in
  let n = Array.length ts in
  let l = Array.length t.entries in
  let ok = ref true in
  for j = 1 to n - 1 do
    let i_min = Stdlib.max 0 (j - l) in
    for i = i_min to j - 1 do
      let span = Cycles.( - ) ts.(j) ts.(i) in
      if span < delta t (j - i + 1) then ok := false
    done
  done;
  !ok

let of_trace ~l timestamps =
  if l <= 0 then invalid_arg "Distance_fn.of_trace: l must be positive";
  let entries = Array.make l huge in
  let tracebuffer = Array.make l None in
  let learn ts =
    (* Algorithm 1: compare against the last l timestamps, then shift. *)
    for i = 0 to l - 1 do
      match tracebuffer.(i) with
      | None -> ()
      | Some previous ->
          let distance = Cycles.( - ) ts previous in
          if distance < entries.(i) then entries.(i) <- distance
    done;
    for i = l - 1 downto 1 do
      tracebuffer.(i) <- tracebuffer.(i - 1)
    done;
    tracebuffer.(0) <- Some ts
  in
  List.iter learn timestamps;
  { entries = normalise entries }

let adjust_to_bound ~learned ~bound =
  if length learned <> length bound then
    invalid_arg "Distance_fn.adjust_to_bound: length mismatch";
  let entries =
    Array.mapi
      (fun i v -> Stdlib.max v bound.entries.(i))
      learned.entries
  in
  { entries = normalise entries }

let scale_load t ~factor =
  if factor <= 0. then invalid_arg "Distance_fn.scale_load: factor <= 0";
  let scale v =
    let scaled = float_of_int v /. factor in
    if scaled >= float_of_int huge then huge
    else int_of_float (Float.round scaled)
  in
  { entries = normalise (Array.map scale t.entries) }

let long_term_rate t =
  let l = Array.length t.entries in
  let span = t.entries.(l - 1) in
  if span = 0 then infinity else float_of_int l /. float_of_int span

let pp ppf t =
  Format.fprintf ppf "delta^-[%d]{" (Array.length t.entries);
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf "; ";
      if v >= huge then Format.fprintf ppf "_" else Cycles.pp ppf v)
    t.entries;
  Format.fprintf ppf "}"

let equal a b = a.entries = b.entries
