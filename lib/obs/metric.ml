type histogram = {
  h_bounds : float array;
  counts : int array;  (* length bounds + 1; last is the overflow bucket *)
  mutable h_sum : float;
  mutable h_total : int;
}

let histogram ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metric.histogram: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metric.histogram: bounds must be strictly increasing"
  done;
  {
    h_bounds = Array.copy bounds;
    counts = Array.make (n + 1) 0;
    h_sum = 0.;
    h_total = 0;
  }

(* 1 µs to 100 ms, roughly 1-2-5 per decade. *)
let default_latency_bounds =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
    10_000.; 20_000.; 50_000.; 100_000.;
  |]

let observe h x =
  let n = Array.length h.h_bounds in
  let rec find i = if i >= n || x <= h.h_bounds.(i) then i else find (i + 1) in
  let i = find 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. x;
  h.h_total <- h.h_total + 1

let bounds h = Array.copy h.h_bounds
let bucket_counts h = Array.copy h.counts

let cumulative h =
  let acc = ref 0 in
  Array.to_list
    (Array.mapi
       (fun i bound ->
         acc := !acc + h.counts.(i);
         (bound, !acc))
       h.h_bounds)

let total h = h.h_total
let sum h = h.h_sum

let copy h =
  {
    h_bounds = Array.copy h.h_bounds;
    counts = Array.copy h.counts;
    h_sum = h.h_sum;
    h_total = h.h_total;
  }

let merge_into ~into b =
  if into.h_bounds <> b.h_bounds then
    invalid_arg "Metric.merge: histogram bucket bounds differ";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) b.counts;
  into.h_sum <- into.h_sum +. b.h_sum;
  into.h_total <- into.h_total + b.h_total

type value =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram
  | Summary of Quantile.t

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Summary _ -> "summary"

let copy_value = function
  | Counter r -> Counter (ref !r)
  | Gauge r -> Gauge (ref !r)
  | Histogram h -> Histogram (copy h)
  | Summary q -> Summary (Quantile.copy q)
