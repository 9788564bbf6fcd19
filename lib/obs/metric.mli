(** Metric value kinds.

    The registry stores one of these per (name, labels) series: a
    monotonically increasing counter, a settable gauge, a fixed-bin
    histogram, or a streaming-quantile summary. *)

(** {2 Fixed-bin histogram} *)

type histogram

val histogram : bounds:float array -> histogram
(** [bounds] are the inclusive upper bounds of the finite buckets, strictly
    increasing; an implicit overflow bucket catches everything above the
    last bound.  @raise Invalid_argument on an empty or non-increasing
    array. *)

val default_latency_bounds : float array
(** Log-spaced microsecond bounds (1 µs .. 100 ms) suited to interrupt
    latencies. *)

val observe : histogram -> float -> unit
val bounds : histogram -> float array
val bucket_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts; one longer than {!bounds}, the last
    entry being the overflow bucket. *)

val cumulative : histogram -> (float * int) list
(** [(upper_bound, cumulative_count)] pairs per finite bucket — the
    Prometheus [le] view, without the trailing [+Inf] bucket (that is
    {!total}). *)

val total : histogram -> int
val sum : histogram -> float

val copy : histogram -> histogram
(** Independent deep copy. *)

val merge_into : into:histogram -> histogram -> unit
(** [merge_into ~into b] adds [b]'s bucket counts, sum and total to [into]
    in place (exact and associative), so a histogram handed out by
    {!Registry} stays the live cell across a registry merge.
    @raise Invalid_argument if the bucket bounds differ. *)

(** {2 The stored value} *)

type value =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram
  | Summary of Quantile.t

val kind_name : value -> string

val copy_value : value -> value
(** Independent deep copy of any stored value. *)
