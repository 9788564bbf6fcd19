(** Streaming quantile estimation.

    The P² algorithm (Jain & Chlamtac, CACM 1985): five markers per tracked
    quantile, updated in O(1) per observation, no sample retention — the
    online replacement for sorting every latency into
    {!Rthv_stats.Summary.of_list}.  Estimates are exact up to five
    observations and converge to the true quantile as the sample grows. *)

(** {2 Single-quantile estimator} *)

type estimator

val estimator : float -> estimator
(** [estimator p] tracks the [p]-quantile, [0 < p < 1].
    @raise Invalid_argument outside that range. *)

val add : estimator -> float -> unit

val estimate : estimator -> float option
(** Current estimate; [None] before the first observation. *)

val observations : estimator -> int

(** {2 Digest: several quantiles plus the running moments} *)

type t

val default_quantiles : float list
(** [[0.5; 0.95; 0.99; 0.999]] *)

val create : ?quantiles:float list -> unit -> t
(** One P² estimator per requested quantile, plus count / mean / min /
    max tracking.  @raise Invalid_argument on an empty list or a quantile
    outside (0, 1). *)

val observe : t -> float -> unit
(** O(1) and allocation-free: the running moments and every estimator are
    updated in place. *)

val count : t -> int
val mean : t -> float option
val min_value : t -> float option
val max_value : t -> float option

val quantile : t -> float -> float option
(** Estimate for one of the tracked quantiles; [None] when that quantile
    is not tracked or nothing was observed. *)

val quantiles : t -> (float * float) list
(** All tracked [(p, estimate)] pairs, ascending in [p]; empty before the
    first observation. *)

val copy : t -> t
(** Independent deep copy; further observations on either side do not
    affect the other. *)

val merge : t -> t -> t
(** [merge a b] is a fresh digest summarising both inputs (neither is
    mutated).  Count, sum, min and max are combined exactly.  Quantile
    estimates are exact while the combined count is at most five; beyond
    that each side's markers are expanded into one pseudo-sample per rank
    (piecewise-linear in the marker sketch) and replayed, which is fully
    deterministic — merging the same digests in the same order always
    yields bit-identical results — but approximate, like P² itself.
    @raise Invalid_argument if the two digests track different quantile
    sets. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into b] makes [into] the digest {!merge} [into b] would
    return, in place, so a digest handed out by {!Registry} stays the live
    cell after a registry merge.
    @raise Invalid_argument as {!merge}. *)

val pp : Format.formatter -> t -> unit
