(** Registry-backed sink.

    The standard telemetry wiring: create a recorder, {!install} it, run
    simulations, then read its {!registry} (text, JSON or Prometheus via
    {!Registry}).  [incr] lands in counters, [gauge] in gauges and
    [observe] in streaming-quantile summaries, so latency percentiles are
    tracked online without sample retention.  Spans are folded into
    [rthv_irq_spans_total{source,class}] counters and one
    [rthv_irq_component_us{source,class,component}] summary per latency
    component (see {!Span.component}).  Each recorder resolves those six
    cells once per (source, class) and keeps them in a cache of its own. *)

type t

val create : ?registry:Registry.t -> unit -> t
(** Record into [registry] (default: a fresh one). *)

val registry : t -> Registry.t
val sink : t -> Sink.t

val install : t -> unit
(** [Sink.install (sink t)]. *)
