(** The instrumentation sink.

    Simulator and engine hot paths report through this interface instead of
    touching a registry directly.  The default sink is a no-op and the
    installed-sink check is a single domain-local read, so instrumentation
    sites guard with {!active} and pay nothing (no calls) when telemetry
    is disabled.  Hot sites build their label sets once and pass the same
    value on every call, which lets {!Registry} resolve the series by
    identity:

    {[
      let labels = Labels.v [ ("source", name) ] (* once *)
      ...
      if Sink.active () then Sink.observe "rthv_irq_latency_us" labels us
    ]}

    The installed sink is {b domain-local}: {!install} from a worker domain
    affects only that domain, and fresh domains start with {!noop}.  That is
    what lets {!Rthv_par.Par} give every parallel sweep task its own
    recorder without the tasks racing on a shared registry. *)

type t = {
  incr : string -> Labels.t -> int -> unit;
  gauge : string -> Labels.t -> float -> unit;
  observe : string -> Labels.t -> float -> unit;
      (** A sample of a distribution (latencies, per-slot stolen time). *)
  span : Span.t -> unit;
      (** A completed per-IRQ causal span (see {!Span}). *)
}

val noop : t

val install : t -> unit
val uninstall : unit -> unit

val active : unit -> bool
(** True iff a sink other than {!noop} is installed on this domain.  When no
    sink is installed on {e any} domain — the common case — this is a single
    atomic load and a predictable branch; the domain-local lookup only runs
    while telemetry is on somewhere. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** Install for the duration of the callback, restoring the previous sink
    (even on exceptions). *)

val tee : t -> t -> t
(** A sink dispatching every report to both arguments, in order. *)

(** {2 Dispatch through the installed sink}

    Each is a no-op when nothing is installed; prefer guarding call sites
    with {!active} so argument construction is skipped too. *)

val incr : string -> Labels.t -> int -> unit
val gauge : string -> Labels.t -> float -> unit
val observe : string -> Labels.t -> float -> unit
val span : Span.t -> unit
