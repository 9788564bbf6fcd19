(** Per-IRQ causal spans.

    One span per interrupt instance: the six timestamps (in microseconds of
    simulated time) from hardware assertion to bottom-handler completion,
    plus the identity of the source and the handling class the monitor
    chose.  Consecutive timestamp differences are the named latency
    components of the paper's decomposition (eq. 2):

    {v
    raised --(top_wait)--> top_handler --(decision_wait)--> decision
           --(queue_wait | slot_wait | interposed_wait)--> bottom_handler
           --> completed
    v} *)

type t = {
  sp_irq : int;  (** Per-run unique instance id (simulator IRQ counter). *)
  sp_line : int;
  sp_source : string;
  sp_class : string;  (** ["direct"], ["interposed"] or ["delayed"]. *)
  sp_arrival : float;
  sp_top_start : float;
  sp_top_end : float;
  sp_decision : float;
      (** When the handling class was fixed: the monitor verdict for
          monitored lines, the post-top-handler classification otherwise. *)
  sp_bh_start : float;  (** First cycle of bottom-half execution. *)
  sp_completion : float;
}

val latency : t -> float
(** End-to-end [completion - arrival]; equals the sum of {!components}. *)

val wait_component : string -> string
(** The class-specific name of the dispatch-wait component:
    [interposed_wait], [slot_wait] or [queue_wait]. *)

val n_components : int
(** Components per span: 5. *)

val component_name : t -> int -> string
(** [component_name t i] is the name of component [i] of [t]
    ([0 <= i < n_components], causal order).
    @raise Invalid_argument outside that range. *)

val component : t -> int -> float
(** [component t i] is the duration of component [i] in microseconds,
    without building the {!components} list.
    @raise Invalid_argument outside [0, n_components). *)

val component_names : t -> string list
(** The five component names of this span, in causal order. *)

val all_component_names : string list
(** Every component name that can occur, in causal order (the three
    class-specific waits are mutually exclusive within one span). *)

val components : t -> (string * float) list
(** [(name, duration_us)] per component, in causal order; durations sum
    exactly to {!latency}. *)

val valid : t -> bool
(** Timestamps are monotone, i.e. every component is non-negative. *)

val pp : Format.formatter -> t -> unit
