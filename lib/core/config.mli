(** System configuration for the hypervisor simulation. *)

type shaping =
  | No_shaping
      (** Original top handler (Figure 4a): foreign IRQs are always
          delayed. *)
  | Fixed_monitor of Rthv_analysis.Distance_fn.t
      (** Modified top handler with a predefined monitoring condition. *)
  | Self_learning of {
      l : int;
      learn_events : int;
      bound : Rthv_analysis.Distance_fn.t option;
    }  (** Appendix-A self-learning monitor. *)
  | Token_bucket of { capacity : int; refill : Rthv_engine.Cycles.t }
      (** Related-work baseline (Regehr & Duongsaa): rate-based throttling
          with a burst allowance instead of a distance condition. *)
  | Budgeted of { per_cycle : int }
      (** Per-source interposition budget: at most [per_cycle] admissions in
          any aligned TDMA-cycle window; further conforming arrivals are
          delayed to the subscriber slot.  No distance condition is
          maintained, so the eq.-(16) per-instance bound never applies —
          only the interference cap of [per_cycle] interpositions per
          cycle window. *)
  | Monitor_and_bucket of {
      fn : Rthv_analysis.Distance_fn.t;
      capacity : int;
      refill : Rthv_engine.Cycles.t;
    }
      (** Composite: a δ⁻ monitor AND a token bucket must both admit.  The
          monitor gives the interference bound of eq. (14); the bucket caps
          bursts the condition happens to permit.  The eq.-(16) per-instance
          bound applies only when the bucket is provably vacuous against
          [fn] (see {!Rthv_analysis.Bound.per_instance_condition}). *)

type arrival_mode =
  | Reprogram
      (** Entry 0 of [interarrivals] is relative to time 0; entry i+1 is
          programmed from within IRQ i's top handler, as the paper's trigger
          timer is.  Arrivals never coalesce in this mode. *)
  | Absolute
      (** The distances are accumulated into absolute raise times scheduled
          up front (trace replay).  Raises hitting a still-pending line
          coalesce, as on real hardware with non-counting IRQ flags. *)

type source = {
  name : string;
  line : int;  (** Interrupt-controller line; unique per source. *)
  subscriber : int;  (** Index of the partition owning the bottom handler. *)
  c_th : Rthv_engine.Cycles.t;  (** Top handler WCET. *)
  c_bh : Rthv_engine.Cycles.t;  (** Bottom handler WCET = interposition budget. *)
  interarrivals : Rthv_engine.Cycles.t array;
      (** Pre-generated distances; interpreted per [arrival_mode]. *)
  arrival_mode : arrival_mode;
  shaping : shaping;
  activates : Rthv_rtos.Task.spec option;
      (** Guest task signalled by the bottom handler: on each bottom-handler
          completion one aperiodic job of this task is released in the
          subscriber partition (the uC/OS pattern of a handler posting to a
          task).  Its completions appear in the subscriber guest's
          record. *)
}

type partition = {
  pname : string;
  slot : Rthv_engine.Cycles.t;
  tasks : Rthv_rtos.Task.spec list;
  busy_loop : bool;
  policy : Rthv_rtos.Guest.policy;
}

type plan_spec =
  | Partition_slots
      (** The paper's schedule: each partition's [slot] field is its slot
          length, in declaration order. *)
  | Weighted_plan of { cycle : Rthv_engine.Cycles.t; weights : int array }
      (** A fixed TDMA cycle apportioned over integer weights (one per
          partition, in declaration order) by {!Slot_plan.weighted}; the
          partitions' [slot] fields are ignored. *)

type t = {
  platform : Rthv_hw.Platform.t;
  partitions : partition list;  (** In TDMA cycle order. *)
  sources : source list;
  ports : (string * int) list;
      (** Hypervisor-owned IPC queuing ports: (name, capacity).  Tasks refer
          to them through {!Rthv_rtos.Task.spec}'s [produces]/[consumes]. *)
  boundary : Boundary_policy.t;
      (** What happens to a bottom handler still executing at its own slot's
          end; see {!Boundary_policy}. *)
  plan : plan_spec;  (** How per-partition slot lengths are produced. *)
}

val partition :
  name:string ->
  slot_us:int ->
  ?tasks:Rthv_rtos.Task.spec list ->
  ?busy_loop:bool ->
  ?policy:Rthv_rtos.Guest.policy ->
  unit ->
  partition
(** [policy] defaults to fixed-priority scheduling. *)

val source :
  name:string ->
  line:int ->
  subscriber:int ->
  c_th_us:int ->
  c_bh_us:int ->
  interarrivals:Rthv_engine.Cycles.t array ->
  ?arrival_mode:arrival_mode ->
  ?shaping:shaping ->
  ?activates:Rthv_rtos.Task.spec ->
  unit ->
  source
(** [arrival_mode] defaults to [Reprogram]; [shaping] to [No_shaping];
    no task activation by default. *)

val make :
  ?platform:Rthv_hw.Platform.t ->
  ?finish_bh_at_boundary:bool ->
  ?boundary:Boundary_policy.t ->
  ?plan:plan_spec ->
  ?ports:(string * int) list ->
  partitions:partition list ->
  sources:source list ->
  unit ->
  t
(** Defaults to the paper's ARM926ej-s platform,
    {!Boundary_policy.default}, [Partition_slots], and no IPC ports.
    [finish_bh_at_boundary] is the legacy boolean encoding of [boundary];
    if both are given, [boundary] wins. *)

val finish_bh_at_boundary : t -> bool
(** [Boundary_policy.defers t.boundary] — the legacy boolean view. *)

val validate : t -> (unit, string) result
(** {!validate_structure}, then that the configuration can be simulated:
    the slot switches (one C_ctx per slot of {!effective_slots}) must not
    fill the whole TDMA cycle, or no partition ever runs and the
    hypervisor's queue of switches grows without end.  A single slot no
    longer than C_ctx among longer ones passes (lint rule RTHV002 reports
    it). *)

val validate_structure : t -> (unit, string) result
(** Checks subscriber indices, line uniqueness and ranges, positive WCETs,
    non-negative interarrivals, shaping parameter sanity — including that
    every monitoring condition ({!Fixed_monitor}, {!Monitor_and_bucket},
    and a {!Self_learning} seed bound) is {!Rthv_analysis.Distance_fn.finite},
    i.e. free of the unlearned-position sentinel whose superadditive sums
    overflow the analysis — plan/weight consistency, and that every port
    referenced by a task is declared (with positive capacity and a unique
    name). *)

val slot_plan : t -> Slot_plan.t
(** The slot schedule described by [t.plan]. *)

val effective_slots : t -> Rthv_engine.Cycles.t array
(** Compiled per-partition slot lengths — [Slot_plan.slots (slot_plan t)].
    Analyses must use this rather than the partitions' [slot] fields so
    that weighted plans are bounded against the schedule actually run. *)

val tdma : t -> Tdma.t

val monitoring_enabled : t -> bool
(** True iff any source uses the modified top handler. *)
