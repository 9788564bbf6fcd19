(** The hypervisor simulation.

    A cycle-accurate single-core model of the uC/OS-MMU-style hypervisor of
    Section 3, with the original (Figure 4a) or modified (Figure 4b) top
    handler depending on the configuration:

    - partitions run under static TDMA; every slot begins with a context
      switch of C_ctx paid from inside the slot;
    - hypervisor work (top handlers, monitor checks, scheduler manipulation,
      context switches) executes at the highest priority, FIFO,
      non-preemptible by partition work;
    - each IRQ raises an interrupt-controller line (non-counting pending
      flag); the top handler costs C_TH, acks the line, pushes an event into
      the subscriber's FIFO interrupt queue, reprograms the source's trigger
      timer with the next pre-generated interarrival, and routes the event:
      direct (subscriber owns the current slot), interposed (foreign slot,
      monitor admits) or delayed;
    - an interposed bottom handler executes in the subscriber's context for
      at most C_BH of {e execution time} (budget paused while preempted by
      top handlers), bracketed by C_sched + 2 * C_ctx (equation (13));
    - admission additionally requires that no other interposition is in
      flight (at most one at a time); an interposition still running at a
      slot boundary completes its bounded budget, charged to the incoming
      slot;
    - a bottom handler executing when its own slot ends is allowed to finish
      (switch deferred by at most its remaining budget) under the default
      {!Boundary_policy.Finish_bottom_handler}; under
      {!Boundary_policy.Strict_cut} it is cut, keeps its remaining work at
      the queue head and resumes in its partition's next slot.

    Internally this module is only the stepping loop and a façade: routing
    decisions live in {!Sim_route}, boundary handling in {!Sim_boundary},
    runtime state in {!Sim_state}, statistics assembly in {!Sim_stats}.  The
    policy questions — admit this interposition?  what are the slot lengths?
    cut the handler at the boundary? — are answered by the {!Admission},
    {!Slot_plan} and {!Boundary_policy} values built from the configuration,
    so new policies plug in without touching any code here. *)

type t = Sim_state.t

type stats = Sim_stats.t = {
  completed_irqs : int;
  direct : int;
  interposed : int;
  delayed : int;
  slot_switches : int;  (** Context switches at TDMA slot boundaries. *)
  interposition_switches : int;
      (** Context switches caused by interposed handling (2 per complete
          interposition). *)
  interpositions_started : int;
  boundary_crossings : int;
      (** Interpositions still running when a slot boundary fired; the
          bounded spill is charged to the incoming slot. *)
  bh_boundary_deferrals : int;
      (** Slot switches deferred (by at most the handler's remaining budget)
          because the owner was mid-bottom-handler. *)
  monitor_checks : int;
  admissions : int;
  denials : int;
  coalesced_irqs : int;  (** IRQs lost to an already-pending line. *)
  unfinished_irqs : int;
      (** IRQs delivered whose bottom handler had not completed when {!run}
          stopped (at its horizon); [0] after a run to quiescence.  They
          appear in neither [completed_irqs] nor {!records}. *)
  unraised_arrivals : int;
      (** Arrivals of the sources' interarrival arrays never raised because
          {!run} stopped first: still queued as events, or not yet
          scheduled.  [0] after a run to quiescence.  Every arrival is
          completed, unfinished, coalesced or unraised. *)
  stolen_total : Rthv_engine.Cycles.t array;
      (** Per partition: total foreign interposition time consumed during
          its slots (the interference I_p of equation (2)). *)
  stolen_slot_max : Rthv_engine.Cycles.t array;
      (** Per partition: maximum stolen time in any single slot instance —
          to compare against equation (14) over a window of T_i. *)
  sim_time : Rthv_engine.Cycles.t;  (** Final simulated clock. *)
}

val create :
  ?trace:Hyp_trace.t ->
  ?policies:(string * Admission.t) list ->
  ?retain:bool ->
  Config.t ->
  t
(** [?trace] attaches a hypervisor event trace buffer; every scheduling
    decision (slot switches, deferrals, top handlers, monitor decisions,
    interpositions, completions) is recorded into it.  When an audit hook is
    installed (see {!set_audit_hook}) and no trace is passed, a buffer of
    {!audit_trace_capacity} entries is attached automatically so the hook has
    something to audit.

    [?policies] overrides the admission policy of the named sources,
    bypassing the {!Config.shaping} dispatch — the injection point for
    policies the configuration grammar cannot express ({!Admission.custom}).
    Sources not named keep the policy their shaping describes.  Note that
    the static linter and the trace-invariant oracle derive their bounds
    from the configuration: a run whose real policy is an override should
    not be audited against shaping-derived rules unless the override is at
    least as strict as the declared shaping.

    [?retain] (default [true]): when [false], per-IRQ completion records
    (and the guests' completion lists) are not accumulated — streaming runs
    over millions of IRQs keep O(1) memory.  {!records} then returns [[]];
    {!stats} is unaffected (completion counts are maintained separately).
    @raise Invalid_argument if [Config.validate] fails or a policy names an
    unknown source. *)

val set_audit_hook : (Config.t -> Hyp_trace.t -> unit) option -> unit
(** Install (or clear) the global post-run audit hook.  While installed,
    {!run} invokes it exactly once per simulation — after the run finishes —
    with the simulation's configuration and its event trace.  Simulations
    created before the hook was installed are audited too if they carry a
    trace buffer.  [Rthv_check.Audit_hook] uses this to run the
    trace-invariant oracle across entire test suites. *)

val audit_hook_installed : unit -> bool

val audit_trace_capacity : int
(** Ring-buffer capacity of auto-attached audit traces (2^20 entries). *)

val run : ?horizon:Rthv_engine.Cycles.t -> t -> unit
(** Run until every generated IRQ has completed its bottom handler (and all
    interarrival arrays are exhausted), or until [horizon] (default: one
    simulated hour).  The horizon is checked between segments, so the
    final clock may pass it by the length of the last segment.  IRQs still
    in flight when the run stops are counted in [unfinished_irqs], arrivals
    never raised in [unraised_arrivals].  Idempotent once finished. *)

val records : t -> Irq_record.t list
(** Completed IRQ records, in arrival order. *)

val stats : t -> stats

val guest : t -> int -> Rthv_rtos.Guest.t
(** Partition [i]'s guest, for task-level inspection. *)

val ipc : t -> Rthv_rtos.Ipc.t
(** The hypervisor's IPC port registry. *)

val port : t -> string -> Rthv_rtos.Ipc.port
(** Look up a declared port.  @raise Not_found if undeclared. *)

val admission : t -> source:string -> Admission.t option
(** The named source's admission policy instance (introspection — checks,
    underlying monitor). *)

val monitor : t -> source:string -> Monitor.t option
(** The underlying delta^- monitor of the named source's admission policy,
    if it has one. *)

val now : t -> Rthv_engine.Cycles.t
