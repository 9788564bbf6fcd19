(** Pass 1 — static configuration analyzer.

    A rule engine over {!Rthv_core.Config} values that cross-checks every
    configuration against the paper's analysis before a single cycle is
    simulated.  Rules are not syntactic pattern matches: where the paper
    provides an equation, the rule evaluates it — the schedulability rules
    run the real {!Rthv_analysis.Certificate} / {!Rthv_analysis.Guest_sched}
    busy-window analysis, the overload rules evaluate the equation-(14)
    utilisation loss of the configured monitoring conditions.

    Rule codes (see also DESIGN.md for the paper-equation mapping):

    - [RTHV001] configuration fails {!Rthv_core.Config.validate} (Error);
    - [RTHV002] a partition slot cannot cover the slot-entry context switch
      (Error);
    - [RTHV003] a monitoring condition admits unbounded load — eq. (14)
      yields no bound (Error);
    - [RTHV004] the granted monitors' long-term eq.-(14) interference
      utilisation reaches 1.0 (Error);
    - [RTHV005] a partition's task set fails the sufficient-temporal-
      independence certificate, eq. (2) with eq.-(14) interference (Error);
    - [RTHV006] a partition's task utilisation exceeds its TDMA share even
      before interference (Error);
    - [RTHV007] a self-learning monitor never reaches a useful run phase
      (Warning);
    - [RTHV008] a shaped source never fires — the grant is vacuous
      (Warning);
    - [RTHV009] the workload's average rate exceeds the monitoring
      condition, so sustained denials are expected (Info);
    - [RTHV010] a token-bucket throttle with a burst allowance dominates the
      equivalent d_min bound (Warning);
    - [RTHV011] duplicate partition names (Warning);
    - [RTHV012] a bottom handler does not fit its subscriber's slot / a
      grant's effective cost exceeds the subscriber's slot (Warning/Error);
    - [RTHV013] a per-source interposition budget's aligned-window bound can
      consume an entire foreign slot (Error);
    - [RTHV014] a composite monitor-and-bucket's bucket is provably vacuous
      against its monitoring condition (Info) or can deny conforming
      activations so eq. (16) does not apply (Warning);
    - [RTHV015] a per-source interposition budget the workload can never
      exhaust — dead configuration still paying C_Mon (Info);
    - [RTHV016] a source claims the eq.-(16) per-instance bound but other
      shaped sources can interpose — cross-source queueing voids the
      sole-interposer assumption (Warning);
    - [RTHV017] a weighted plan's effective slot can no longer complete a
      bottom handler that the partition's declared slot could — the plan
      starves the subscriber (Error);
    - [RTHV018] the interval certificate (every active policy's curve,
      buckets and budgets included) refutes a partition the grant-only
      closed form passed (Error);
    - [RTHV019] an admission policy allows more interpositions per cycle
      than the serialization ceiling can physically complete — the eq.-(14)
      budget is provably conservative (Info);
    - [RTHV020] sustained demand (tasks plus subscribed sources' bottom-half
      load) exceeds the partition's TDMA share — unbounded backlog (Error).

    All slot-dependent rules evaluate {!Rthv_core.Config.effective_slots},
    so weighted slot plans are linted against the schedule actually run.

    Rules RTHV002..RTHV006 and RTHV013/RTHV015..RTHV020 read the interval
    facts of {!Absint} — one abstract interpretation per [analyze] call —
    and the remaining rules the configuration directly. *)

val analyze : Rthv_core.Config.t -> Diagnostic.t list
(** Run every rule; diagnostics are returned sorted most severe first.  If
    the configuration fails [Config.validate_structure], only [RTHV001] is
    reported (the remaining rules assume structural validity).  A
    structurally valid configuration that still fails [Config.validate]
    (its slot switches fill the TDMA cycle) gets [RTHV001] next to the
    static rules, [RTHV002] among them. *)

val rules : (string * string) list
(** [(code, one-line description)] for every static rule, in code order. *)

val c_bh_eff :
  platform:Rthv_hw.Platform.t -> c_bh:Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** Equation (13): [C'_BH = C_BH + C_sched + 2*C_ctx] for the platform. *)

val static_condition :
  Rthv_core.Config.shaping -> Rthv_analysis.Distance_fn.t option
(** The statically known delta^- envelope of the admitted stream: the
    configured condition for [Fixed_monitor], the load bound for a bounded
    [Self_learning] monitor (Algorithm 2 raises every learned entry to the
    bound, so the run-phase condition is at least as strict), [None]
    otherwise. *)

val degenerate : Rthv_analysis.Distance_fn.t -> bool
(** All entries zero: eq. (14) yields no bound. *)

val shaped : Rthv_core.Config.source -> bool
(** The source uses the modified top handler or the throttle baseline. *)

val bound_policy :
  cycle:Rthv_engine.Cycles.t ->
  Rthv_core.Config.shaping ->
  Rthv_analysis.Bound.policy
(** The analysis-side descriptor of a shaping policy — the single mapping
    from configuration variants onto {!Rthv_analysis.Bound.policy}, shared
    by this linter, {!Trace_oracle} and {!Headroom}.  [cycle] (the TDMA
    cycle length) parameterizes budgeted policies. *)
