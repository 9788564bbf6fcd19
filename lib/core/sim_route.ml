(* Top-handler routing: delivery of a raised line, the paid admission check
   and the direct / interposed / delayed classification.  All policy
   questions are delegated to the source's {!Admission} policy — this layer
   never looks inside it.

   Hypervisor work items carry a {!Sim_state.hyp_kind} instead of [on_done]
   closures; {!hyp_done} is the single dispatcher that runs each kind's
   continuation when its cost has been fully attributed.  This keeps the
   per-IRQ chain (top handler -> monitor -> sched manip -> ctx switches)
   allocation-free. *)

module Cycles = Rthv_engine.Cycles
module Irq_queue = Rthv_rtos.Irq_queue
module Guest = Rthv_rtos.Guest
module Intc = Rthv_hw.Intc
open Sim_state

(* Decision point of the modified top handler (Figure 4b), reached after the
   admission predicate ran: admit the interposition or fall back to delayed
   handling. *)
(* Record one monitor verdict (trace + telemetry); top-level so the hot
   path allocates no closure, and guarded so untraced runs do not build the
   event value. *)
let record_decision t src p verdict =
  if tracing t then
    trace_event t
      (Hyp_trace.Monitor_decision
         {
           irq = p.p_irq;
           line = src.cfg.Config.line;
           arrival = p.p_arrival;
           verdict;
         });
  if obs_active () then obs_monitor_decision t src verdict

let monitor_done t src p =
  Prof.enter t.prof ph_admission;
  p.p_decision <- t.now;
  let conforms = Admission.decide src.admission p.p_arrival in
  let subscriber = src.cfg.Config.subscriber in
  if t.slot_owner = subscriber then begin
    (* The subscriber's slot opened between the arrival and the monitoring
       decision: the queued event is processed right away in its own slot —
       direct handling, no interposition machinery needed. *)
    record_decision t src p `Fallback_direct;
    p.p_class <- Irq_record.Direct;
    t.n_direct <- t.n_direct + 1
  end
  else if conforms && not t.interposition_pending then begin
    Admission.commit src.admission p.p_arrival;
    t.admissions <- t.admissions + 1;
    p.p_class <- Irq_record.Interposed;
    t.n_interposed <- t.n_interposed + 1;
    t.interposition_pending <- true;
    record_decision t src p `Admitted;
    enqueue_hyp t K_sched_manip ~cost:t.c_sched p
  end
  else begin
    t.denials <- t.denials + 1;
    p.p_class <- Irq_record.Delayed;
    t.n_delayed <- t.n_delayed + 1;
    record_decision t src p `Denied
  end;
  Prof.leave t.prof

let top_handler_done t src p =
  p.p_top_end <- t.now;
  if tracing t then
    trace_event t
      (Hyp_trace.Top_handler_run { irq = p.p_irq; line = src.cfg.Config.line });
  Intc.ack t.intc src.cfg.Config.line;
  (* The paper's experiment setup: the trigger timer is reprogrammed with the
     next pre-generated interarrival from within the top handler. *)
  schedule_next_arrival t src;
  Admission.observe src.admission p.p_arrival;
  let subscriber = src.cfg.Config.subscriber in
  let item =
    Irq_queue.make_item ~irq:p.p_irq ~line:src.cfg.Config.line
      ~arrival:p.p_arrival ~work:src.cfg.Config.c_bh
  in
  Irq_queue.push (Guest.queue t.guests.(subscriber)) item;
  if t.slot_owner = subscriber then begin
    p.p_decision <- t.now;
    p.p_class <- Irq_record.Direct;
    t.n_direct <- t.n_direct + 1
  end
  else if not (Admission.active src.admission) then begin
    (* Original Figure-4a top handler: no admission machinery, every
       foreign-slot IRQ is delayed to the subscriber's slot. *)
    p.p_decision <- t.now;
    p.p_class <- Irq_record.Delayed;
    t.n_delayed <- t.n_delayed + 1
  end
  else enqueue_hyp t K_monitor ~cost:t.c_mon p

(* Continuation of a finished hypervisor work item — what used to be its
   [on_done] closure.  [p] is [dummy_pending] for the kinds that carry no
   IRQ (K_ctx_back, K_slot_switch). *)
let hyp_done t kind (p : pending_irq) =
  match kind with
  | K_top_handler -> top_handler_done t p.p_source p
  | K_monitor -> monitor_done t p.p_source p
  | K_sched_manip -> enqueue_hyp t K_ctx_to ~cost:t.c_ctx p
  | K_ctx_to ->
      let subscriber = p.p_source.cfg.Config.subscriber in
      t.interposition_switches <- t.interposition_switches + 1;
      t.interpositions_started <- t.interpositions_started + 1;
      if tracing t then
        trace_event t
          (Hyp_trace.Interposition_start { irq = p.p_irq; target = subscriber });
      if obs_active () then
        Sink.incr "rthv_interpositions_total"
          (obs_labels t).by_partition.(subscriber)
          1;
      t.ip_target <- subscriber;
      t.ip_budget <- p.p_source.cfg.Config.c_bh
  | K_ctx_back ->
      t.interposition_switches <- t.interposition_switches + 1;
      t.interposition_pending <- false
  | K_slot_switch -> t.slot_switches <- t.slot_switches + 1

(* First-cycle hook of a hypervisor work item — what used to be its
   [on_start] closure.  Only the top handler observes its start time. *)
let hyp_start _t kind (p : pending_irq) time =
  match kind with K_top_handler -> p.p_top_start <- time | _ -> ()

(* Interrupt-controller delivery: the hardware IRQ preempts partition code
   and enters the hypervisor's top handler. *)
let deliver t line =
  match t.source_by_line.(line) with
  | None -> ()
  | Some src ->
      let irq = t.next_irq_id in
      t.next_irq_id <- t.next_irq_id + 1;
      t.live_irqs <- t.live_irqs + 1;
      let p =
        {
          p_irq = irq;
          p_source = src;
          p_arrival = t.now;
          p_top_start = t.now;
          p_top_end = t.now;
          p_class = Irq_record.Delayed;
          p_decision = -1;
          p_bh_start = -1;
        }
      in
      pending_add t irq p;
      if tracing t then
        trace_event t
          (Hyp_trace.Irq_raised { irq; line = src.cfg.Config.line });
      enqueue_hyp t K_top_handler ~cost:src.cfg.Config.c_th p

let handle_arrival t s_idx =
  t.scheduled_arrivals <- t.scheduled_arrivals - 1;
  let src = t.sources.(s_idx) in
  let line = src.cfg.Config.line in
  if Intc.is_pending t.intc line then begin
    (* The non-counting pending flag is already set: this raise coalesces
       into the earlier one and is lost.  Intc counts it; the trace makes
       it visible on the timeline. *)
    if tracing t then trace_event t (Hyp_trace.Irq_coalesced { line });
    if obs_active () then
      Sink.incr "rthv_irq_coalesced_total"
        (obs_labels t).by_source.(s_idx).l_line 1
  end;
  Intc.raise_line t.intc line
