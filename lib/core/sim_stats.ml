(* End-of-run statistics assembly: a pure read of the runtime state. *)

module Cycles = Rthv_engine.Cycles
module Intc = Rthv_hw.Intc

type t = {
  completed_irqs : int;
  direct : int;
  interposed : int;
  delayed : int;
  slot_switches : int;
  interposition_switches : int;
  interpositions_started : int;
  boundary_crossings : int;
  bh_boundary_deferrals : int;
  monitor_checks : int;
  admissions : int;
  denials : int;
  coalesced_irqs : int;
  unfinished_irqs : int;
  unraised_arrivals : int;
  stolen_total : Cycles.t array;
  stolen_slot_max : Cycles.t array;
  sim_time : Cycles.t;
}

let assemble (s : Sim_state.t) =
  let monitor_checks =
    Array.fold_left
      (fun acc (src : Sim_state.runtime_source) ->
        acc + Admission.checks src.Sim_state.admission)
      0 s.Sim_state.sources
  in
  (* Arrivals the run never raised: queued in the arena, or not yet
     scheduled from a [Reprogram] source's interarrival array. *)
  let unraised_arrivals =
    Array.fold_left
      (fun acc (src : Sim_state.runtime_source) ->
        acc
        + Array.length src.Sim_state.cfg.Config.interarrivals
        - src.Sim_state.next_arrival)
      s.Sim_state.scheduled_arrivals s.Sim_state.sources
  in
  {
    completed_irqs = s.Sim_state.n_completed;
    direct = s.Sim_state.n_direct;
    interposed = s.Sim_state.n_interposed;
    delayed = s.Sim_state.n_delayed;
    slot_switches = s.Sim_state.slot_switches;
    interposition_switches = s.Sim_state.interposition_switches;
    interpositions_started = s.Sim_state.interpositions_started;
    boundary_crossings = s.Sim_state.boundary_crossings;
    bh_boundary_deferrals = s.Sim_state.bh_boundary_deferrals;
    monitor_checks;
    admissions = s.Sim_state.admissions;
    denials = s.Sim_state.denials;
    coalesced_irqs = (Intc.stats s.Sim_state.intc).Intc.coalesced;
    unfinished_irqs = s.Sim_state.live_irqs;
    unraised_arrivals;
    stolen_total = Array.copy s.Sim_state.stolen_total;
    stolen_slot_max = Array.copy s.Sim_state.stolen_slot_max;
    sim_time = s.Sim_state.now;
  }
