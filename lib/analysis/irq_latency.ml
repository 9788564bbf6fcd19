module Cycles = Rthv_engine.Cycles

type costs = { c_mon : Cycles.t; c_sched : Cycles.t; c_ctx : Cycles.t }

let costs_of_platform platform =
  {
    c_mon = Rthv_hw.Platform.monitor_cost platform;
    c_sched = Rthv_hw.Platform.sched_manip_cost platform;
    c_ctx = Rthv_hw.Platform.ctx_switch_cost platform;
  }

type source = {
  name : string;
  arrival : Arrival_curve.t;
  c_th : Cycles.t;
  c_bh : Cycles.t;
}

let total_wcet source = Cycles.( + ) source.c_th source.c_bh

let effective_bh costs source =
  Cycles.( + ) source.c_bh (Cycles.( + ) costs.c_sched (Cycles.( * ) costs.c_ctx 2))

let effective_th costs source = Cycles.( + ) source.c_th costs.c_mon

(* Sum of interfering top handlers: the third term of equation (11) /
   equation (16).  A direct recursion rather than a fold: the fold's step
   function would capture [dt] and allocate a closure per evaluation. *)
let rec foreign_top_handlers_from acc interferers dt =
  match interferers with
  | [] -> acc
  | source :: rest ->
      foreign_top_handlers_from
        (Cycles.( + ) acc
           (Cycles.( * ) source.c_th (Arrival_curve.eta_plus source.arrival dt)))
        rest dt

let foreign_top_handlers interferers dt =
  foreign_top_handlers_from 0 interferers dt

(* Self top handlers beyond the q accounted activations fold into
   eta_self(W) * c_th (equations (10) + (6) combined into (11)). *)
let self_top_handlers ~arrival ~c_th dt =
  Cycles.( * ) c_th (Arrival_curve.eta_plus arrival dt)

let baseline ~tdma ~self ~interferers ?monitoring () =
  let c_th_self =
    match monitoring with
    | None -> self.c_th
    | Some costs -> effective_th costs self
  in
  let interference dt =
    let own = self_top_handlers ~arrival:self.arrival ~c_th:c_th_self dt in
    let tdma_term = Tdma_interference.interference tdma dt in
    let foreign = foreign_top_handlers interferers dt in
    Cycles.( + ) own (Cycles.( + ) tdma_term foreign)
  in
  Busy_window.response_time ~wcet:self.c_bh
    ~delta:(Arrival_curve.delta_min self.arrival)
    ~interference ()

let interposed ~costs ~self ~interferers () =
  let c_bh' = effective_bh costs self in
  let c_th' = effective_th costs self in
  let interference dt =
    let own = self_top_handlers ~arrival:self.arrival ~c_th:c_th' dt in
    let foreign = foreign_top_handlers interferers dt in
    Cycles.( + ) own foreign
  in
  Busy_window.response_time ~wcet:c_bh'
    ~delta:(Arrival_curve.delta_min self.arrival)
    ~interference ()

let baseline_dominant_term ~tdma = Tdma_interference.worst_case_gap tdma
