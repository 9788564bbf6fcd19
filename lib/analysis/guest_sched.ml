module Cycles = Rthv_engine.Cycles

type task = {
  name : string;
  period : Cycles.t;
  wcet : Cycles.t;
  priority : int;
}

let of_spec (spec : Rthv_rtos.Task.spec) =
  {
    name = spec.Rthv_rtos.Task.name;
    period = spec.Rthv_rtos.Task.period;
    wcet = spec.Rthv_rtos.Task.wcet;
    priority = spec.Rthv_rtos.Task.priority;
  }

let utilisation tasks =
  List.fold_left
    (fun acc task ->
      acc +. (float_of_int task.wcet /. float_of_int task.period))
    0. tasks

let ceil_div a b = (a + b - 1) / b

(* Demand of the higher-priority tasks in a window [dt].  A direct recursion
   rather than a fold: the fold's step function would capture [dt] and
   allocate a closure on every interference evaluation. *)
let rec hp_demand_from acc higher_priority dt =
  match higher_priority with
  | [] -> acc
  | hp :: rest ->
      hp_demand_from
        (Cycles.( + ) acc (Cycles.( * ) hp.wcet (ceil_div dt hp.period)))
        rest dt

let response_time ~tdma ?(interference = Independence.isolated) ?(blocking = 0)
    ~task ~higher_priority () =
  let hp_demand dt =
    if dt <= 0 then 0 else hp_demand_from 0 higher_priority dt
  in
  let total_interference dt =
    Cycles.( + )
      (Tdma_interference.interference tdma dt)
      (Cycles.( + ) (interference dt) (Cycles.( + ) blocking (hp_demand dt)))
  in
  let delta q = if q <= 1 then 0 else (q - 1) * task.period in
  Busy_window.response_time ~wcet:task.wcet ~delta
    ~interference:total_interference ()

let analyse ~tdma ?interference ?blocking tasks =
  List.map
    (fun task ->
      let higher_priority =
        List.filter
          (fun other -> other != task && other.priority <= task.priority)
          tasks
      in
      ( task,
        response_time ~tdma ?interference ?blocking ~task ~higher_priority ()
      ))
    tasks

let schedulable ~tdma ?interference ?blocking tasks =
  List.for_all
    (fun (task, result) ->
      match result with
      | Ok r -> r.Busy_window.response_time <= task.period
      | Error _ -> false)
    (analyse ~tdma ?interference ?blocking tasks)

let min_tolerated_d_min ~tdma ?blocking ~c_bh_eff tasks =
  let ok d_min =
    let interference = Independence.d_min_bound ~d_min ~c_bh_eff in
    schedulable ~tdma ~interference ?blocking tasks
  in
  if not (schedulable ~tdma ?blocking tasks) then None
  else begin
    (* Find an upper bound that works, then bisect for the smallest. *)
    let rec find_hi hi =
      if ok hi then Some hi
      else if hi > Busy_window.ceiling then None
      else find_hi (hi * 2)
    in
    match find_hi (Stdlib.max 1 c_bh_eff) with
    | None -> None
    | Some hi ->
        let rec bisect lo hi =
          (* Invariant: not (ok lo) [or lo = 0], ok hi. *)
          if hi - lo <= 1 then hi
          else begin
            let mid = lo + ((hi - lo) / 2) in
            if ok mid then bisect lo mid else bisect mid hi
          end
        in
        Some (bisect 0 hi)
  end
