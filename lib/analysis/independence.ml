module Cycles = Rthv_engine.Cycles

type interference_curve = Cycles.t -> Cycles.t

let isolated _dt = 0

let interposed_bound ~monitor ~c_bh_eff dt =
  Cycles.( * ) c_bh_eff (Distance_fn.eta_plus monitor dt)

let d_min_bound ~d_min ~c_bh_eff =
  interposed_bound ~monitor:(Distance_fn.d_min d_min) ~c_bh_eff

let token_bucket_bound ~capacity ~refill ~c_bh_eff dt =
  if capacity < 1 || refill < 1 then
    invalid_arg "Independence.token_bucket_bound: bad bucket parameters";
  if dt <= 0 then 0
  else Cycles.( * ) c_bh_eff (capacity + (dt / refill))

let budget_bound ~per_cycle ~cycle ~c_bh_eff dt =
  if per_cycle < 1 || cycle < 1 then
    invalid_arg "Independence.budget_bound: bad budget parameters";
  if dt <= 0 then 0
  else
    (* Admissions are counted per aligned window of length [cycle] and capped
       at [per_cycle].  A half-open interval of length dt overlaps at most
       floor((dt-1)/cycle) + 2 such windows (one partial window at each end),
       so the admitted count is affine in dt like the token bucket's. *)
    Cycles.( * ) c_bh_eff (Cycles.( * ) per_cycle (((dt - 1) / cycle) + 2))

(* A direct recursion rather than a fold: the fold's step function would
   capture [dt] and allocate a closure on every interference evaluation. *)
let rec sum_from acc curves dt =
  match curves with
  | [] -> acc
  | curve :: rest -> sum_from (Cycles.( + ) acc (curve dt)) rest dt

let sum curves dt = sum_from 0 curves dt

let is_sufficient ~interference ~budget ~windows =
  List.for_all (fun dt -> interference dt <= budget dt) windows

let utilisation_loss ~monitor ~c_bh_eff =
  Distance_fn.long_term_rate monitor *. float_of_int c_bh_eff

let max_slot_loss ~monitor ~c_bh_eff ~slot =
  (* Equation (14) over the slot, plus one carry-in job admitted just before
     the slot begins whose budget spills into it. *)
  Cycles.( + ) (interposed_bound ~monitor ~c_bh_eff slot) c_bh_eff

let required_d_min ~c_bh_eff ~max_utilisation =
  if max_utilisation <= 0. then
    invalid_arg "Independence.required_d_min: max_utilisation <= 0";
  int_of_float (Float.ceil (float_of_int c_bh_eff /. max_utilisation))
