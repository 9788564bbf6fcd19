(* A per-IRQ causal span: the six timestamps every interrupt instance
   passes through, from hardware assertion to bottom-handler completion.
   The simulator fills one of these per IRQ and hands it to the sink; the
   layout mirrors the paper's latency decomposition (eq. 2 and Fig. 3) so
   the difference of consecutive timestamps is a named latency component. *)

type t = {
  sp_irq : int;
  sp_line : int;
  sp_source : string;
  sp_class : string;  (* "direct" | "interposed" | "delayed" *)
  sp_arrival : float;
  sp_top_start : float;
  sp_top_end : float;
  sp_decision : float;
  sp_bh_start : float;
  sp_completion : float;
}

let latency t = t.sp_completion -. t.sp_arrival

(* The component between the monitor/classification decision and the first
   bottom-handler cycle is the wait the paper's two bounds differ on:
   delayed handling waits for the subscriber's slot (eq. 11-12), interposed
   handling waits only for the scheduler manipulation (eq. 16), and direct
   handling is already in-slot. *)
let wait_component = function
  | "interposed" -> "interposed_wait"
  | "delayed" -> "slot_wait"
  | _ -> "queue_wait"

(* The five components in causal order: the one place their names and
   values are defined. *)
let n_components = 5

let component_name t = function
  | 0 -> "top_wait"
  | 1 -> "top_handler"
  | 2 -> "decision_wait"
  | 3 -> wait_component t.sp_class
  | 4 -> "bottom_handler"
  | _ -> invalid_arg "Span.component_name"

let component t = function
  | 0 -> t.sp_top_start -. t.sp_arrival
  | 1 -> t.sp_top_end -. t.sp_top_start
  | 2 -> t.sp_decision -. t.sp_top_end
  | 3 -> t.sp_bh_start -. t.sp_decision
  | 4 -> t.sp_completion -. t.sp_bh_start
  | _ -> invalid_arg "Span.component"

let component_names t = List.init n_components (component_name t)

let all_component_names =
  [
    "top_wait"; "top_handler"; "decision_wait"; "queue_wait"; "slot_wait";
    "interposed_wait"; "bottom_handler";
  ]

let components t =
  List.init n_components (fun i -> (component_name t i, component t i))

let valid t =
  t.sp_arrival <= t.sp_top_start
  && t.sp_top_start <= t.sp_top_end
  && t.sp_top_end <= t.sp_decision
  && t.sp_decision <= t.sp_bh_start
  && t.sp_bh_start <= t.sp_completion

let pp ppf t =
  Format.fprintf ppf "irq=%d line=%d %s/%s latency=%.1fus" t.sp_irq t.sp_line
    t.sp_source t.sp_class (latency t);
  List.iter
    (fun (name, v) -> Format.fprintf ppf " %s=%.1f" name v)
    (components t)
