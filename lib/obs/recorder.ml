(* The cells one (source, class) pair of spans updates, resolved once: the
   spans counter and one digest per {!Span} component, in component
   order.  [ss_source]/[ss_class] are the strings of the first span seen
   for the pair. *)
type span_series = {
  ss_source : string;
  ss_class : string;
  ss_spans : int ref;
  ss_components : Quantile.t array;
}

let no_series =
  { ss_source = ""; ss_class = ""; ss_spans = ref 0; ss_components = [||] }

(* Each recorder's own span-series cache, newest first.  Registry cells are
   never replaced (see {!Registry.merge}), so the entries cannot go
   stale. *)
type span_cache = { mutable series : span_series list }

type t = { reg : Registry.t; r_sink : Sink.t }

let rec find source cls = function
  | [] -> no_series
  | s :: rest ->
      if String.equal s.ss_source source && String.equal s.ss_class cls then s
      else find source cls rest

(* [String.equal] answers physically equal strings without reading them,
   and the simulator passes the same source and class strings for every
   span of a pair. *)
let span_series reg cache sp =
  let source = sp.Span.sp_source and cls = sp.Span.sp_class in
  let s = find source cls cache.series in
  if s != no_series then s
  else begin
    let labels = Labels.v [ ("source", source); ("class", cls) ] in
    let s =
      {
        ss_source = source;
        ss_class = cls;
        ss_spans = Registry.counter reg ~labels "rthv_irq_spans_total";
        ss_components =
          Array.init Span.n_components (fun i ->
              Registry.summary reg
                ~labels:
                  (Labels.v
                     [
                       ("source", source);
                       ("class", cls);
                       ("component", Span.component_name sp i);
                     ])
                "rthv_irq_component_us");
      }
    in
    cache.series <- s :: cache.series;
    s
  end

let record_span reg cache sp =
  let s = span_series reg cache sp in
  incr s.ss_spans;
  for i = 0 to Span.n_components - 1 do
    Quantile.observe s.ss_components.(i) (Span.component sp i)
  done

(* HELP texts for the simulator's metric families, stamped into the
   registry at recorder creation so every Prometheus exposition of a
   recorded run is self-describing. *)
let default_help =
  [
    ("rthv_irq_completed_total", "IRQs completed, by source and handling class.");
    ("rthv_irq_latency_us", "IRQ activation-to-completion latency in microseconds.");
    ("rthv_irq_spans_total", "Per-IRQ causal spans recorded.");
    ("rthv_irq_component_us", "Per-IRQ latency component in microseconds, by causal component.");
    ("rthv_monitor_decisions_total", "Monitor admission decisions, by verdict.");
    ("rthv_interpositions_total", "Interposed bottom-handler executions started.");
    ("rthv_irq_coalesced_total", "IRQs coalesced onto an already-pending activation.");
    ("rthv_slot_switches_total", "TDMA slot switches.");
    ("rthv_boundary_crossings_total", "Interpositions that crossed a slot boundary.");
    ("rthv_bh_boundary_deferrals_total", "Bottom handlers deferred at a slot boundary.");
    ("rthv_stolen_slot_us", "Slot time stolen by interposition per slot, in microseconds.");
    ("rthv_sim_time_us", "Total simulated time in microseconds.");
    ("rthv_engine_events_total", "Discrete events dispatched by the engine.");
    ("rthv_event_queue_ops_total", "Event-queue operations, by op.");
    ("rthv_busy_window_iterations", "Fixed-point iterations of the last busy-window analysis.");
    ("rthv_busy_window_residual_cycles", "Final residual of the last busy-window fixed point, in cycles.");
    ("rthv_busy_window_q_max", "Activations in the last closed busy period.");
    ("rthv_absint_steps", "Abstract-interpretation solver steps of the last run.");
    ("rthv_absint_nodes", "Constraint-system nodes of the last abstract-interpretation run.");
    ("rthv_latency_bound_us", "Analytic worst-case latency bound in microseconds, by source and class.");
    ("rthv_bound_headroom_us", "Analytic bound minus observed worst case, in microseconds.");
  ]

let create ?registry () =
  let reg =
    match registry with Some r -> r | None -> Registry.create ()
  in
  List.iter (fun (name, doc) -> Registry.set_help reg name doc) default_help;
  let cache = { series = [] } in
  let r_sink =
    {
      Sink.incr = (fun name labels n -> Registry.incr reg ~labels name n);
      gauge = (fun name labels v -> Registry.set_gauge reg ~labels name v);
      observe = (fun name labels x -> Registry.observe_summary reg ~labels name x);
      span = (fun sp -> record_span reg cache sp);
    }
  in
  { reg; r_sink }

let registry t = t.reg
let sink t = t.r_sink
let install t = Sink.install t.r_sink
