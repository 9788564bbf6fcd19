(* rthv_sim: run a configurable hypervisor simulation from the command line.

   Examples:
     rthv_sim --slots 6000,6000,2000 --subscriber 1 --mean-us 1544 \
              --monitor dmin --count 5000
     rthv_sim --monitor off --histogram
     rthv_sim --monitor learn --trace ecu --count 0         # ECU trace replay
     rthv_sim --experiment fig6b                            # paper experiment *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module DF = Rthv_analysis.Distance_fn
module Gen = Rthv_workload.Gen
module Ecu_trace = Rthv_workload.Ecu_trace
module Histogram = Rthv_stats.Histogram
module Summary = Rthv_stats.Summary

type monitor_kind =
  | Monitor_off
  | Monitor_dmin
  | Monitor_learn
  | Monitor_budget
  | Monitor_combo

let monitor_kind_conv =
  let parse = function
    | "off" -> Ok Monitor_off
    | "dmin" -> Ok Monitor_dmin
    | "learn" -> Ok Monitor_learn
    | "budget" -> Ok Monitor_budget
    | "combo" -> Ok Monitor_combo
    | s -> Error (`Msg (Printf.sprintf "unknown monitor kind %S" s))
  in
  let print ppf = function
    | Monitor_off -> Format.fprintf ppf "off"
    | Monitor_dmin -> Format.fprintf ppf "dmin"
    | Monitor_learn -> Format.fprintf ppf "learn"
    | Monitor_budget -> Format.fprintf ppf "budget"
    | Monitor_combo -> Format.fprintf ppf "combo"
  in
  Cmdliner.Arg.conv (parse, print)

let build_interarrivals ~trace ~seed ~mean_us ~d_min_us ~count =
  match trace with
  | Some "ecu" ->
      Ecu_trace.to_distances
        (Ecu_trace.generate ~seed Ecu_trace.default_profile)
  | Some other -> failwith (Printf.sprintf "unknown trace %S (try: ecu)" other)
  | None ->
      let mean = Cycles.of_us mean_us in
      if d_min_us > 0 then
        Gen.exponential_clamped ~seed ~mean ~d_min:(Cycles.of_us d_min_us)
          ~count
      else Gen.exponential ~seed ~mean ~count

(* --trace-out picks its exporter from the extension. *)
let trace_out_format path =
  if Filename.check_suffix path ".jsonl" then Ok `Jsonl
  else if Filename.check_suffix path ".json" then Ok `Chrome
  else if Filename.check_suffix path ".rts" then Ok `Store
  else
    Error
      (Printf.sprintf
         "--trace-out %S: expected a .json, .jsonl or .rts extension" path)

(* --metrics-out likewise: .json (registry JSON) or .prom (Prometheus
   exposition text). *)
let metrics_out_format path =
  if Filename.check_suffix path ".json" then Ok `Json
  else if Filename.check_suffix path ".prom" then Ok `Prom
  else
    Error
      (Printf.sprintf "--metrics-out %S: expected a .json or .prom extension"
         path)

(* --profile likewise: .json (rthv-profile/1 document) or .txt (hot-phase
   table plus allocation waterfall). *)
let profile_out_format path =
  if Filename.check_suffix path ".json" then Ok `Json
  else if Filename.check_suffix path ".txt" then Ok `Txt
  else
    Error
      (Printf.sprintf "--profile %S: expected a .json or .txt extension" path)

let write_profile ~path prof =
  match profile_out_format path with
  | Error msg ->
      Format.eprintf "%s@." msg;
      1
  | Ok fmt ->
      let rendered =
        match fmt with
        | `Json -> Rthv_obs.Json.to_string (Rthv_obs.Prof.to_json prof) ^ "\n"
        | `Txt -> Format.asprintf "%a" Rthv_obs.Prof.pp_table prof
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc rendered);
      Format.printf "wrote phase profile to %s@." path;
      0

let write_metrics ~path registry =
  match metrics_out_format path with
  | Error msg ->
      Format.eprintf "%s@." msg;
      1
  | Ok fmt ->
      let rendered =
        match fmt with
        | `Json ->
            Rthv_obs.Json.to_string (Rthv_obs.Registry.to_json registry) ^ "\n"
        | `Prom -> Rthv_obs.Registry.to_prometheus registry
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc rendered);
      Format.printf "wrote %d metric series to %s@."
        (Rthv_obs.Registry.cardinality registry)
        path;
      0

let run_custom slots subscriber c_th_us c_bh_us mean_us d_min_us count
    seed monitor budget weighted_cycle_us strict_tdma show_histogram csv_out
    vcd_out trace_out metrics_out profile_out slo trace =
  let partitions =
    List.mapi
      (fun i slot_us ->
        Config.partition ~name:(Printf.sprintf "P%d" i) ~slot_us ())
      slots
  in
  let effective_d_min_us = if d_min_us > 0 then d_min_us else mean_us in
  let interarrivals =
    build_interarrivals ~trace ~seed ~mean_us ~d_min_us ~count
  in
  let shaping =
    match monitor with
    | Monitor_off -> Config.No_shaping
    | Monitor_dmin ->
        Config.Fixed_monitor (DF.d_min (Cycles.of_us effective_d_min_us))
    | Monitor_learn ->
        let activations =
          if Array.length interarrivals > 0 then Array.length interarrivals
          else count
        in
        Config.Self_learning
          { l = 5; learn_events = activations / 10; bound = None }
    | Monitor_budget -> Config.Budgeted { per_cycle = budget }
    | Monitor_combo ->
        (* d_min condition plus a capacity-[budget] burst cap refilled at the
           monitoring distance. *)
        Config.Monitor_and_bucket
          {
            fn = DF.d_min (Cycles.of_us effective_d_min_us);
            capacity = budget;
            refill = Cycles.of_us effective_d_min_us;
          }
  in
  let source =
    Config.source ~name:"irq0" ~line:0 ~subscriber ~c_th_us ~c_bh_us
      ~interarrivals ~shaping ()
  in
  let boundary =
    if strict_tdma then Rthv_core.Boundary_policy.Strict_cut
    else Rthv_core.Boundary_policy.Finish_bottom_handler
  in
  (* --weighted-cycle-us reinterprets --slots as integer weights over a
     fixed TDMA cycle apportioned by Slot_plan. *)
  let plan =
    match weighted_cycle_us with
    | None -> Config.Partition_slots
    | Some cycle_us ->
        Config.Weighted_plan
          { cycle = Cycles.of_us cycle_us; weights = Array.of_list slots }
  in
  let config =
    Config.make ~boundary ~plan ~partitions ~sources:[ source ] ()
  in
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (* Attach a trace whenever any timeline export was requested. *)
  let trace =
    match (vcd_out, trace_out) with
    | None, None -> None
    | _ -> Some (Rthv_core.Hyp_trace.create ())
  in
  (* A .rts trace-out streams through the ring's spill hook into the
     batched columnar writer while the run is going, so the store is
     complete even when the bounded ring wraps — the million-event path. *)
  let store_writer =
    match (trace_out, trace) with
    | Some path, Some tr when Filename.check_suffix path ".rts" ->
        let w = Rthv_core.Trace_store.Writer.create path in
        Rthv_core.Hyp_trace.set_spill tr (fun ~time event ->
            Rthv_core.Trace_store.Writer.add w ~time event);
        Some w
    | _ -> None
  in
  let sim = Hyp_sim.create ?trace config in
  let registry = Rthv_obs.Registry.create () in
  let profiler = Option.map (fun _ -> Rthv_obs.Prof.create ()) profile_out in
  let slo_t =
    if slo then Some (Rthv_check.Slo.create ~registry config) else None
  in
  let run_sim () =
    let sinks =
      (if metrics_out <> None then
         [ Rthv_obs.Recorder.sink (Rthv_obs.Recorder.create ~registry ()) ]
       else [])
      @ match slo_t with Some t -> [ Rthv_check.Slo.sink t ] | None -> []
    in
    match sinks with
    | [] -> Hyp_sim.run sim
    | s :: rest ->
        Rthv_obs.Sink.with_sink
          (List.fold_left Rthv_obs.Sink.tee s rest)
          (fun () -> Hyp_sim.run sim)
  in
  (match profiler with
  | Some p -> Rthv_obs.Prof.with_profiler p run_sim
  | None -> run_sim ());
  let records = Hyp_sim.records sim in
  let stats = Hyp_sim.stats sim in
  let latencies = List.map Irq_record.latency_us records in
  let s = Summary.of_list latencies in
  Format.printf "IRQs completed: %d over %a simulated@."
    stats.Hyp_sim.completed_irqs Cycles.pp stats.Hyp_sim.sim_time;
  Format.printf "classes: %d direct, %d interposed, %d delayed@."
    stats.Hyp_sim.direct stats.Hyp_sim.interposed stats.Hyp_sim.delayed;
  if stats.Hyp_sim.unfinished_irqs > 0 then
    Format.printf "unfinished: %d IRQs still in flight at the horizon@."
      stats.Hyp_sim.unfinished_irqs;
  if stats.Hyp_sim.unraised_arrivals > 0 then
    Format.printf "unraised: %d arrivals past the horizon@."
      stats.Hyp_sim.unraised_arrivals;
  Format.printf
    "latency: avg %.1fus, p50 %.1fus, p95 %.1fus, p99 %.1fus, worst %.1fus@."
    s.Summary.mean s.Summary.p50 s.Summary.p95 s.Summary.p99 s.Summary.max;
  Format.printf
    "context switches: %d slot, %d interposition (%d interpositions, %d \
     crossed a boundary, %d deferred switches)@."
    stats.Hyp_sim.slot_switches stats.Hyp_sim.interposition_switches
    stats.Hyp_sim.interpositions_started stats.Hyp_sim.boundary_crossings
    stats.Hyp_sim.bh_boundary_deferrals;
  Array.iteri
    (fun i stolen ->
      if stolen > 0 then
        Format.printf
          "partition %d: %a stolen by interposition (max %a per slot)@." i
          Cycles.pp stolen Cycles.pp stats.Hyp_sim.stolen_slot_max.(i))
    stats.Hyp_sim.stolen_total;
  if show_histogram then begin
    let h = Histogram.create ~bin_width_us:250. ~max_us:9000. in
    List.iter (Histogram.add h) latencies;
    Histogram.render ~log_scale:true Format.std_formatter h
  end;
  (match csv_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "irq,source,arrival_us,latency_us,classification\n";
      List.iter
        (fun r ->
          Printf.fprintf oc "%d,%s,%.3f,%.3f,%s\n" r.Irq_record.irq
            r.Irq_record.source
            (Cycles.to_us r.Irq_record.arrival)
            (Irq_record.latency_us r)
            (Irq_record.classification_name r.Irq_record.classification))
        records;
      close_out oc;
      Format.printf "wrote %d records to %s@." (List.length records) path);
  (match (vcd_out, trace) with
  | Some path, Some trace ->
      Rthv_core.Vcd_export.save ~path trace;
      Format.printf "wrote %d trace events to %s@."
        (Rthv_core.Hyp_trace.length trace)
        path
  | _ -> ());
  let trace_status =
    match (trace_out, trace) with
    | Some path, Some trace -> (
        match trace_out_format path with
        | Ok `Store ->
            let w = Option.get store_writer in
            Rthv_core.Trace_store.Writer.close w;
            Format.printf "wrote %d trace events to %s (store)@."
              (Rthv_core.Trace_store.Writer.events_written w)
              path;
            0
        | Ok `Jsonl ->
            Rthv_core.Trace_export.save_jsonl ~path trace;
            Format.printf "wrote %d trace events to %s (jsonl)@."
              (Rthv_core.Hyp_trace.length trace)
              path;
            0
        | Ok `Chrome ->
            let partition_names =
              Array.of_list (List.map (fun (p : Config.partition) -> p.Config.pname) partitions)
            in
            Rthv_core.Trace_export.save_chrome ~partition_names ~path trace;
            Format.printf "wrote %d trace events to %s (chrome)@."
              (Rthv_core.Hyp_trace.length trace)
              path;
            0
        | Error msg ->
            Format.eprintf "%s@." msg;
            1)
    | _ -> 0
  in
  let metrics_status =
    match metrics_out with
    | None -> 0
    | Some path -> write_metrics ~path registry
  in
  let profile_status =
    match (profile_out, profiler) with
    | Some path, Some p -> write_profile ~path p
    | _ -> 0
  in
  let slo_status =
    match slo_t with
    | None -> 0
    | Some t ->
        Format.printf "%a@." Rthv_check.Slo.pp t;
        if Rthv_check.Slo.ok t then 0
        else begin
          Format.eprintf
            "rthv_sim: observed latency exceeds an analytic bound@.";
          1
        end
  in
  Stdlib.max
    (Stdlib.max (Stdlib.max trace_status metrics_status) profile_status)
    slo_status

let run_experiment metrics_out profile_out name =
  let module Fig6 = Rthv_experiments.Fig6 in
  let ppf = Format.std_formatter in
  (* The sweep drivers fold per-task registries (and absorb per-task phase
     profiles) deterministically, so the exported metrics and profile are
     byte-identical for any --jobs value. *)
  let registry = Rthv_obs.Registry.create () in
  let metrics = Option.map (fun _ -> registry) metrics_out in
  let profiler = Option.map (fun _ -> Rthv_obs.Prof.create ()) profile_out in
  (* Analysis runs in-process (no sweep), so its busy-window/abstract-
     interpretation phases are captured by installing the profiler here. *)
  let with_prof f =
    match profiler with
    | Some p -> Rthv_obs.Prof.with_profiler p f
    | None -> f ()
  in
  let status =
    match name with
    | "fig6a" -> Fig6.print ppf (Fig6.run ?metrics ?profiler Fig6.Unmonitored); 0
    | "fig6b" -> Fig6.print ppf (Fig6.run ?metrics ?profiler Fig6.Monitored); 0
    | "fig6c" ->
        Fig6.print ppf (Fig6.run ?metrics ?profiler Fig6.Monitored_conforming);
        0
    | "fig7" ->
        let results = Rthv_experiments.Fig7.run_all ?metrics ?profiler () in
        List.iter (Rthv_experiments.Fig7.print ppf) results;
        0
    | "overhead" ->
        Rthv_experiments.Overhead.print ppf
          (Rthv_experiments.Overhead.run ?metrics ?profiler ());
        0
    | "analysis" ->
        Rthv_experiments.Analysis_tables.print ppf
          (with_prof Rthv_experiments.Analysis_tables.compute_all);
        0
    | other ->
        Format.eprintf
          "unknown experiment %S (fig6a fig6b fig6c fig7 overhead analysis)@."
          other;
        1
  in
  if status <> 0 then status
  else
    let metrics_status =
      match metrics_out with
      | None -> 0
      | Some path -> write_metrics ~path registry
    in
    let profile_status =
      match (profile_out, profiler) with
      | Some path, Some p -> write_profile ~path p
      | _ -> 0
    in
    Stdlib.max metrics_status profile_status

let main jobs experiment slots subscriber c_th_us c_bh_us mean_us
    d_min_us count seed monitor budget weighted_cycle_us strict_tdma histogram
    csv_out vcd_out trace_out metrics_out profile_out slo flight_dir trace =
  Option.iter Rthv_par.Par.set_default_jobs jobs;
  Option.iter
    (fun dir -> Rthv_core.Flight_recorder.enable ~dir ())
    flight_dir;
  match experiment with
  | Some name ->
      if slo then begin
        Format.eprintf "--slo applies to custom simulations, not canned \
                        experiments@.";
        1
      end
      else run_experiment metrics_out profile_out name
  | None ->
      if subscriber < 0 || subscriber >= List.length slots then begin
        Format.eprintf "subscriber %d out of range for %d partitions@."
          subscriber (List.length slots);
        1
      end
      else if budget < 1 then begin
        Format.eprintf "--budget must be >= 1@.";
        1
      end
      else
        run_custom slots subscriber c_th_us c_bh_us mean_us d_min_us
          count seed monitor budget weighted_cycle_us strict_tdma histogram
          csv_out vcd_out trace_out metrics_out profile_out slo trace

open Cmdliner

let experiment =
  Arg.(
    value
    & opt (some string) None
    & info [ "experiment"; "e" ] ~docv:"NAME"
        ~doc:
          "Run a canned paper experiment (fig6a, fig6b, fig6c, fig7, \
           overhead, analysis) instead of a custom simulation.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for experiment sweeps (default: $(b,RTHV_JOBS) \
           or the machine's recommended domain count; 1 forces the \
           sequential path).  Results are byte-identical for any value.  \
           Custom single-scenario simulations always run on one domain.")

let slots =
  Arg.(
    value
    & opt (list int) [ 6000; 6000; 2000 ]
    & info [ "slots" ] ~docv:"US,US,..."
        ~doc:"TDMA slot lengths in microseconds, in cycle order.")

let subscriber =
  Arg.(
    value & opt int 1
    & info [ "subscriber" ] ~docv:"IDX"
        ~doc:"Partition index subscribing the IRQ source.")

let c_th_us =
  Arg.(
    value & opt int 5
    & info [ "cth-us" ] ~docv:"US" ~doc:"Top handler WCET in microseconds.")

let c_bh_us =
  Arg.(
    value & opt int 50
    & info [ "cbh-us" ] ~docv:"US" ~doc:"Bottom handler WCET in microseconds.")

let mean_us =
  Arg.(
    value & opt int 1544
    & info [ "mean-us" ] ~docv:"US"
        ~doc:"Mean exponential interarrival time in microseconds.")

let d_min_us =
  Arg.(
    value & opt int 0
    & info [ "dmin-us" ] ~docv:"US"
        ~doc:
          "Clamp interarrivals to at least this distance (0: no clamping). \
           Also the monitor's d_min; when 0, the monitor uses the mean.")

let count =
  Arg.(
    value & opt int 5000
    & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of IRQs to generate.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let monitor =
  Arg.(
    value
    & opt monitor_kind_conv Monitor_off
    & info [ "monitor"; "m" ] ~docv:"off|dmin|learn|budget|combo"
        ~doc:
          "Interrupt shaping mode: $(b,off) (Figure 4a), $(b,dmin) \
           (delta^- monitor), $(b,learn) (self-learning monitor), \
           $(b,budget) (at most $(b,--budget) interpositions per aligned \
           TDMA cycle window), $(b,combo) (d_min monitor AND a \
           capacity-$(b,--budget) token bucket).")

let budget =
  Arg.(
    value & opt int 1
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "Admissions per TDMA cycle for $(b,--monitor budget), or the \
           bucket capacity for $(b,--monitor combo).")

let weighted_cycle_us =
  Arg.(
    value
    & opt (some int) None
    & info [ "weighted-cycle-us" ] ~docv:"US"
        ~doc:
          "Use a weighted slot plan: keep the TDMA cycle at this length and \
           reinterpret $(b,--slots) as integer weights apportioned over it \
           (largest-remainder method).")

let strict_tdma =
  Arg.(
    value & flag
    & info [ "strict-tdma" ]
        ~doc:
          "Cut bottom handlers at slot boundaries instead of letting them \
           finish with a bounded overrun.")

let histogram =
  Arg.(
    value & flag
    & info [ "histogram" ] ~doc:"Print an ASCII latency histogram.")

let csv_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Write per-IRQ records as CSV.")

let vcd_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"PATH"
        ~doc:
          "Write the hypervisor scheduling timeline as a VCD waveform \
           (viewable in GTKWave).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the hypervisor timeline as a structured trace; the \
           extension picks the format ($(b,.json): Chrome Trace Event JSON \
           for Perfetto, $(b,.jsonl): one event per line).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Record simulator metrics (counters, gauges, latency summaries) \
           and write them on exit; the extension picks the format \
           ($(b,.json): registry JSON, $(b,.prom): Prometheus exposition \
           text).  Works for custom simulations and canned experiments; \
           sweep metrics are byte-identical for any $(b,--jobs) value.")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Profile simulator phases (event dispatch, admission, boundary \
           crossing, sink emit) and fixed-point iterations, writing the \
           hierarchical hot-phase profile on exit; the extension picks the \
           format ($(b,.json): rthv-profile/1 document, $(b,.txt): \
           hot-phase table plus allocation waterfall).  Sweep profiles are \
           merged deterministically and are byte-identical for any \
           $(b,--jobs) value.")

let slo =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Stream every IRQ latency sample through the SLO gauges while \
           the simulation runs (observed-vs-bound burn per source x \
           class), print the verdict table on exit and exit non-zero if \
           any sample exceeded its analytic bound.  With \
           $(b,--metrics-out) the burn gauges land in the exported \
           registry.")

let flight_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Enable the crash flight recorder: keep a bounded ring of recent \
           scheduling events per simulation and dump it as JSONL under \
           $(docv) on oracle violations or uncaught exceptions \
           (equivalent to setting $(b,RTHV_FLIGHT_DIR)).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"NAME"
        ~doc:
          "Drive the IRQ source from a named activation trace instead of \
           exponential arrivals (available: ecu).")

let cmd =
  let doc =
    "simulate a TDMA real-time hypervisor with monitored interposed \
     interrupt handling (Beckert et al., DAC 2014)"
  in
  Cmd.v
    (Cmd.info "rthv_sim" ~doc)
    Term.(
      const main $ jobs $ experiment $ slots $ subscriber $ c_th_us
      $ c_bh_us
      $ mean_us $ d_min_us $ count $ seed $ monitor $ budget
      $ weighted_cycle_us $ strict_tdma $ histogram $ csv_out $ vcd_out
      $ trace_out $ metrics_out $ profile_out $ slo $ flight_dir $ trace_arg)

let () = exit (Cmd.eval' cmd)
