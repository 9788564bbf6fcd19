(* Regenerate the golden rows for test/test_golden.ml.

   Runs every canonical scenario through the simulator and prints one OCaml
   record literal per scenario, in the exact format the golden table
   expects.  Use after an intentional behaviour change:

     dune exec bench/gen_golden.exe

   then paste the rows over the [goldens] list.  A regenerated row hides
   any behaviour change, intended or not: check it against the reference
   stepper property in test/test_reference_sim.ml first. *)

module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Irq_record = Rthv_core.Irq_record
module Scenarios = Rthv_check.Scenarios

let serialize_record (r : Irq_record.t) =
  Printf.sprintf "%d|%s|%d|%d|%d|%d|%s|%d" r.Irq_record.irq r.Irq_record.source
    r.Irq_record.line r.Irq_record.arrival r.Irq_record.top_start
    r.Irq_record.top_end
    (Irq_record.classification_name r.Irq_record.classification)
    r.Irq_record.completion

let digest s = Digest.to_hex (Digest.string s)

let array_lit a =
  "[|" ^ String.concat "; " (Array.to_list (Array.map string_of_int a)) ^ "|]"

let () =
  List.iter
    (fun (name, build) ->
      let config = build () in
      let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
      let sim = Hyp_sim.create ~trace config in
      Hyp_sim.run sim;
      let s = Hyp_sim.stats sim in
      let records = Hyp_sim.records sim in
      Printf.printf
        "    (%S, { g_completed = %d; g_direct = %d; g_interposed = %d; \
         g_delayed = %d; g_slot_switches = %d; g_interposition_switches = \
         %d; g_interpositions_started = %d; g_boundary_crossings = %d; \
         g_bh_boundary_deferrals = %d; g_monitor_checks = %d; g_admissions \
         = %d; g_denials = %d; g_coalesced = %d; g_stolen_total = %s; \
         g_stolen_slot_max = %s; g_sim_time = %d; g_records_digest = %S; \
         g_trace_digest = %S; g_trace_len = %d });\n"
        name s.Hyp_sim.completed_irqs s.Hyp_sim.direct s.Hyp_sim.interposed
        s.Hyp_sim.delayed s.Hyp_sim.slot_switches
        s.Hyp_sim.interposition_switches s.Hyp_sim.interpositions_started
        s.Hyp_sim.boundary_crossings s.Hyp_sim.bh_boundary_deferrals
        s.Hyp_sim.monitor_checks s.Hyp_sim.admissions s.Hyp_sim.denials
        s.Hyp_sim.coalesced_irqs
        (array_lit s.Hyp_sim.stolen_total)
        (array_lit s.Hyp_sim.stolen_slot_max)
        s.Hyp_sim.sim_time
        (digest (String.concat "\n" (List.map serialize_record records)))
        (digest (Format.asprintf "%a" Hyp_trace.pp trace))
        (List.length (Hyp_trace.to_list trace)))
    Scenarios.all
