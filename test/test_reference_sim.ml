(* Hyp_sim against the naive reference stepper (reference_sim.ml) on small
   random configurations.  The two share nothing but the Config.t: the
   reference advances one quantum at a time with per-item countdowns, while
   Hyp_sim jumps segment to segment over its event arena.  Every IRQ's id,
   arrival, top-handler window, class and completion time must agree, and
   so must every statistics counter. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module Platform = Rthv_hw.Platform
module DF = Rthv_analysis.Distance_fn
module Ref = Reference_sim

type source_case = {
  subscriber : int;
  c_th_us : int;
  c_bh_us : int;
  d_min_us : int option;  (* None: No_shaping *)
  arrivals_us : int list;
}

type case = {
  slots_us : int list;
  sources : source_case list;
  ideal : bool;  (* Platform.ideal, else arm926ejs_200mhz *)
  finish_bh : bool;
}

let case_gen =
  let open QCheck2.Gen in
  let* n_parts = 1 -- 4 in
  (* Slots longer than the paper platform's 50 us context switch.  A slot
     its own switch fills never runs its partition: the switches pile up
     in the hypervisor queue and both models just run to their limits. *)
  let* slots_us = list_repeat n_parts (60 -- 400) in
  let* n_sources = 1 -- 2 in
  let* sources =
    list_repeat n_sources
      (let* subscriber = 0 -- (n_parts - 1) in
       let* c_th_us = 1 -- 10 in
       let* c_bh_us = 5 -- 80 in
       let* d_min_us = opt (20 -- 400) in
       let* arrivals_us = list_size (1 -- 12) (5 -- 400) in
       return { subscriber; c_th_us; c_bh_us; d_min_us; arrivals_us })
  in
  let* ideal = bool in
  let* finish_bh = bool in
  return { slots_us; sources; ideal; finish_bh }

let print_case c =
  let ints l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]" in
  Printf.sprintf
    "{ slots_us = %s; platform = %s; finish_bh = %b;\n  sources = [%s] }"
    (ints c.slots_us)
    (if c.ideal then "ideal" else "arm926ejs_200mhz")
    c.finish_bh
    (String.concat ";\n    "
       (List.map
          (fun s ->
            Printf.sprintf
              "{ subscriber = %d; c_th_us = %d; c_bh_us = %d; d_min_us = %s; \
               arrivals_us = %s }"
              s.subscriber s.c_th_us s.c_bh_us
              (match s.d_min_us with
              | None -> "none"
              | Some d -> string_of_int d)
              (ints s.arrivals_us))
          c.sources))

let config_of_case c =
  let partitions =
    List.mapi
      (fun i slot_us ->
        Config.partition ~name:(Printf.sprintf "p%d" i) ~slot_us ())
      c.slots_us
  in
  let sources =
    List.mapi
      (fun i s ->
        Config.source
          ~name:(Printf.sprintf "s%d" i)
          ~line:i ~subscriber:s.subscriber ~c_th_us:s.c_th_us
          ~c_bh_us:s.c_bh_us
          ~interarrivals:(Array.of_list (List.map Cycles.of_us s.arrivals_us))
          ~shaping:
            (match s.d_min_us with
            | None -> Config.No_shaping
            | Some d -> Config.Fixed_monitor (DF.d_min (Cycles.of_us d)))
          ())
      c.sources
  in
  Config.make
    ~platform:(if c.ideal then Platform.ideal else Platform.arm926ejs_200mhz)
    ~finish_bh_at_boundary:c.finish_bh ~partitions ~sources ()

(* Rows of (what, Hyp_sim value, reference value); the first disagreeing
   row is the report. *)
let compare_runs config =
  let sim = Hyp_sim.create config in
  (* Every generated workload drains within a few simulated milliseconds;
     the horizon only bounds a runaway run, which then shows up as
     unfinished IRQs. *)
  Hyp_sim.run ~horizon:(Cycles.of_ms 100) sim;
  let s = Hyp_sim.stats sim in
  let records = Hyp_sim.records sim in
  let r = Ref.run config in
  let counters =
    [
      ("completed", s.Hyp_sim.completed_irqs, r.Ref.completed);
      ("direct", s.Hyp_sim.direct, r.Ref.direct);
      ("interposed", s.Hyp_sim.interposed, r.Ref.interposed);
      ("delayed", s.Hyp_sim.delayed, r.Ref.delayed);
      ("admissions", s.Hyp_sim.admissions, r.Ref.admissions);
      ("denials", s.Hyp_sim.denials, r.Ref.denials);
      ("monitor_checks", s.Hyp_sim.monitor_checks, r.Ref.monitor_checks);
      ("slot_switches", s.Hyp_sim.slot_switches, r.Ref.slot_switches);
      ( "interposition_switches",
        s.Hyp_sim.interposition_switches,
        r.Ref.interposition_switches );
      ( "interpositions_started",
        s.Hyp_sim.interpositions_started,
        r.Ref.interpositions_started );
      ( "boundary_crossings",
        s.Hyp_sim.boundary_crossings,
        r.Ref.boundary_crossings );
      ( "bh_boundary_deferrals",
        s.Hyp_sim.bh_boundary_deferrals,
        r.Ref.bh_boundary_deferrals );
      ("coalesced", s.Hyp_sim.coalesced_irqs, r.Ref.coalesced);
      ("unfinished", s.Hyp_sim.unfinished_irqs, 0);
      ("unraised", s.Hyp_sim.unraised_arrivals, 0);
      ("sim_time", s.Hyp_sim.sim_time, r.Ref.sim_time);
      ("records", List.length records, List.length r.Ref.irqs);
    ]
    @ List.concat
        (List.mapi
           (fun p (a, b) -> [ (Printf.sprintf "stolen_total.(%d)" p, a, b) ])
           (List.combine
              (Array.to_list s.Hyp_sim.stolen_total)
              (Array.to_list r.Ref.stolen_total)))
    @ List.concat
        (List.mapi
           (fun p (a, b) ->
             [ (Printf.sprintf "stolen_slot_max.(%d)" p, a, b) ])
           (List.combine
              (Array.to_list s.Hyp_sim.stolen_slot_max)
              (Array.to_list r.Ref.stolen_slot_max)))
  in
  let per_irq =
    if List.length records <> List.length r.Ref.irqs then []
    else
      List.concat
        (List.map2
           (fun (h : Irq_record.t) (x : Ref.irq) ->
             let field name a b =
               (Printf.sprintf "irq %d %s" x.Ref.id name, a, b)
             in
             let cls (c : Irq_record.classification) =
               match c with
               | Irq_record.Direct -> 0
               | Irq_record.Interposed -> 1
               | Irq_record.Delayed -> 2
             in
             let ref_cls = function
               | Ref.Direct -> 0
               | Ref.Interposed -> 1
               | Ref.Delayed -> 2
             in
             [
               field "id" h.Irq_record.irq x.Ref.id;
               field "class (0 direct, 1 interposed, 2 delayed)"
                 (cls h.Irq_record.classification) (ref_cls x.Ref.cls);
               field "completion" h.Irq_record.completion x.Ref.completion;
               field "arrival" h.Irq_record.arrival x.Ref.arrival;
               field "top_start" h.Irq_record.top_start x.Ref.top_start;
               field "top_end" h.Irq_record.top_end x.Ref.top_end;
             ])
           records r.Ref.irqs)
  in
  List.find_opt (fun (_, a, b) -> a <> b) (counters @ per_irq)

let prop_matches_reference case =
  let config = config_of_case case in
  match Config.validate config with
  | Error _ -> QCheck2.assume_fail ()
  | Ok () -> (
      match compare_runs config with
      | None -> true
      | Some (what, hyp, reference) ->
          QCheck2.Test.fail_reportf "%s: Hyp_sim %d, reference %d" what hyp
            reference)

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"Hyp_sim == reference stepper"
         ~print:print_case case_gen prop_matches_reference);
  ]
