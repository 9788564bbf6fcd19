(* Golden-equivalence suite for the simulator.

   The goldens below were captured from the pre-refactor simulator (the
   monolithic Hyp_sim with its closed shaper dispatch) for every canonical
   scenario: full statistics, an MD5 over the serialized Irq_record stream,
   and an MD5 over the pretty-printed hypervisor trace.  Every later change
   to the simulator — the policy layers (Admission / Slot_plan /
   Boundary_policy), the Sim_route / Sim_boundary split, the packed event
   arena and the single stepping loop — must reproduce them byte for byte:
   any drift in routing order, admission counting or trace emission shows
   up as a digest mismatch here.  Each scenario runs once.  Whether the
   behaviour pinned here is the paper's is checked independently by the
   reference stepper in test_reference_sim.ml.

   The property tests at the bottom pin the seams themselves: a static
   Slot_plan is observationally equal to the Tdma table it compiles to,
   Admission.of_monitor is equal to driving the Monitor directly, and a
   composite with a provably vacuous bucket decides exactly like the plain
   monitor. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Irq_record = Rthv_core.Irq_record
module Tdma = Rthv_core.Tdma
module Slot_plan = Rthv_core.Slot_plan
module Admission = Rthv_core.Admission
module Monitor = Rthv_core.Monitor
module DF = Rthv_analysis.Distance_fn
module Scenarios = Rthv_check.Scenarios

type golden = {
  g_completed : int;
  g_direct : int;
  g_interposed : int;
  g_delayed : int;
  g_slot_switches : int;
  g_interposition_switches : int;
  g_interpositions_started : int;
  g_boundary_crossings : int;
  g_bh_boundary_deferrals : int;
  g_monitor_checks : int;
  g_admissions : int;
  g_denials : int;
  g_coalesced : int;
  g_stolen_total : Cycles.t array;
  g_stolen_slot_max : Cycles.t array;
  g_sim_time : Cycles.t;
  g_records_digest : string;
  g_trace_digest : string;
  g_trace_len : int;
}

let goldens =
  [
    ("quickstart", { g_completed = 2000; g_direct = 981; g_interposed = 549; g_delayed = 470; g_slot_switches = 807; g_interposition_switches = 1098; g_interpositions_started = 549; g_boundary_crossings = 5; g_bh_boundary_deferrals = 5; g_monitor_checks = 1020; g_admissions = 549; g_denials = 470; g_coalesced = 0; g_stolen_total = [|15614067; 239406|]; g_stolen_slot_max = [|86631; 28373|]; g_sim_time = 807856193; g_records_digest = "41b30f10757e2b08ac6ec0e9cfe064ab"; g_trace_digest = "3be74b3a6c40d5da5baf830c62b8193f"; g_trace_len = 10935 });
    ("conformant", { g_completed = 2000; g_direct = 1016; g_interposed = 984; g_delayed = 0; g_slot_switches = 1099; g_interposition_switches = 1968; g_interpositions_started = 984; g_boundary_crossings = 9; g_bh_boundary_deferrals = 8; g_monitor_checks = 984; g_admissions = 984; g_denials = 0; g_coalesced = 0; g_stolen_total = [|27961047; 453921|]; g_stolen_slot_max = [|86631; 27918|]; g_sim_time = 1099134738; g_records_digest = "a0dfadd8f531159b40eb125b52a93cf8"; g_trace_digest = "44baa4188c612ad78923f2fa0dec9822"; g_trace_len = 12068 });
    ("avionics_ima", { g_completed = 5000; g_direct = 1479; g_interposed = 2286; g_delayed = 1235; g_slot_switches = 12403; g_interposition_switches = 4572; g_interpositions_started = 2286; g_boundary_crossings = 60; g_bh_boundary_deferrals = 11; g_monitor_checks = 2287; g_admissions = 2286; g_denials = 0; g_coalesced = 0; g_stolen_total = [|32850715; 33554708; 638617; 8112782|]; g_stolen_slot_max = [|32877; 32877; 32814; 32877|]; g_sim_time = 7442328812; g_records_digest = "bc9117829effe2e232ee32f41ac4170e"; g_trace_digest = "5519acd2a8e28d6f126ecf6905536704"; g_trace_len = 39333 });
    ("automotive_ecu", { g_completed = 10550; g_direct = 4509; g_interposed = 5115; g_delayed = 926; g_slot_switches = 6012; g_interposition_switches = 10230; g_interpositions_started = 5115; g_boundary_crossings = 42; g_bh_boundary_deferrals = 33; g_monitor_checks = 6043; g_admissions = 5115; g_denials = 926; g_coalesced = 0; g_stolen_total = [|117010795; 1167206; 39757854|]; g_stolen_slot_max = [|123508; 30574; 92631|]; g_sim_time = 5611417914; g_records_digest = "0964cad08bff5b73fefde2cd0784a54a"; g_trace_digest = "1f3da6dc10e7db3da9b91a2d01fc4881"; g_trace_len = 64560 });
    ("mixed_policies", { g_completed = 3000; g_direct = 1281; g_interposed = 1405; g_delayed = 314; g_slot_switches = 948; g_interposition_switches = 2810; g_interpositions_started = 1405; g_boundary_crossings = 19; g_bh_boundary_deferrals = 7; g_monitor_checks = 2585; g_admissions = 1405; g_denials = 314; g_coalesced = 0; g_stolen_total = [|18745565; 15271615; 7637005|]; g_stolen_slot_max = [|106676; 89977; 90631|]; g_sim_time = 884860000; g_records_digest = "d3413dba10a4f9a7518f60aee4b56a04"; g_trace_digest = "f3d559b4c723fc08c34457dd0626e095"; g_trace_len = 17503 });
    ("demo_bad", { g_completed = 112; g_direct = 69; g_interposed = 29; g_delayed = 14; g_slot_switches = 105; g_interposition_switches = 58; g_interpositions_started = 29; g_boundary_crossings = 7; g_bh_boundary_deferrals = 0; g_monitor_checks = 43; g_admissions = 29; g_denials = 14; g_coalesced = 0; g_stolen_total = [|18153; 572031; 240139; 281110|]; g_stolen_slot_max = [|7138; 62877; 50877; 50877|]; g_sim_time = 16067005; g_records_digest = "df572018ba7787b43a91bbb5c1d05227"; g_trace_digest = "926475a22b8a0c9c877b053225b6859d"; g_trace_len = 661 });
    ("demo_policy_bad", { g_completed = 1088; g_direct = 396; g_interposed = 618; g_delayed = 74; g_slot_switches = 485; g_interposition_switches = 1236; g_interpositions_started = 618; g_boundary_crossings = 4; g_bh_boundary_deferrals = 102; g_monitor_checks = 647; g_admissions = 618; g_denials = 29; g_coalesced = 0; g_stolen_total = [|9132276; 6808807; 466903|]; g_stolen_slot_max = [|239416; 230216; 39812|]; g_sim_time = 512891177; g_records_digest = "eb060affaa592ba5345c3a95ac3df476"; g_trace_digest = "49636ff2fc49afa38a76e8805cc64424"; g_trace_len = 6826 });
  ]

let serialize_record (r : Irq_record.t) =
  Printf.sprintf "%d|%s|%d|%d|%d|%d|%s|%d" r.Irq_record.irq r.Irq_record.source
    r.Irq_record.line r.Irq_record.arrival r.Irq_record.top_start
    r.Irq_record.top_end
    (Irq_record.classification_name r.Irq_record.classification)
    r.Irq_record.completion

let digest s = Digest.to_hex (Digest.string s)

let run_scenario name =
  let config =
    match Scenarios.find name with
    | Some f -> f ()
    | None -> Alcotest.failf "unknown scenario %s" name
  in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  (Hyp_sim.stats sim, Hyp_sim.records sim, trace)

let check_golden name (g : golden) () =
  let stats, records, trace = run_scenario name in
  let ci = Alcotest.(check int) in
  ci "completed" g.g_completed stats.Hyp_sim.completed_irqs;
  ci "direct" g.g_direct stats.Hyp_sim.direct;
  ci "interposed" g.g_interposed stats.Hyp_sim.interposed;
  ci "delayed" g.g_delayed stats.Hyp_sim.delayed;
  ci "slot switches" g.g_slot_switches stats.Hyp_sim.slot_switches;
  ci "interposition switches" g.g_interposition_switches
    stats.Hyp_sim.interposition_switches;
  ci "interpositions started" g.g_interpositions_started
    stats.Hyp_sim.interpositions_started;
  ci "boundary crossings" g.g_boundary_crossings
    stats.Hyp_sim.boundary_crossings;
  ci "bh boundary deferrals" g.g_bh_boundary_deferrals
    stats.Hyp_sim.bh_boundary_deferrals;
  ci "monitor checks" g.g_monitor_checks stats.Hyp_sim.monitor_checks;
  ci "admissions" g.g_admissions stats.Hyp_sim.admissions;
  ci "denials" g.g_denials stats.Hyp_sim.denials;
  ci "coalesced" g.g_coalesced stats.Hyp_sim.coalesced_irqs;
  Alcotest.(check (array int))
    "stolen_total" g.g_stolen_total stats.Hyp_sim.stolen_total;
  Alcotest.(check (array int))
    "stolen_slot_max" g.g_stolen_slot_max stats.Hyp_sim.stolen_slot_max;
  ci "sim time" g.g_sim_time stats.Hyp_sim.sim_time;
  Alcotest.(check string)
    "records digest" g.g_records_digest
    (digest (String.concat "\n" (List.map serialize_record records)));
  ci "trace length" g.g_trace_len (List.length (Hyp_trace.to_list trace));
  Alcotest.(check string)
    "trace digest" g.g_trace_digest
    (digest (Format.asprintf "%a" Hyp_trace.pp trace))

(* --- seam properties ----------------------------------------------------- *)

let slots_gen =
  QCheck2.Gen.(list_size (1 -- 6) (1 -- 50_000))

(* A static Slot_plan is observationally the Tdma table it compiles to. *)
let prop_static_plan_is_tdma slots =
  let slots = Array.of_list slots in
  let plan = Slot_plan.static slots in
  let tdma = Tdma.make slots in
  let compiled = Slot_plan.tdma plan in
  let cycle = Tdma.cycle_length tdma in
  Slot_plan.cycle_length plan = cycle
  && Slot_plan.partitions plan = Array.length slots
  && List.for_all
       (fun q ->
         let ts = q * cycle / 7 in
         Tdma.slot_bounds_at compiled ts = Tdma.slot_bounds_at tdma ts
         && Tdma.next_boundary compiled ts = Tdma.next_boundary tdma ts)
       [ 0; 1; 2; 3; 4; 5; 6; 7; 13 ]

(* Equal weights over a divisible cycle apportion to equal slots. *)
let prop_equal_weights_uniform params =
  let n, unit_len = params in
  let weights = Array.make n 1 in
  let cycle = n * unit_len in
  let plan = Slot_plan.weighted ~cycle ~weights in
  let slots = Slot_plan.slots plan in
  Array.for_all (fun s -> s = unit_len) slots
  && Array.fold_left ( + ) 0 slots = cycle

(* Weighted plans always conserve the cycle and keep every slot positive. *)
let prop_weighted_conserves params =
  let cycle_extra, weights = params in
  let weights = Array.of_list weights in
  let n = Array.length weights in
  let cycle = n + cycle_extra in
  let plan = Slot_plan.weighted ~cycle ~weights in
  let slots = Slot_plan.slots plan in
  Array.fold_left ( + ) 0 slots = cycle && Array.for_all (fun s -> s > 0) slots

(* Admission.of_monitor is the Monitor, driven through the policy seam. *)
let prop_of_monitor_equals_monitor distances =
  let d_min = 1_000 in
  let a = Admission.of_monitor (Monitor.d_min d_min) in
  let m = Monitor.d_min d_min in
  let now = ref 0 in
  let ok = ref true in
  List.iter
    (fun d ->
      now := !now + d;
      let via_policy = Admission.decide a !now in
      let direct = Monitor.check m !now in
      if via_policy <> direct then ok := false;
      if via_policy then begin
        Admission.commit a !now;
        Monitor.admit m !now
      end)
    distances;
  !ok && Admission.checks a = Monitor.checked_count m

(* A composite whose bucket is vacuous against the monitoring condition
   (refill <= delta^-(2), capacity >= 1) decides exactly like the plain
   monitor on every stream. *)
let prop_vacuous_bucket_is_monitor distances =
  let d_min = 1_000 in
  let fn = DF.d_min d_min in
  let composite =
    Admission.monitor_and_bucket ~fn ~capacity:1 ~refill:d_min
  in
  let plain = Admission.of_monitor (Monitor.fixed fn) in
  let now = ref 0 in
  let ok = ref true in
  List.iter
    (fun d ->
      now := !now + d;
      let c = Admission.decide composite !now in
      let p = Admission.decide plain !now in
      if c <> p then ok := false;
      if c then begin
        Admission.commit composite !now;
        Admission.commit plain !now
      end)
    distances;
  !ok

let distances_gen = QCheck2.Gen.(list_size (1 -- 40) (1 -- 5_000))

let weighted_params_gen =
  QCheck2.Gen.(pair (0 -- 100_000) (list_size (1 -- 6) (1 -- 20)))

let equal_weights_gen = QCheck2.Gen.(pair (1 -- 6) (1 -- 10_000))

let suite =
  List.map
    (fun (name, g) ->
      Alcotest.test_case
        (Printf.sprintf "golden: %s" name)
        `Slow (check_golden name g))
    goldens
  @ [
      Testutil.qtest "static plan == Tdma" slots_gen prop_static_plan_is_tdma;
      Testutil.qtest "equal weights apportion uniformly" equal_weights_gen
        prop_equal_weights_uniform;
      Testutil.qtest "weighted plan conserves the cycle" weighted_params_gen
        prop_weighted_conserves;
      Testutil.qtest "of_monitor == Monitor" distances_gen
        prop_of_monitor_equals_monitor;
      Testutil.qtest "vacuous bucket == plain monitor" distances_gen
        prop_vacuous_bucket_is_monitor;
    ]
