(* One measured pass of an rthv benchmark workload.

   perfbench/run.py starts this program once per pass, so each pass runs in
   a fresh process and its GC counters and peak heap belong to that pass
   alone.  The pass prints one JSON object on stdout.

   Modes:
   - reference: time the reference computation alone (see below);
   - prepare: write the fleet corpus to --fleet-dir (fleet-certify only);
   - setup: time one corpus decode and pool creation (fleet-certify only);
   - plain: tracing off, gives the end-to-end numbers;
   - traced: a span (name, start, end, parent) around every call the pass
     makes into a layer's public function.  Spans stay in memory and are
     written to --out-dir when the pass ends;
   - count: a counting Sink.t is tee'd in to read the counters the library
     emits.  Its timings are discarded by run.py.

   Correctness checks and the benchmark's own metric extraction (digests,
   the p99.99 sort) run after the timed region. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Irq_record = Rthv_core.Irq_record
module Trace_store = Rthv_core.Trace_store
module Trace_query = Rthv_core.Trace_query
module DF = Rthv_analysis.Distance_fn
module Gen = Rthv_workload.Gen
module Summary = Rthv_stats.Summary
module Fleet = Rthv_check.Fleet
module Certify = Rthv_check.Certify
module Config_codec = Rthv_check.Config_codec
module Lint = Rthv_check.Lint
module Absint = Rthv_check.Absint
module Witness = Rthv_check.Witness
module Slo = Rthv_check.Slo
module Par = Rthv_par.Par
module Sink = Rthv_obs.Sink
module Recorder = Rthv_obs.Recorder
module Registry = Rthv_obs.Registry
module Quantile = Rthv_obs.Quantile
module Json = Rthv_obs.Json

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated so far on every domain: Gc.quick_stat folds in the
   counters of joined domains, Gc.counters does not.  The counters advance
   only at minor collections, so force one first. *)
let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  mutable stop : float;
  w_start : float;
  mutable w_stop : float;
}

let tracing = ref false
let spans = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    let w_start = words () in
    let s = { id; parent; name; start = clock (); stop = 0.; w_start; w_stop = 0. } in
    current := id;
    let finish () =
      s.stop <- clock ();
      s.w_stop <- words ();
      current := parent;
      spans := s :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let duration s = s.stop -. s.start
let named name = List.filter (fun s -> String.equal s.name name) !spans
let total_s name = List.fold_left (fun acc s -> acc +. duration s) 0. (named name)

let total_words name =
  List.fold_left (fun acc s -> acc +. (s.w_stop -. s.w_start)) 0. (named name)

let max_s name = List.fold_left (fun acc s -> Float.max acc (duration s)) 0. (named name)

let root () = List.find (fun s -> s.parent < 0) !spans

(* Share of the root span covered by its direct children. *)
let coverage () =
  let r = root () in
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = r.id then acc +. duration s else acc)
      0. !spans
  in
  covered /. duration r

let spans_json () =
  let t0 = (root ()).start in
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
             ("name", Json.String s.name);
             ("layer", Json.String (List.hd (String.split_on_char '.' s.name)));
             ("start_s", Json.Float (s.start -. t0));
             ("end_s", Json.Float (s.stop -. t0));
             ("words", Json.Float (s.w_stop -. s.w_start));
           ])
       !spans)

(* --- counting sink ------------------------------------------------------- *)

type counts = {
  mutable calls : int;
  mutable queue_ops : int;
  mutable busy_window_iterations : float;
  mutable absint_steps : float;
}

let counts = { calls = 0; queue_ops = 0; busy_window_iterations = 0.; absint_steps = 0. }

let counting_sink =
  {
    Sink.incr =
      (fun name _ n ->
        counts.calls <- counts.calls + 1;
        if String.equal name "rthv_event_queue_ops_total" then
          counts.queue_ops <- counts.queue_ops + n);
    gauge =
      (fun name _ v ->
        counts.calls <- counts.calls + 1;
        if String.equal name "rthv_busy_window_iterations" then
          counts.busy_window_iterations <- counts.busy_window_iterations +. v
        else if String.equal name "rthv_absint_steps" then
          counts.absint_steps <- counts.absint_steps +. v);
    observe = (fun _ _ _ -> counts.calls <- counts.calls + 1);
    span = (fun _ -> counts.calls <- counts.calls + 1);
  }

let counting = ref false

(* Sink calls made while the workload's own sinks were installed. *)
let workload_calls = ref 0

(* Run [f] under the workload's own sinks, with the counting sink tee'd in
   on a count pass. *)
let with_sinks sinks f =
  let calls0 = counts.calls in
  let out =
    match (if !counting then sinks @ [ counting_sink ] else sinks) with
    | [] -> f ()
    | s :: rest -> Sink.with_sink (List.fold_left Sink.tee s rest) f
  in
  workload_calls := !workload_calls + counts.calls - calls0;
  out

(* --- host-speed reference ------------------------------------------------ *)

module Int_map = Map.Make (Int)

(* A fixed computation on the standard library alone: balanced-tree
   inserts, list and array building, a float sort and hash-table updates,
   the kinds of work the simulator and the analysis do, with none of the
   library's code.  Timed right after every timed region, and by run.py in
   a process of its own right before the pass, on as many domains at once
   as the region runs, it tells run.py how fast the host ran the pass, so
   that spells in which other tenants of a shared host slow everything down
   can be divided out.  A change to the library cannot change it. *)
let reference_n = 100_000

let reference () =
  let rng = Random.State.make [| 20141 |] in
  let m = ref Int_map.empty in
  for i = 0 to reference_n - 1 do
    m := Int_map.add (Random.State.int rng 1_000_000_000) (float_of_int i) !m
  done;
  let a = Array.init reference_n (fun _ -> Random.State.float rng 1.0) in
  Array.sort Float.compare a;
  let l = List.init reference_n (fun i -> (i, a.(i) *. 2.)) in
  let h = Hashtbl.create 4096 in
  List.iter (fun (i, x) -> Hashtbl.replace h (i land 16383) x) l;
  Int_map.fold (fun k v acc -> acc +. v +. float_of_int (k land 255)) !m 0.
  +. Hashtbl.fold (fun _ x acc -> acc +. x) h 0.

let reference_checksum = ref nan

let reference_s ~domains =
  Gc.compact ();
  let t0 = clock () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference) in
  let sums = reference () :: List.map Domain.join others in
  let t = clock () -. t0 in
  List.iter
    (fun c ->
      if Float.is_nan !reference_checksum then reference_checksum := c
      else if not (Float.equal c !reference_checksum) then failwith "reference: checksum changed")
    sums;
  Gc.compact ();
  t

(* --- result assembly ----------------------------------------------------- *)

type result = {
  mutable ops : int;
  mutable failed : int;
  mutable setup_s : float list;
  mutable reference_s : float list;
  mutable wall_s : float;
  mutable main_s : float;
  mutable alloc_words : float;
  mutable peak_heap_words : int;
  mutable major_collections : int;
  mutable checks : (string * bool) list;
  mutable digest : string;
  mutable input_md5 : string;
  mutable values : (string * Json.t) list;
}

let res =
  {
    ops = 0;
    failed = 0;
    setup_s = [];
    reference_s = [];
    wall_s = 0.;
    main_s = 0.;
    alloc_words = 0.;
    peak_heap_words = 0;
    major_collections = 0;
    checks = [];
    digest = "";
    input_md5 = "";
    values = [];
  }

let check name ok = res.checks <- res.checks @ [ (name, ok) ]
let value name v = res.values <- res.values @ [ (name, Json.Float v) ]
let info name v = res.values <- res.values @ [ (name, v) ]
let md5 s = Digest.to_hex (Digest.string s)

(* Time [setup] then [main], tracing them under one root span; returns
   what [main] returns.  GC figures cover exactly the timed region. *)
let timed ~domains ~setup ~main =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let w0 = words () in
  let t0 = clock () in
  let t1 = ref t0 in
  let pass () =
    span "pass" (fun () ->
        let s = setup () in
        t1 := clock ();
        main s)
  in
  (* A count pass counts set-up too: Slo.create runs busy-window analysis. *)
  let out = if !counting then Sink.with_sink counting_sink pass else pass () in
  let t2 = clock () in
  let w1 = words () in
  let g1 = Gc.quick_stat () in
  res.reference_s <- [ reference_s ~domains ];
  res.setup_s <- [ !t1 -. t0 ];
  res.wall_s <- t2 -. t0;
  res.main_s <- t2 -. !t1;
  res.alloc_words <- w1 -. w0;
  res.peak_heap_words <- g1.Gc.top_heap_words;
  res.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
  out

(* --- irq-stream / irq-observed ------------------------------------------- *)

(* Fig. 6b: slots P1 6000 us, P2 6000 us, housekeeping 2000 us; one source
   on P2 with C_TH 5 us, C_BH 50 us and a d_min monitor at the mean
   interarrival of 1544 us (U_IRQ 10 %).  The same config as
   [rthv_sim -m dmin]. *)
let mean_us = 1544

let fig6b_config interarrivals =
  let partitions =
    List.mapi
      (fun i slot_us -> Config.partition ~name:(Printf.sprintf "P%d" i) ~slot_us ())
      [ 6000; 6000; 2000 ]
  in
  let source =
    Config.source ~name:"irq0" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:50
      ~interarrivals
      ~shaping:(Config.Fixed_monitor (DF.d_min (Cycles.of_us mean_us)))
      ()
  in
  let config =
    Config.make ~boundary:Rthv_core.Boundary_policy.Finish_bottom_handler
      ~partitions ~sources:[ source ] ()
  in
  (match Config.validate config with Ok () -> () | Error msg -> failwith msg);
  config

type observed = {
  trace : Hyp_trace.t;
  writer : Trace_store.Writer.t;
  store : string;
  registry : Registry.t;
  slo : Slo.t;
}

type irq_setup = {
  interarrivals : Cycles.t array;
  sim : Hyp_sim.t;
  obs : observed option;
}

let irq_setup ~seed ~count ~store =
  let interarrivals =
    span "workload.gen" (fun () ->
        Gen.exponential ~seed ~mean:(Cycles.of_us mean_us) ~count)
  in
  let config = span "core.config" (fun () -> fig6b_config interarrivals) in
  let ring =
    Option.map
      (fun path ->
        span "core.trace_open" (fun () ->
            let trace = Hyp_trace.create () in
            let writer = Trace_store.Writer.create path in
            Hyp_trace.set_spill trace (fun ~time event ->
                Trace_store.Writer.add writer ~time event);
            (trace, writer, path)))
      store
  in
  let trace = Option.map (fun (t, _, _) -> t) ring in
  let sim = span "core.create" (fun () -> Hyp_sim.create ?trace config) in
  let obs =
    Option.map
      (fun (trace, writer, store) ->
        let registry = span "obs.registry_create" Registry.create in
        let slo = span "check.slo_create" (fun () -> Slo.create ~registry config) in
        { trace; writer; store; registry; slo })
      ring
  in
  { interarrivals; sim; obs }

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let irq_pass ~mode ~seed ~count ~out_dir ~observed =
  let tmp ext = Filename.concat out_dir (Printf.sprintf "pass-%d.%s" (Unix.getpid ()) ext) in
  let store = if observed then Some (tmp "rts") else None in
  let metrics_path = tmp "metrics.json" in
  let query_s = ref 0. in
  let s, stats, summary, records, extra =
    timed ~domains:1
      ~setup:(fun () -> irq_setup ~seed ~count ~store)
      ~main:(fun s ->
        let sinks =
          match s.obs with
          | None -> []
          | Some o ->
              [ Recorder.sink (Recorder.create ~registry:o.registry ()); Slo.sink o.slo ]
        in
        with_sinks sinks (fun () -> span "core.run" (fun () -> Hyp_sim.run s.sim));
        let records = span "core.records" (fun () -> Hyp_sim.records s.sim) in
        let summary =
          span "stats.summary" (fun () ->
              Summary.of_list (List.map Irq_record.latency_us records))
        in
        let stats = span "core.stats" (fun () -> Hyp_sim.stats s.sim) in
        let extra =
          Option.map
            (fun o ->
              span "trace.store_close" (fun () -> Trace_store.Writer.close o.writer);
              span "obs.metrics_export" (fun () ->
                  let oc = open_out metrics_path in
                  output_string oc (Json.to_string (Registry.to_json o.registry) ^ "\n");
                  close_out oc);
              let slo_ok =
                span "check.slo_verdicts" (fun () ->
                    ignore (Format.asprintf "%a" Slo.pp o.slo);
                    Slo.ok o.slo)
              in
              let q0 = clock () in
              let q =
                span "core.query" (fun () ->
                    Trace_query.run ~agg:Trace_query.Latency
                      ~group_by:Trace_query.By_class o.store)
              in
              query_s := clock () -. q0;
              (o, slo_ok, q))
            s.obs
        in
        (s, stats, summary, records, extra))
  in
  let completed = stats.Hyp_sim.completed_irqs in
  let generated = Array.length s.interarrivals in
  res.ops <- generated;
  res.failed <- generated - completed;
  check "irq.classes_sum_to_completed"
    (stats.Hyp_sim.direct + stats.Hyp_sim.interposed + stats.Hyp_sim.delayed = completed);
  check "irq.records_match_completed" (summary.Summary.n = completed);
  let buf = Buffer.create (8 * generated) in
  Array.iter (fun d -> Buffer.add_string buf (string_of_int d); Buffer.add_char buf ',') s.interarrivals;
  res.input_md5 <- md5 (Buffer.contents buf);
  let sorted = Array.of_list (List.map Irq_record.latency_us records) in
  Array.sort Float.compare sorted;
  let p9999 = Summary.percentile sorted 99.99 in
  res.digest <-
    md5
      (Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %h %h %h %h %h"
         completed stats.Hyp_sim.direct stats.Hyp_sim.interposed stats.Hyp_sim.delayed
         stats.Hyp_sim.slot_switches stats.Hyp_sim.interposition_switches
         stats.Hyp_sim.interpositions_started stats.Hyp_sim.boundary_crossings
         stats.Hyp_sim.bh_boundary_deferrals stats.Hyp_sim.monitor_checks
         stats.Hyp_sim.admissions stats.Hyp_sim.denials stats.Hyp_sim.coalesced_irqs
         stats.Hyp_sim.sim_time summary.Summary.mean summary.Summary.p50
         summary.Summary.p99 summary.Summary.max p9999);
  info "sim"
    (Json.Obj
       [
         ("n", Json.Int summary.Summary.n);
         ("irq_mean_us", Json.Float summary.Summary.mean);
         ("irq_p50_us", Json.Float summary.Summary.p50);
         ("irq_p9999_us", Json.Float p9999);
         ("irq_max_us", Json.Float summary.Summary.max);
         ("direct", Json.Int stats.Hyp_sim.direct);
         ("interposed", Json.Int stats.Hyp_sim.interposed);
         ("delayed", Json.Int stats.Hyp_sim.delayed);
       ]);
  let per_irq x = x /. float_of_int generated in
  value "core.monitor_checks" (float_of_int stats.Hyp_sim.monitor_checks);
  value "core.admit_ratio"
    (float_of_int stats.Hyp_sim.admissions /. float_of_int (max 1 stats.Hyp_sim.monitor_checks));
  value "core.interpositions" (float_of_int stats.Hyp_sim.interpositions_started);
  value "core.slot_switches" (float_of_int stats.Hyp_sim.slot_switches);
  value "core.boundary_crossings" (float_of_int stats.Hyp_sim.boundary_crossings);
  value "core.bh_deferrals" (float_of_int stats.Hyp_sim.bh_boundary_deferrals);
  value "hw.coalesced_irqs" (float_of_int stats.Hyp_sim.coalesced_irqs);
  (match extra with
  | None -> ()
  | Some (o, slo_ok, q) ->
      let class_count name =
        match List.find_opt (fun g -> String.equal g.Trace_query.g_key name) q.Trace_query.q_groups with
        | Some g -> g.Trace_query.g_count
        | None -> 0
      in
      let q_max =
        List.fold_left
          (fun acc g ->
            match Option.bind g.Trace_query.g_digest Quantile.max_value with
            | Some m -> Float.max acc m
            | None -> acc)
          neg_infinity q.Trace_query.q_groups
      in
      let written = Trace_store.Writer.events_written o.writer in
      let recorded = Hyp_trace.recorded o.trace in
      check "observed.query_direct_matches_stats" (class_count "direct" = stats.Hyp_sim.direct);
      check "observed.query_interposed_matches_stats"
        (class_count "interposed" = stats.Hyp_sim.interposed);
      check "observed.query_delayed_matches_stats" (class_count "delayed" = stats.Hyp_sim.delayed);
      check "observed.query_unknown_is_zero" (class_count "unknown" = 0);
      check "observed.query_max_matches_summary" (q_max = summary.Summary.max);
      check "observed.store_events_match_recorded" (written = recorded);
      check "observed.slo_within_bounds" slo_ok;
      let store_bytes = file_size o.store in
      value "query_s" !query_s;
      value "store_bytes_per_event" (float_of_int store_bytes /. float_of_int written);
      value "trace.events_per_irq" (per_irq (float_of_int recorded));
      value "trace.ring_dropped" (float_of_int (Hyp_trace.dropped o.trace));
      value "trace.store_lost_events" (float_of_int (recorded - written));
      value "trace.query_blocks_scanned"
        (float_of_int q.Trace_query.q_stats.Rthv_obs.Tracestore.s_blocks_scanned);
      Sys.remove o.store;
      Sys.remove metrics_path);
  (match mode with
  | `Traced ->
      value "workload.gen_s" (total_s "workload.gen");
      value "core.create_s" (total_s "core.create");
      value "core.run_s" (total_s "core.run");
      value "core.run_ns_per_irq" (per_irq (total_s "core.run" *. 1e9));
      value "core.run_words_per_irq" (per_irq (total_words "core.run"));
      value "core.records_s" (total_s "core.records");
      value "core.records_words_per_irq" (per_irq (total_words "core.records"));
      value "stats.summary_s" (total_s "stats.summary");
      if observed then begin
        value "trace.store_close_s" (total_s "trace.store_close");
        value "obs.metrics_export_s" (total_s "obs.metrics_export");
        value "check.slo_verdicts_s" (total_s "check.slo_verdicts")
      end
  | `Count ->
      value "engine.arena_ops_per_irq" (per_irq (float_of_int counts.queue_ops));
      value "analysis.busy_window_iterations" counts.busy_window_iterations;
      (* irq-stream installs no sink of its own, so its runs make no sink
         calls; only the counter's presence turns them on here. *)
      value "obs.sink_calls_per_irq"
        (if observed then per_irq (float_of_int !workload_calls) else 0.)
  | `Plain -> ())

(* --- fleet-certify ------------------------------------------------------- *)

let load dir = match Fleet.load_dir dir with Ok c -> c | Error e -> failwith e

let encode config =
  match Config_codec.to_string config with Ok s -> s | Error e -> failwith e

(* Digest of the corpus as Config_codec JSON: prepare hashes the generated
   configs, a pass the decoded ones, so equal digests also show that the
   decode round-trips. *)
let fleet_digest configs =
  md5 (String.concat "\n" (List.map (fun (name, c) -> name ^ "\t" ^ encode c) configs))

let recheck = function
  | Ok cert -> Result.is_ok (Certify.recheck_string cert)
  | Error _ -> false

let certs_digest results =
  md5
    (String.concat "\n"
       (List.map
          (fun (name, r) -> name ^ "\t" ^ match r with Ok c -> c | Error e -> "error: " ^ e)
          results))

(* Certify each config on the calling domain, one layer call at a time, so
   a traced pass can time every stage. *)
let certify_stages (name, config) =
  span "check.config" (fun () ->
      ignore (span "check.lint" (fun () -> Lint.analyze config));
      if Result.is_ok (Config.validate config) then
        ignore (span "check.absint" (fun () -> Absint.analyze config));
      ignore (span "check.witness" (fun () -> Witness.all config));
      let cert = span "check.certify" (fun () -> Certify.build_string ~scenario:name config) in
      let ok = span "check.recheck" (fun () -> recheck cert) in
      ((name, cert), ok))

let fleet_domains = 2
let fleet_setup dir = (load dir, Par.create ~jobs:fleet_domains ())

let fleet_pass ~mode ~dir =
  let configs, results, rechecks =
    match mode with
    | `Plain ->
        timed ~domains:fleet_domains
          ~setup:(fun () -> fleet_setup dir)
          ~main:(fun (configs, pool) ->
            let t = clock () in
            let results = Fleet.certify_batch ~pool configs in
            value "certify_batch_s" (clock () -. t);
            (configs, results, List.map (fun (_, r) -> recheck r) results))
    | `Traced ->
        timed ~domains:1
          ~setup:(fun () -> span "check.decode" (fun () -> load dir))
          ~main:(fun configs ->
            let out = List.map certify_stages configs in
            (configs, List.map fst out, List.map snd out))
    | `Count ->
        timed ~domains:1
          ~setup:(fun () -> load dir)
          ~main:(fun configs ->
            let results =
              List.map
                (fun (name, config) -> (name, Certify.build_string ~scenario:name config))
                configs
            in
            (configs, results, List.map (fun (_, r) -> recheck r) results))
  in
  res.ops <- List.length configs;
  res.failed <- List.length (List.filter not rechecks);
  check "fleet.all_certified" (List.for_all (fun (_, r) -> Result.is_ok r) results);
  check "fleet.all_certificates_recheck" (List.for_all Fun.id rechecks);
  res.digest <- certs_digest results;
  res.input_md5 <- fleet_digest configs;
  match mode with
  | `Plain -> ()
  | `Traced ->
      value "check.decode_s" (total_s "check.decode");
      List.iter
        (fun stage -> value ("check." ^ stage ^ "_s") (total_s ("check." ^ stage)))
        [ "lint"; "absint"; "witness"; "certify"; "recheck" ];
      value "check.certify_max_config_s" (max_s "check.certify")
  | `Count ->
      let witnesses =
        List.fold_left
          (fun acc (_, r) ->
            match Result.map Json.parse r with
            | Ok (Ok doc) -> (
                match Option.bind (Json.member "witnesses" doc) Json.to_list with
                | Some ws -> acc + List.length ws
                | None -> acc)
            | _ -> acc)
          0 results
      in
      value "check.witnesses" (float_of_int witnesses);
      value "check.absint_steps" counts.absint_steps;
      value "analysis.busy_window_iterations" counts.busy_window_iterations;
      (* The fleet job installs no sink of its own. *)
      value "obs.sink_calls_per_irq" 0.

let prepare ~dir ~fleet_seed ~fleet_size =
  let configs = Fleet.gen_batch ~seed:fleet_seed ~count:fleet_size in
  (match Fleet.write_batch ~dir configs with Ok _ -> () | Error e -> failwith e);
  res.ops <- List.length configs;
  res.input_md5 <- fleet_digest configs;
  info "configs"
    (Json.List
       (List.map
          (fun (name, config) ->
            Json.List [ Json.String name; Json.String (md5 (encode config)) ])
          configs))

(* --- entry point --------------------------------------------------------- *)

let () =
  let workload = ref "" and mode = ref "plain" and seed = ref 1 in
  let count = ref 1_000_000 and out_dir = ref "." and fleet_dir = ref "" in
  let fleet_seed = ref 42 and fleet_size = ref 12 and domains = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "irq-stream | irq-observed | fleet-certify");
      ("--mode", Arg.Set_string mode, "prepare | setup | plain | traced | count");
      ("--seed", Arg.Set_int seed, "interarrival seed (irq-*)");
      ("--irqs", Arg.Set_int count, "IRQs to generate (irq-*)");
      ("--out-dir", Arg.Set_string out_dir, "directory for the store, metrics and spans");
      ("--fleet-dir", Arg.Set_string fleet_dir, "fleet corpus directory (fleet-certify)");
      ("--fleet-seed", Arg.Set_int fleet_seed, "corpus seed for prepare");
      ("--fleet-size", Arg.Set_int fleet_size, "corpus size for prepare");
      ("--domains", Arg.Set_int domains, "domains for reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pass --workload W --mode M [options] | pass --mode reference --domains N";
  let mode =
    match !mode with
    | "plain" -> `Plain
    | "traced" -> `Traced
    | "count" -> `Count
    | "prepare" -> `Prepare
    | "setup" -> `Setup
    | "reference" -> `Reference
    | m -> failwith ("unknown mode " ^ m)
  in
  tracing := mode = `Traced;
  counting := mode = `Count;
  (match (!workload, mode) with
  | _, `Reference -> res.reference_s <- [ reference_s ~domains:!domains ]
  | "fleet-certify", `Setup ->
      (* A set-up alone, in a fresh process: the corpus decode takes about a
         millisecond, so run.py pools many of these.  The reference runs
         after it, so that the set-up is timed cold, as a user meets it. *)
      let t0 = clock () in
      ignore (fleet_setup !fleet_dir);
      res.setup_s <- [ clock () -. t0 ];
      res.reference_s <- [ reference_s ~domains:1 ]
  | "fleet-certify", `Prepare ->
      prepare ~dir:!fleet_dir ~fleet_seed:!fleet_seed ~fleet_size:!fleet_size
  | _, (`Prepare | `Setup) -> failwith "prepare and setup apply to fleet-certify only"
  | "fleet-certify", ((`Plain | `Traced | `Count) as mode) -> fleet_pass ~mode ~dir:!fleet_dir
  | ("irq-stream" | "irq-observed"), ((`Plain | `Traced | `Count) as mode) ->
      irq_pass ~mode ~seed:!seed ~count:!count ~out_dir:!out_dir
        ~observed:(String.equal !workload "irq-observed")
  | w, _ -> failwith ("unknown workload " ^ w));
  if mode = `Traced then begin
    tracing := false;
    value "trace.coverage" (coverage ());
    let path =
      Filename.concat !out_dir
        (Printf.sprintf "spans-%s-%d-%d.json" !workload !seed (Unix.getpid ()))
    in
    let oc = open_out path in
    output_string oc (Json.to_string (spans_json ()));
    output_char oc '\n';
    close_out oc;
    info "spans_file" (Json.String path)
  end;
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String !workload);
            ("ops", Json.Int res.ops);
            ("failed", Json.Int res.failed);
            ("setup_s", floats res.setup_s);
            ("reference_s", floats res.reference_s);
            ("wall_s", Json.Float res.wall_s);
            ("main_s", Json.Float res.main_s);
            ("alloc_words", Json.Float res.alloc_words);
            ("peak_heap_words", Json.Int res.peak_heap_words);
            ("major_collections", Json.Int res.major_collections);
            ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) res.checks));
            ("digest", Json.String res.digest);
            ("input_md5", Json.String res.input_md5);
            ("values", Json.Obj res.values);
          ]))
