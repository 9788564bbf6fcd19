(* The live metrics path against a structural reference.  The simulator
   passes prebuilt label sets, the registry resolves series by identity,
   the recorder caches its span series and the SLO sink its last series;
   none of that may change a byte of the exposition.  The reference sink
   below does what the recorder did before any of it existed: it builds
   every label set afresh on every call and goes through the plain
   Registry API, whose identity cache a fresh label set never hits. *)

module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Labels = Rthv_obs.Labels
module Registry = Rthv_obs.Registry
module Recorder = Rthv_obs.Recorder
module Sink = Rthv_obs.Sink
module Span = Rthv_obs.Span
module Json = Rthv_obs.Json
module Quantile = Rthv_obs.Quantile
module Metric = Rthv_obs.Metric
module Slo = Rthv_check.Slo

let fresh labels = Labels.v (Labels.to_list labels)

let reference_sink reg slo =
  {
    Sink.incr = (fun name labels n -> Registry.incr reg ~labels:(fresh labels) name n);
    gauge = (fun name labels v -> Registry.set_gauge reg ~labels:(fresh labels) name v);
    observe =
      (fun name labels x ->
        Registry.observe_summary reg ~labels:(fresh labels) name x;
        if name = "rthv_irq_latency_us" then
          let l = Labels.to_list labels in
          Slo.observe slo ~source:(List.assoc "source" l)
            ~cls:(List.assoc "class" l) ~latency_us:x);
    span =
      (fun sp ->
        Registry.incr reg
          ~labels:
            (Labels.v
               [ ("source", sp.Span.sp_source); ("class", sp.Span.sp_class) ])
          "rthv_irq_spans_total" 1;
        List.iter
          (fun (component, v) ->
            Registry.observe_summary reg
              ~labels:
                (Labels.v
                   [
                     ("source", sp.Span.sp_source);
                     ("class", sp.Span.sp_class);
                     ("component", component);
                   ])
              "rthv_irq_component_us" v)
          (Span.components sp));
  }

let exposition reg =
  (Json.to_string (Registry.to_json reg), Registry.to_prometheus reg)

let prop_live_equals_reference case =
  let config = Test_reference_sim.config_of_case case in
  match Config.validate config with
  | Error _ -> QCheck2.assume_fail ()
  | Ok () ->
      let live = Registry.create () and reference = Registry.create () in
      let live_slo = Slo.create ~registry:live config in
      let ref_slo = Slo.create ~registry:reference config in
      (* Only for its HELP texts: the reference records through its own
         sink. *)
      ignore (Recorder.create ~registry:reference () : Recorder.t);
      let sink =
        Sink.tee
          (Sink.tee (Recorder.sink (Recorder.create ~registry:live ())) (Slo.sink live_slo))
          (reference_sink reference ref_slo)
      in
      Sink.with_sink sink (fun () ->
          let sim = Hyp_sim.create config in
          Hyp_sim.run ~horizon:(Rthv_engine.Cycles.of_ms 100) sim);
      let json, prom = exposition live and ref_json, ref_prom = exposition reference in
      let slo = Format.asprintf "%a" Slo.pp live_slo
      and ref_slo = Format.asprintf "%a" Slo.pp ref_slo in
      if json <> ref_json then QCheck2.Test.fail_reportf "JSON differs:\n%s\nvs\n%s" json ref_json
      else if prom <> ref_prom then
        QCheck2.Test.fail_reportf "Prometheus differs:\n%s\nvs\n%s" prom ref_prom
      else if slo <> ref_slo then
        QCheck2.Test.fail_reportf "SLO table differs:\n%s\nvs\n%s" slo ref_slo
      else true

(* Cells resolved (and cached) before a merge keep receiving updates after
   it, and the merged values are what a structural lookup sees. *)
let test_merge_after_cached_lookups () =
  let labels = Labels.v [ ("partition", "0") ] in
  let reg = Registry.create () in
  let update reg labels x =
    Registry.incr reg ~labels "c_total" 1;
    Registry.observe_summary reg ~labels "s_us" x;
    Registry.observe reg ~labels "h_us" x
  in
  update reg labels 1.;
  update reg labels 2.;
  let counter = Registry.counter reg ~labels "c_total"
  and digest = Registry.summary reg ~labels "s_us"
  and histogram = Registry.histogram reg ~labels "h_us" in
  let src = Registry.create () in
  List.iter (update src (fresh labels)) [ 3.; 4.; 5. ];
  Registry.merge ~into:reg src;
  update reg labels 6.;
  let again = fresh labels in
  Alcotest.(check bool) "counter cell kept" true
    (Registry.counter reg ~labels:again "c_total" == counter);
  Alcotest.(check bool) "digest cell kept" true
    (Registry.summary reg ~labels:again "s_us" == digest);
  Alcotest.(check bool) "histogram cell kept" true
    (Registry.histogram reg ~labels:again "h_us" == histogram);
  (match Registry.find reg ~labels:again "c_total" with
  | Some (Metric.Counter r) -> Alcotest.(check int) "counter" 6 !r
  | _ -> Alcotest.fail "counter missing");
  (match Registry.find reg ~labels:again "s_us" with
  | Some (Metric.Summary q) ->
      Alcotest.(check int) "digest count" 6 (Quantile.count q);
      Alcotest.(check (option (float 0.))) "digest max" (Some 6.)
        (Quantile.max_value q)
  | _ -> Alcotest.fail "digest missing");
  match Registry.find reg ~labels:again "h_us" with
  | Some (Metric.Histogram h) ->
      Alcotest.(check int) "histogram total" 6 (Metric.total h);
      Alcotest.(check (float 0.)) "histogram sum" 21. (Metric.sum h)
  | _ -> Alcotest.fail "histogram missing"

(* Two recorders in one process, each on its own registry: their caches
   must not leak series into each other.  Each registry must read exactly
   as a lone recorder that saw the same runs. *)
let test_two_recorders () =
  let config = Test_reference_sim.config_of_case in
  let case sources =
    {
      Test_reference_sim.slots_us = [ 120; 200 ];
      ideal = false;
      finish_bh = true;
      sources;
    }
  in
  let source subscriber d_min_us arrivals_us =
    {
      Test_reference_sim.subscriber;
      c_th_us = 3;
      c_bh_us = 20;
      d_min_us;
      arrivals_us;
    }
  in
  let a = config (case [ source 0 (Some 50) [ 10; 30; 200; 15 ] ]) in
  let b =
    config
      (case [ source 1 None [ 5; 5; 90 ]; source 0 (Some 40) [ 70; 12 ] ])
  in
  let both = config (case [ source 1 (Some 60) [ 25; 300; 8; 8 ] ]) in
  let run sink config =
    Sink.with_sink sink (fun () -> Hyp_sim.run (Hyp_sim.create config))
  in
  let r1 = Recorder.create () and r2 = Recorder.create () in
  run (Recorder.sink r1) a;
  run (Recorder.sink r2) b;
  run (Sink.tee (Recorder.sink r1) (Recorder.sink r2)) both;
  run (Recorder.sink r1) a;
  let alone runs =
    let r = Recorder.create () in
    List.iter (run (Recorder.sink r)) runs;
    Registry.to_prometheus (Recorder.registry r)
  in
  Alcotest.(check string) "first recorder" (alone [ a; both; a ])
    (Registry.to_prometheus (Recorder.registry r1));
  Alcotest.(check string) "second recorder" (alone [ b; both ])
    (Registry.to_prometheus (Recorder.registry r2))

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"live metrics == structural reference"
         ~print:Test_reference_sim.print_case Test_reference_sim.case_gen
         prop_live_equals_reference);
    Alcotest.test_case "merge after cached lookups" `Quick
      test_merge_after_cached_lookups;
    Alcotest.test_case "two recorders, two registries" `Quick
      test_two_recorders;
  ]
