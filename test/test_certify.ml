(* Proof-carrying certificates: every artifact the builder emits must pass
   the independent recheck, and any single-byte tamper must be detected.
   SARIF export is checked for structural validity against the same
   diagnostics. *)

module J = Rthv_obs.Json
module Certify = Rthv_check.Certify
module Sarif = Rthv_check.Sarif
module Fleet = Rthv_check.Fleet
module Lint = Rthv_check.Lint
module Scenarios = Rthv_check.Scenarios

let build name config =
  match Certify.build_string ~scenario:name config with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: build failed: %s" name e

(* Flip one content digit (not punctuation, not the digest's own hex) so
   the mutation changes a serialized number the digest covers. *)
let tamper s =
  let cut =
    match String.index_opt s '{' with Some i -> i + 1 | None -> 0
  in
  let rec find i =
    if i >= String.length s then Alcotest.fail "nothing to tamper with"
    else
      match s.[i] with
      | '0' .. '9' -> i
      | _ -> find (i + 1)
  in
  let i = find cut in
  let b = Bytes.of_string s in
  Bytes.set b i (if s.[i] = '5' then '6' else '5');
  Bytes.to_string b

let test_scenarios_recheck () =
  List.iter
    (fun (name, builder) ->
      let s = build name (builder ()) in
      (match Certify.recheck_string s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s: recheck rejected: %s" name
            (String.concat " | " msgs));
      match Certify.recheck_string (tamper s) with
      | Ok () -> Alcotest.failf "%s: tampered artifact accepted" name
      | Error _ -> ())
    Scenarios.all

let test_fleet_recheck () =
  List.iter
    (fun (name, config) ->
      let s = build name config in
      match Certify.recheck_string s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s: recheck rejected: %s" name
            (String.concat " | " msgs))
    (Fleet.gen_batch ~seed:42 ~count:4)

(* The CI fleet corpus: its certificates pinned byte for byte, and the
   total busy-window fixed-point work of certifying it, read through a
   counting sink, bounded (the warm start needs 2.06M iterations; the cold
   start needed 37.2M and produced the same certificates). *)
let test_fleet_corpus_pinned () =
  let iterations = ref 0. in
  let counting =
    {
      Rthv_obs.Sink.noop with
      Rthv_obs.Sink.gauge =
        (fun name _ v ->
          if String.equal name "rthv_busy_window_iterations" then
            iterations := !iterations +. v);
    }
  in
  let certs =
    Rthv_obs.Sink.with_sink counting (fun () ->
        List.map
          (fun (name, config) ->
            (name, Certify.build_string ~scenario:name config))
          (Fleet.gen_batch ~seed:42 ~count:12))
  in
  let digest =
    String.concat "\n"
      (List.map
         (fun (name, r) ->
           name ^ "\t" ^ match r with Ok c -> c | Error e -> "error: " ^ e)
         certs)
    |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string)
    "certificate digest" "eba118731f24a18c06756b60c226001a" digest;
  if !iterations > 2_100_000. then
    Alcotest.failf "busy-window iterations %.0f > 2.1M" !iterations

let test_recheck_rejects_garbage () =
  List.iter
    (fun s ->
      match Certify.recheck_string s with
      | Ok () -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{}"; "{\"schema\":\"rthv-cert/9\"}"; "[1]"; "not json" ]

let test_certify_batch_job_invariant () =
  let batch = Fleet.gen_batch ~seed:42 ~count:4 in
  let run jobs =
    Fleet.certify_batch ~pool:(Rthv_par.Par.create ~jobs ()) batch
    |> List.map (fun (n, r) -> (n, Result.get_ok r))
  in
  let r1 = run 1 and r4 = run 4 in
  List.iter2
    (fun (n, a) (_, b) ->
      Alcotest.(check string) (n ^ " byte-identical across job counts") a b)
    r1 r4

let test_sarif_valid () =
  let groups =
    List.map
      (fun (name, builder) -> (Some name, Lint.analyze (builder ())))
      Scenarios.all
  in
  match J.parse (Sarif.to_string groups) with
  | Error e -> Alcotest.failf "SARIF does not parse: %s" e
  | Ok log -> (
      Alcotest.(check (option string)) "version" (Some "2.1.0")
        (Option.bind (J.member "version" log) J.to_str);
      match Option.bind (J.member "runs" log) J.to_list with
      | Some [ run ] ->
          let rules =
            Option.bind (J.member "tool" run) (J.member "driver")
            |> Fun.flip Option.bind (J.member "rules")
            |> Fun.flip Option.bind J.to_list
            |> Option.value ~default:[]
          in
          let rule_ids =
            List.filter_map
              (fun r -> Option.bind (J.member "id" r) J.to_str)
              rules
          in
          Alcotest.(check int) "rule table size"
            (List.length Sarif.rules) (List.length rule_ids);
          let results =
            Option.bind (J.member "results" run) J.to_list
            |> Option.value ~default:[]
          in
          if results = [] then Alcotest.fail "no SARIF results";
          List.iter
            (fun res ->
              let rule_id =
                Option.bind (J.member "ruleId" res) J.to_str
                |> Option.value ~default:"?"
              in
              if not (List.mem rule_id rule_ids) then
                Alcotest.failf "result rule %s not in the driver table" rule_id;
              match Option.bind (J.member "ruleIndex" res) J.to_int with
              | Some idx when idx >= 0 && idx < List.length rule_ids ->
                  Alcotest.(check string) "ruleIndex resolves" rule_id
                    (List.nth rule_ids idx)
              | _ -> Alcotest.failf "bad ruleIndex for %s" rule_id)
            results
      | _ -> Alcotest.fail "expected exactly one SARIF run")

let suite =
  [
    Alcotest.test_case "scenario artifacts recheck, tamper detected" `Slow
      test_scenarios_recheck;
    Alcotest.test_case "fleet artifacts recheck" `Slow test_fleet_recheck;
    Alcotest.test_case "CI corpus certificates and busy-window work pinned"
      `Slow test_fleet_corpus_pinned;
    Alcotest.test_case "recheck rejects garbage" `Quick
      test_recheck_rejects_garbage;
    Alcotest.test_case "certify_batch job-invariant" `Slow
      test_certify_batch_job_invariant;
    Alcotest.test_case "SARIF export valid" `Quick test_sarif_valid;
  ]
