module BW = Rthv_analysis.Busy_window
module AC = Rthv_analysis.Arrival_curve
module DF = Rthv_analysis.Distance_fn
module TI = Rthv_analysis.Tdma_interference
module Ind = Rthv_analysis.Independence

let us = Testutil.us

let no_interference _dt = 0

let test_fixed_point_no_interference () =
  match BW.fixed_point ~q:3 ~wcet:(us 10) ~interference:no_interference () with
  | BW.Converged w -> Testutil.check_cycles "W = q*C" (us 30) w
  | BW.Diverged -> Alcotest.fail "unexpected divergence"

let test_fixed_point_with_interferer () =
  (* Classic response-time example: task C=2, interferer C=1 period 4 (units
     of 1us).  W(1) = 2 + ceil(W/4)*1 -> W = 3. *)
  let interferer_eta dt = AC.eta_plus (AC.periodic ~period_us:4) dt in
  let interference dt = interferer_eta dt * us 1 in
  match BW.fixed_point ~q:1 ~wcet:(us 2) ~interference () with
  | BW.Converged w -> Testutil.check_cycles "textbook busy window" (us 3) w
  | BW.Diverged -> Alcotest.fail "unexpected divergence"

let test_divergence_on_overload () =
  (* Interference grows faster than time: guaranteed overload. *)
  let interference dt = dt + 1 in
  match BW.fixed_point ~q:1 ~wcet:1 ~interference () with
  | BW.Diverged -> ()
  | BW.Converged w -> Alcotest.failf "expected divergence, got %d" w

let test_response_time_single_task () =
  (* Isolated periodic task: R = C. *)
  let curve = AC.periodic ~period_us:100 in
  match
    BW.response_time ~wcet:(us 10) ~delta:(AC.delta_min curve)
      ~interference:no_interference ()
  with
  | Ok r ->
      Testutil.check_cycles "R = C in isolation" (us 10)
        r.BW.response_time;
      Alcotest.(check int) "busy period closes after one job" 1 r.BW.q_max
  | Error msg -> Alcotest.fail msg

let test_response_time_queueing () =
  (* Task slower than its period cannot exist; instead: activation faster
     than service for a while.  delta(q) = (q-1)*10us, C = 15us, no external
     interference: job q waits for q-1 predecessors.
     W(q) = 15q, busy period while delta(q+1) = 10q <= W(q) -> never closes
     -> overload error expected. *)
  let curve = AC.periodic ~period_us:10 in
  (match
     BW.response_time ~wcet:(us 15) ~delta:(AC.delta_min curve)
       ~interference:no_interference ~max_q:64 ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected overload report");
  (* Slightly loaded but schedulable: C = 6us, period 10us.
     W(q) = 6q; delta(q+1) = 10q > 6q always -> q_max = 1, R = 6us. *)
  match
    BW.response_time ~wcet:(us 6) ~delta:(AC.delta_min curve)
      ~interference:no_interference ()
  with
  | Ok r -> Testutil.check_cycles "R" (us 6) r.BW.response_time
  | Error msg -> Alcotest.fail msg

let test_multi_activation_busy_period () =
  (* A blocking term delays the first job so the second lands in the same
     busy period: C = 4us, period 10us, constant 8us blocking.
     W(1) = 12, delta(2) = 10 <= 12 -> q = 2: W(2) = 16, delta(3) = 20 > 16.
     R = max(12 - 0, 16 - 10) = 12us. *)
  let curve = AC.periodic ~period_us:10 in
  let interference _dt = us 8 in
  match
    BW.response_time ~wcet:(us 4) ~delta:(AC.delta_min curve) ~interference ()
  with
  | Ok r ->
      Alcotest.(check int) "two jobs in busy period" 2 r.BW.q_max;
      Testutil.check_cycles "R over both jobs" (us 12) r.BW.response_time;
      Alcotest.(check int) "critical q" 1 r.BW.critical_q
  | Error msg -> Alcotest.fail msg

let test_invalid_args () =
  Alcotest.check_raises "q < 1"
    (Invalid_argument "Busy_window.fixed_point: q < 1") (fun () ->
      ignore (BW.fixed_point ~q:0 ~wcet:1 ~interference:no_interference ()));
  Alcotest.check_raises "negative wcet"
    (Invalid_argument "Busy_window.fixed_point: negative wcet") (fun () ->
      ignore (BW.fixed_point ~q:1 ~wcet:(-1) ~interference:no_interference ()))

let test_utilisation () =
  Testutil.close "utilisation sums rate*wcet" 0.75
    (BW.utilisation ~contributions:[ (0.25, 1.); (0.125, 4.) ])

(* Property: the fixed point is indeed a fixed point, and minimal among the
   iterates. *)
let prop_fixed_point_is_fixed (q, wcet, period, c_i) =
  let curve = AC.periodic ~period_us:period in
  let interference dt = AC.eta_plus curve dt * c_i in
  match BW.fixed_point ~q ~wcet ~interference () with
  | BW.Diverged -> true
  | BW.Converged w -> w = (q * wcet) + interference w

let prop_response_time_bounds_all_windows (wcet, period) =
  (* R >= W(q) - delta(q) for every q in the busy period (definition of max). *)
  let curve = AC.periodic ~period_us:period in
  match
    BW.response_time ~wcet ~delta:(AC.delta_min curve)
      ~interference:no_interference ~max_q:256 ()
  with
  | Error _ -> true
  | Ok r ->
      List.for_all
        (fun (q, w) -> r.BW.response_time >= w - AC.delta_min curve q)
        r.BW.busy_windows

(* Reference implementation of equations (3)-(5) that shares no helper with
   busy_window.ml: every q starts cold from q*wcet, as the textbook
   recursion does.  [None] when some q needs more than [naive_cap] steps —
   the warm start may then converge where a cold run would exhaust the
   iteration cap, so only runs under the cap are comparable. *)
let naive_cap = 2_000

let naive_response_time ~wcet ~delta ~interference ~max_q =
  let exception Capped in
  let window q =
    let base = q * wcet in
    let rec go steps w =
      if w > BW.ceiling then None
      else if steps > naive_cap then raise Capped
      else
        let w' = base + interference w in
        if w' <= w then Some w else go (steps + 1) w'
    in
    go 0 base
  in
  let rec explore q acc =
    if q > max_q then
      Error
        (Printf.sprintf
           "busy period still open after %d activations (overload?)" max_q)
    else
      match window q with
      | None -> Error "busy window diverged: resource overloaded"
      | Some w ->
          if delta (q + 1) <= w then explore (q + 1) ((q, w) :: acc)
          else Ok (List.rev ((q, w) :: acc))
  in
  match explore 1 [] with
  | exception Capped -> None
  | Error e -> Some (Error e)
  | Ok windows ->
      let best = ref 0 and best_q = ref 1 in
      List.iter
        (fun (q, w) ->
          if w - delta q > !best then begin
            best := w - delta q;
            best_q := q
          end)
        windows;
      Some
        (Ok
           {
             BW.response_time = !best;
             q_max = List.length windows;
             busy_windows = windows;
             critical_q = !best_q;
           })

let check_against_naive ?(max_q = 4096) ~wcet ~delta ~interference () =
  match naive_response_time ~wcet ~delta ~interference ~max_q with
  | None -> None
  | Some expected ->
      Some (expected = BW.response_time ~wcet ~delta ~interference ~max_q ())

(* A deliberately non-monotone interference curve on which warm and cold
   starts differ: W(1) = 50, so q = 2 warm-starts at 60, where the curve
   drops to 0 and the first step shrinks the window to 20.  Accepting 60
   there would also pull q = 3 into the busy period; the cold run from 20
   instead converges exactly at 30 and the busy period closes. *)
let test_non_monotone_falls_back_cold () =
  let interference x =
    if x <= 15 then 40 else if x <= 35 then 10 else if x <= 55 then 40 else 0
  in
  let delta q = Stdlib.max 0 ((q - 1) * 20) in
  match BW.response_time ~wcet:10 ~delta ~interference () with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check (list (pair int int)))
        "cold busy windows" [ (1, 50); (2, 30) ] r.BW.busy_windows;
      Alcotest.(check int) "q_max" 2 r.BW.q_max;
      Testutil.check_cycles "R" 50 r.BW.response_time;
      Alcotest.(check int) "critical q" 1 r.BW.critical_q;
      Alcotest.(check (option bool))
        "agrees with the naive cold analysis" (Some true)
        (check_against_naive ~wcet:10 ~delta ~interference ())

(* Capture the last value of one gauge through a Sink. *)
let capture_gauge name f =
  let last = ref None in
  let sink =
    {
      Rthv_obs.Sink.noop with
      Rthv_obs.Sink.gauge =
        (fun n _ v -> if String.equal n name then last := Some v);
    }
  in
  let result = Rthv_obs.Sink.with_sink sink f in
  (result, !last)

(* q = 1 converges through the shrinking exit with residual 10 (the curve
   dips at 50); q = 2 diverges.  The residual gauge must describe the
   diverged run, not keep q = 1's value. *)
let test_residual_gauge_reset_on_divergence () =
  let interference x = if x <= 10 then 40 else if x = 50 then 30 else 2 * x in
  let delta q = Stdlib.max 0 ((q - 1) * 20) in
  let result, residual =
    capture_gauge "rthv_busy_window_residual_cycles" (fun () ->
        BW.response_time ~wcet:10 ~delta ~interference ())
  in
  (match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected divergence at q = 2");
  Alcotest.(check (option (float 0.))) "residual of the diverged run"
    (Some 0.) residual;
  let _, residual =
    capture_gauge "rthv_busy_window_residual_cycles" (fun () ->
        BW.response_time ~wcet:10 ~delta ~interference ~max_q:1 ())
  in
  Alcotest.(check (option (float 0.))) "residual of the shrinking exit"
    (Some 10.) residual

(* Random monotone curves of every shape the analysis meets: the analysed
   source's own delta from any arrival model, interference summed from
   arrival-curve interferers, a TDMA gap and an Independence bound. *)
let gen_curve =
  let open QCheck2.Gen in
  oneof
    [
      map (fun p -> AC.periodic ~period_us:p) (20 -- 2000);
      map
        (fun (p, j, d) ->
          AC.periodic_jitter ~period_us:p ~jitter_us:j
            ~d_min_us:(1 + (d mod p)) ())
        (triple (20 -- 2000) (0 -- 3000) (0 -- 2000));
      map (fun d -> AC.sporadic ~d_min_us:d) (20 -- 2000);
      map
        (fun gaps ->
          let entries = Array.of_list gaps in
          for i = 1 to Array.length entries - 1 do
            entries.(i) <- entries.(i) + entries.(i - 1)
          done;
          AC.of_distance_fn (DF.of_entries (Array.map Testutil.us entries)))
        (list_size (1 -- 5) (1 -- 800));
    ]

let gen_bound =
  let open QCheck2.Gen in
  let c = map Testutil.us (1 -- 30) in
  oneof
    [
      pure Ind.isolated;
      map
        (fun (capacity, refill, c_bh_eff) ->
          Ind.token_bucket_bound ~capacity ~refill:(Testutil.us refill)
            ~c_bh_eff)
        (triple (1 -- 4) (100 -- 3000) c);
      map
        (fun (per_cycle, cycle, c_bh_eff) ->
          Ind.budget_bound ~per_cycle ~cycle:(Testutil.us cycle) ~c_bh_eff)
        (triple (1 -- 3) (200 -- 5000) c);
    ]

let gen_tdma =
  let open QCheck2.Gen in
  option
    (map
       (fun (cycle, slot) ->
         TI.make ~cycle:(Testutil.us cycle)
           ~slot:(Testutil.us (1 + (slot mod cycle))))
       (pair (100 -- 20_000) (0 -- 20_000)))

let gen_analysis =
  let open QCheck2.Gen in
  quad
    (pair (map Testutil.us (1 -- 100)) gen_curve)
    (list_size (0 -- 3) (pair gen_curve (map Testutil.us (1 -- 60))))
    gen_tdma gen_bound

let prop_warm_equals_cold ((wcet, self), interferers, tdma, bound) =
  let interference dt =
    List.fold_left
      (fun acc (curve, c) -> acc + (c * AC.eta_plus curve dt))
      0 interferers
    + (match tdma with None -> 0 | Some t -> TI.interference t dt)
    + bound dt
  in
  match
    check_against_naive ~max_q:256 ~wcet ~delta:(AC.delta_min self)
      ~interference ()
  with
  | None -> true
  | Some agree -> agree

let suite =
  [
    Alcotest.test_case "fixed point, no interference" `Quick
      test_fixed_point_no_interference;
    Alcotest.test_case "fixed point with interferer" `Quick
      test_fixed_point_with_interferer;
    Alcotest.test_case "divergence detection" `Quick test_divergence_on_overload;
    Alcotest.test_case "isolated task R = C" `Quick test_response_time_single_task;
    Alcotest.test_case "overload and light load" `Quick test_response_time_queueing;
    Alcotest.test_case "multi-activation busy period" `Quick
      test_multi_activation_busy_period;
    Alcotest.test_case "argument validation" `Quick test_invalid_args;
    Alcotest.test_case "utilisation" `Quick test_utilisation;
    Testutil.qtest "converged value is a fixed point"
      QCheck2.Gen.(
        quad (1 -- 4) (map Testutil.us (1 -- 50)) (10 -- 1000)
          (map Testutil.us (0 -- 5)))
      prop_fixed_point_is_fixed;
    Alcotest.test_case "non-monotone curve falls back to a cold start" `Quick
      test_non_monotone_falls_back_cold;
    Alcotest.test_case "residual gauge reset on divergence" `Quick
      test_residual_gauge_reset_on_divergence;
    Testutil.qtest "warm start equals the naive cold analysis" gen_analysis
      prop_warm_equals_cold;
    Testutil.qtest "R dominates all busy windows"
      QCheck2.Gen.(pair (map Testutil.us (1 -- 100)) (50 -- 2000))
      prop_response_time_bounds_all_windows;
  ]
