module Cycles = Rthv_engine.Cycles
module Platform = Rthv_hw.Platform
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Independence = Rthv_analysis.Independence
module Bound = Rthv_analysis.Bound
module Gen = Rthv_workload.Gen
module TO = Trace_oracle
module D = Diagnostic

type claim =
  | Interference_claim of {
      ic_carrier : int;
      ic_windows : (Cycles.t * Cycles.t) list;
    }
  | Service_claim of { sv_partition : int; sv_min_total : Cycles.t }

type t = {
  w_code : string;
  w_loc : string;
  w_predicted : string;
  w_claim : claim;
  w_config : Config.t;
  w_arrivals : (int * Cycles.t array) list;
  w_baseline : D.t list;
  w_oracle : D.t list;
  w_measured : TO.measurement;
  w_confirmed : bool;
  w_digest : string;
}

(* Which oracle rule confirms which refutation: interference-side
   refutations (a claimed eq.-(14)-style curve does not hold) are caught by
   the windowed charge audit, service-side refutations (a claimed supply
   bound does not hold) by the net-service audit. *)
let channels =
  [
    ("RTHV002", "RTHV109");
    ("RTHV003", "RTHV104");
    ("RTHV004", "RTHV104");
    ("RTHV005", "RTHV109");
    ("RTHV006", "RTHV109");
    ("RTHV012", "RTHV104");
    ("RTHV013", "RTHV104");
    ("RTHV017", "RTHV109");
    ("RTHV018", "RTHV104");
    ("RTHV020", "RTHV109");
  ]

let cycle_of config =
  Rthv_core.Slot_plan.cycle_length (Config.slot_plan config)

let c_ctx_of config = Platform.ctx_switch_cost config.Config.platform

let strip_prefix ~prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

let source_of_loc config loc =
  match strip_prefix ~prefix:"source " loc with
  | Some name ->
      List.find_opt
        (fun (s : Config.source) -> s.Config.name = name)
        config.Config.sources
  | None -> None

let partition_of_loc config loc =
  match strip_prefix ~prefix:"partition " loc with
  | Some name ->
      let rec find i = function
        | [] -> None
        | (p : Config.partition) :: _ when p.Config.pname = name -> Some i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 config.Config.partitions
  | None -> None

(* --- burst synthesis ----------------------------------------------------- *)

(* The densest arrival stream the source's admission policy admits in full:
   δ⁻-conforming for monitored sources (Gen.adversarial), the greedy
   earliest admitted schedule for the rate-based policies.  [None] when the
   policy never interposes or its admissions cannot be predicted.  [start]
   delays the first arrival — an interference witness must arrive in a
   {e foreign} slot to interpose at all, so it skips the subscriber's own
   leading slot. *)
let burst config (s : Config.source) ~start ~horizon =
  let platform = config.Config.platform in
  let cycle = cycle_of config in
  let policy = Absint.bound_policy ~cycle s.Config.shaping in
  let eff = Absint.c_bh_eff ~platform ~c_bh:s.Config.c_bh in
  let fp = Absint.footprint ~platform ~c_th:s.Config.c_th ~c_bh_eff:eff in
  let shift arr =
    if Array.length arr = 0 then None
    else begin
      (* Distance-based policies are time-invariant and the budget's
         aligned-window count only splits across more windows, so a shifted
         stream is still admitted in full. *)
      arr.(0) <- Cycles.( + ) arr.(0) start;
      Some arr
    end
  in
  match policy with
  | Bound.Monitored fn ->
      let count = Stdlib.min 2048 ((horizon / fp) + 2) in
      shift (Gen.adversarial ~fn ~min_gap:fp ~count ())
  | policy -> (
      match Absint.adversarial_schedule ~policy ~footprint:fp ~horizon with
      | [] -> None
      | t0 :: rest ->
          let ds, _ =
            List.fold_left
              (fun (acc, prev) t -> (Cycles.( - ) t prev :: acc, t))
              ([ t0 ], t0) rest
          in
          shift (Array.of_list (List.rev ds)))

let with_arrivals config overrides ~empty_others =
  {
    config with
    Config.sources =
      List.map
        (fun (s : Config.source) ->
          match List.assoc_opt s.Config.line overrides with
          | Some arr -> { s with Config.interarrivals = arr }
          | None ->
              if empty_others then { s with Config.interarrivals = [||] }
              else s)
        config.Config.sources;
  }

(* A witness run must terminate even when the refuted configuration never
   drains its IRQ backlog (that divergence is often the point): cap the
   simulation shortly after the synthesized bursts end.  A trace cut
   mid-window is legitimate oracle input. *)
let run_trace config ~horizon =
  let trace = Hyp_trace.create ~capacity:Hyp_sim.audit_trace_capacity () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run ~horizon:(Cycles.( + ) horizon (Cycles.( * ) (cycle_of config) 2)) sim;
  trace

let digest_of arrivals =
  let buf = Buffer.create 256 in
  List.iter
    (fun (line, arr) ->
      Buffer.add_string buf (string_of_int line);
      Buffer.add_char buf ':';
      Array.iter
        (fun d ->
          Buffer.add_string buf (string_of_int d);
          Buffer.add_char buf ',')
        arr;
      Buffer.add_char buf ';')
    arrivals;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let has_error diags =
  List.exists (fun (d : D.t) -> d.D.severity = D.Error) diags

let fires code diags = List.exists (fun (d : D.t) -> d.D.code = code) diags

(* --- claim specifications ------------------------------------------------ *)

(* The weakest certification-relevant interference claim: in every audit
   window some service beyond the slot-entry switch survives.  Refuting it
   shows no eq.-(2) independence budget can hold.  The carrier's C'_BH is
   zeroed so the oracle adds no carry-in slack on top of the claim. *)
let slot_claim_spec ~c_ctx (spec : TO.spec) carrier =
  let curve dt = Cycles.max Cycles.zero (Cycles.( - ) dt c_ctx) in
  {
    spec with
    TO.sources =
      List.map
        (fun (ss : TO.source_spec) ->
          if ss.TO.ss_line = carrier then
            {
              ss with
              TO.ss_shaped = true;
              ss_condition = None;
              ss_bound = Some curve;
              ss_c_bh_eff = Cycles.zero;
            }
          else { ss with TO.ss_shaped = false; ss_bound = None })
        spec.TO.sources;
  }

(* The grant-only certificate's claim (RTHV018): only δ⁻-granted sources
   carry interference curves; the bucket/budget admissions the closed form
   ignores must then exceed the summed grant budget on the trace. *)
let grant_claim_spec config (spec : TO.spec) =
  let platform = config.Config.platform in
  {
    spec with
    TO.sources =
      List.map2
        (fun (s : Config.source) (ss : TO.source_spec) ->
          match Absint.static_condition s.Config.shaping with
          | Some fn when not (Absint.degenerate fn) ->
              let eff = Absint.c_bh_eff ~platform ~c_bh:s.Config.c_bh in
              {
                ss with
                TO.ss_shaped = true;
                ss_condition = None;
                ss_bound =
                  Some (Independence.interposed_bound ~monitor:fn ~c_bh_eff:eff);
              }
          | Some _ | None -> { ss with TO.ss_shaped = false; ss_bound = None })
        config.Config.sources spec.TO.sources;
  }

let spec_bound (spec : TO.spec) dt =
  let carry =
    List.fold_left
      (fun acc (ss : TO.source_spec) ->
        if ss.TO.ss_shaped then Cycles.max acc ss.TO.ss_c_bh_eff else acc)
      Cycles.zero spec.TO.sources
  in
  List.fold_left
    (fun acc (ss : TO.source_spec) ->
      match ss.TO.ss_bound with
      | Some curve -> Cycles.( + ) acc (curve dt)
      | None -> acc)
    carry spec.TO.sources

let claim_windows (spec : TO.spec) =
  let windows =
    List.sort_uniq Cycles.compare (spec.TO.cycle :: spec.TO.slots)
  in
  List.map (fun dt -> (dt, spec_bound spec dt)) windows

(* --- the interference channel -------------------------------------------- *)

let interference_targets config ai (diag : D.t) =
  match diag.D.code with
  | "RTHV003" | "RTHV012" | "RTHV013" -> (
      match source_of_loc config diag.D.loc with
      | Some s -> Some [ s ]
      | None -> None)
  | "RTHV004" | "RTHV018" ->
      (* Every source that can interpose contributes to the overload /
         blind spot; burst them all. *)
      let active =
        List.filter_map
          (fun ((s : Config.source), (f : Absint.source_fact)) ->
            if f.Absint.sf_active then Some s else None)
          (List.combine config.Config.sources ai.Absint.sources)
      in
      if active = [] then None else Some active
  | _ -> None

let interference_witness config ai (diag : D.t) =
  let horizon = Cycles.( * ) (cycle_of config) 6 in
  let c_ctx = c_ctx_of config in
  match interference_targets config ai diag with
  | None -> None
  | Some targets -> (
      let slots = Config.effective_slots config in
      let bursts =
        List.filter_map
          (fun (s : Config.source) ->
            (* Skip the subscriber's own leading slot: arrivals there are
               handled direct and interpose nothing. *)
            let start =
              if s.Config.subscriber = 0 && Array.length slots > 0 then
                slots.(0)
              else Cycles.zero
            in
            match burst config s ~start ~horizon with
            | Some arr -> Some (s.Config.line, arr)
            | None -> None)
          targets
      in
      match bursts with
      | [] -> None
      | (carrier, _) :: _ ->
          let wconfig = with_arrivals config bursts ~empty_others:true in
          let trace = run_trace wconfig ~horizon in
          let spec = TO.of_config wconfig in
          let claim_spec =
            match diag.D.code with
            | "RTHV018" -> grant_claim_spec wconfig spec
            | _ -> slot_claim_spec ~c_ctx spec carrier
          in
          let baseline = TO.audit spec trace in
          let oracle = TO.audit claim_spec trace in
          let measured = TO.measure spec (Hyp_trace.to_list trace) in
          Some
            {
              w_code = diag.D.code;
              w_loc = diag.D.loc;
              w_predicted = "RTHV104";
              w_claim =
                Interference_claim
                  { ic_carrier = carrier; ic_windows = claim_windows claim_spec };
              w_config = wconfig;
              w_arrivals = List.sort compare bursts;
              w_baseline = baseline;
              w_oracle = oracle;
              w_measured = measured;
              w_confirmed =
                (not (has_error baseline)) && fires "RTHV104" oracle;
              w_digest = digest_of (List.sort compare bursts);
            })

(* --- the service channel ------------------------------------------------- *)

(* The net-service minimum the refuted guarantee implies over [horizon]. *)
let service_claim config ai ~horizon (diag : D.t) =
  let cycle = cycle_of config in
  let c_ctx = c_ctx_of config in
  let demand_claim util p =
    let total = ceil (util *. float_of_int horizon) in
    Some { TO.sc_partition = p; sc_min_total = int_of_float total }
  in
  match diag.D.code with
  | "RTHV002" -> (
      match partition_of_loc config diag.D.loc with
      | Some p -> Some { TO.sc_partition = p; sc_min_total = 1 }
      | None -> None)
  | "RTHV005" | "RTHV006" -> (
      match partition_of_loc config diag.D.loc with
      | Some p -> (
          match List.nth_opt ai.Absint.partitions p with
          | Some pf -> demand_claim pf.Absint.pf_task_util p
          | None -> None)
      | None -> None)
  | "RTHV020" -> (
      match partition_of_loc config diag.D.loc with
      | Some p -> (
          match List.nth_opt ai.Absint.partitions p with
          | Some pf -> demand_claim pf.Absint.pf_demand p
          | None -> None)
      | None -> None)
  | "RTHV017" -> (
      match source_of_loc config diag.D.loc with
      | Some s -> (
          match List.nth_opt config.Config.partitions s.Config.subscriber with
          | Some p ->
              (* The declared slot's supply, per completed cycle — what the
                 plan would still deliver if the slot fields were honoured. *)
              let per_cycle = Cycles.( - ) p.Config.slot c_ctx in
              let cycles = horizon / cycle in
              Some
                {
                  TO.sc_partition = s.Config.subscriber;
                  sc_min_total = Cycles.( * ) per_cycle cycles;
                }
          | None -> None)
      | None -> None)
  | _ -> None

let service_witness config ai (diag : D.t) =
  let horizon = Cycles.( * ) (cycle_of config) 6 in
  let bursts =
    List.filter_map
      (fun (s : Config.source) ->
        if Absint.shaped s then
          match burst config s ~start:Cycles.zero ~horizon with
          | Some arr -> Some (s.Config.line, arr)
          | None -> None
        else None)
      config.Config.sources
  in
  let wconfig = with_arrivals config bursts ~empty_others:false in
  let trace = run_trace wconfig ~horizon in
  let spec = TO.of_config wconfig in
  let baseline = TO.audit spec trace in
  let measured = TO.measure spec (Hyp_trace.to_list trace) in
  match service_claim wconfig ai ~horizon:measured.TO.m_horizon diag with
  | None -> None
  | Some claim ->
      let claim_spec = { spec with TO.claims = [ claim ] } in
      let oracle = TO.audit claim_spec trace in
      Some
        {
          w_code = diag.D.code;
          w_loc = diag.D.loc;
          w_predicted = "RTHV109";
          w_claim =
            Service_claim
              {
                sv_partition = claim.TO.sc_partition;
                sv_min_total = claim.TO.sc_min_total;
              };
          w_config = wconfig;
          w_arrivals = List.sort compare bursts;
          w_baseline = baseline;
          w_oracle = oracle;
          w_measured = measured;
          w_confirmed = (not (has_error baseline)) && fires "RTHV109" oracle;
          w_digest = digest_of (List.sort compare bursts);
        }

let synthesize config (diag : D.t) =
  if diag.D.severity <> D.Error then None
  else
    match (Config.validate config, List.assoc_opt diag.D.code channels) with
    | Error _, _ | _, None -> None
    | Ok (), Some predicted ->
        let ai = Absint.analyze config in
        if predicted = "RTHV104" then interference_witness config ai diag
        else service_witness config ai diag

let all config =
  List.filter_map
    (fun (diag : D.t) ->
      match synthesize config diag with
      | Some w -> Some (diag, w)
      | None -> None)
    (Lint.analyze config)

(* The static rules refute against *proved* (eq.-(14)-style upper-bound)
   interference; a refutation can therefore hold under the proved bounds yet
   not be realizable by any concrete arrival pattern — e.g. summed per-source
   worst cases that global interposition serialization cannot deliver
   jointly, or a transient busy-window excursion that aggregate net supply
   cannot expose.  Certification resolves this by replay: an Error whose
   adversarial witness does not confirm is demoted to a Warning, so every
   Error in certified output carries a confirmed counterexample by
   construction.  Structural errors with no simulation channel (RTHV001,
   RTHV011) are their own proof and are exempt. *)
let demote (diag : D.t) =
  {
    diag with
    D.severity = D.Warning;
    message =
      diag.D.message
      ^ " [demoted: refuted under proved bounds only — the adversarial \
         replay could not realize this violation]";
  }

let certified config =
  let diags = Lint.analyze config in
  (* A configuration that cannot be simulated has no replay to confirm or
     refute anything with; its RTHV001 already stands. *)
  if Result.is_error (Config.validate config) then (diags, [])
  else begin
    let witnesses = ref [] in
    let graded =
      List.map
        (fun (diag : D.t) ->
          if
            diag.D.severity <> D.Error
            || not (List.mem_assoc diag.D.code channels)
          then diag
          else
            match synthesize config diag with
            | Some w when w.w_confirmed ->
                witnesses := (diag, w) :: !witnesses;
                diag
            | Some _ | None -> demote diag)
        diags
    in
    (graded, List.rev !witnesses)
  end

let digest_of_arrivals = digest_of
