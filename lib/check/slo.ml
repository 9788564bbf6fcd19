(* Streaming SLO gauges.  See slo.mli.

   One mutable record per (source, class) series, created lazily on the
   first sample and cached in a hashtable, so the steady-state cost of a
   sample is a hash lookup plus a few float compares and ref updates —
   cheap enough to sit inside a live simulation's sink or a million-event
   store scan.  The sink skips even the lookup while the simulator keeps
   passing the label set of the previous sample. *)

module Registry = Rthv_obs.Registry
module Labels = Rthv_obs.Labels
module Json = Rthv_obs.Json

type verdict = {
  sv_source : string;
  sv_class : string;
  sv_count : int;
  sv_worst_us : float;
  sv_bound_us : float option;
  sv_burn : float option;
  sv_violations : int;
}

type series = {
  se_source : string;
  se_class : string;
  se_bound_us : float option;
  mutable se_count : int;
  mutable se_worst_us : float;
  mutable se_violations : int;
  (* Registry-backed cells, shared with the exposition (None without a
     registry). *)
  se_worst_gauge : float ref option;
  se_burn_gauge : float ref option;
  se_samples : int ref option;
  se_violations_counter : int ref option;
}

type t = {
  bounds : Headroom.bound list;
  registry : Registry.t option;
  table : (string * string, series) Hashtbl.t;
  (* {!sink}'s one-entry cache: the last label set it saw and its series,
     matched by physical identity. *)
  mutable last : (Labels.t * series) option;
}

let help =
  [
    ("rthv_slo_latency_bound_us", "Analytic latency bound for the series (eqs. 11/12/16).");
    ("rthv_slo_worst_latency_us", "Worst observed IRQ latency so far, by source and class.");
    ("rthv_slo_burn_ratio", "Worst observed latency divided by the analytic bound.");
    ("rthv_slo_samples_total", "Latency samples folded into the SLO series.");
    ("rthv_slo_violations_total", "Latency samples that exceeded the analytic bound.");
  ]

let create ?registry config =
  Option.iter (fun r -> List.iter (fun (n, d) -> Registry.set_help r n d) help) registry;
  {
    bounds = Headroom.bounds config;
    registry;
    table = Hashtbl.create 16;
    last = None;
  }

let series t ~source ~cls =
  match Hashtbl.find_opt t.table (source, cls) with
  | Some s -> s
  | None ->
      let bound = Headroom.bound_for t.bounds ~source ~cls in
      let labels = Labels.v [ ("source", source); ("class", cls) ] in
      let gauge name = Option.map (fun r -> Registry.gauge r ~labels name) t.registry in
      let counter name = Option.map (fun r -> Registry.counter r ~labels name) t.registry in
      (match (t.registry, bound) with
      | Some r, Some b -> Registry.set_gauge r ~labels "rthv_slo_latency_bound_us" b
      | _ -> ());
      let s =
        {
          se_source = source;
          se_class = cls;
          se_bound_us = bound;
          se_count = 0;
          se_worst_us = 0.;
          se_violations = 0;
          se_worst_gauge = gauge "rthv_slo_worst_latency_us";
          se_burn_gauge = Option.bind bound (fun _ -> gauge "rthv_slo_burn_ratio");
          se_samples = counter "rthv_slo_samples_total";
          se_violations_counter = counter "rthv_slo_violations_total";
        }
      in
      Hashtbl.add t.table (source, cls) s;
      s

let fold s latency_us =
  s.se_count <- s.se_count + 1;
  (match s.se_samples with Some r -> incr r | None -> ());
  if latency_us > s.se_worst_us then begin
    s.se_worst_us <- latency_us;
    (match s.se_worst_gauge with Some r -> r := latency_us | None -> ());
    match (s.se_bound_us, s.se_burn_gauge) with
    | Some b, Some r when b > 0. -> r := latency_us /. b
    | _ -> ()
  end;
  match s.se_bound_us with
  | Some b when latency_us > b -> (
      s.se_violations <- s.se_violations + 1;
      match s.se_violations_counter with Some r -> incr r | None -> ())
  | _ -> ()

let observe t ~source ~cls ~latency_us = fold (series t ~source ~cls) latency_us

let sink t =
  {
    Rthv_obs.Sink.noop with
    observe =
      (fun name labels v ->
        if String.equal name "rthv_irq_latency_us" then
          match t.last with
          | Some (last, s) when last == labels -> fold s v
          | _ -> (
              let l = Labels.to_list labels in
              match (List.assoc_opt "source" l, List.assoc_opt "class" l) with
              | Some source, Some cls ->
                  let s = series t ~source ~cls in
                  t.last <- Some (labels, s);
                  fold s v
              | _ -> ()));
  }

let burn s =
  match s.se_bound_us with
  | Some b when b > 0. -> Some (s.se_worst_us /. b)
  | _ -> None

let verdicts t =
  Hashtbl.fold
    (fun _ s acc ->
      {
        sv_source = s.se_source;
        sv_class = s.se_class;
        sv_count = s.se_count;
        sv_worst_us = s.se_worst_us;
        sv_bound_us = s.se_bound_us;
        sv_burn = burn s;
        sv_violations = s.se_violations;
      }
      :: acc)
    t.table []
  |> List.sort (fun a b ->
         match compare a.sv_source b.sv_source with
         | 0 -> compare a.sv_class b.sv_class
         | c -> c)

let ok t = Hashtbl.fold (fun _ s acc -> acc && s.se_violations = 0) t.table true

let pp ppf t =
  let vs = verdicts t in
  Format.fprintf ppf "@[<v>%-14s %-11s %8s %12s %12s %8s %6s@,"
    "source" "class" "samples" "worst_us" "bound_us" "burn" "viol";
  List.iter
    (fun v ->
      let bound = match v.sv_bound_us with Some b -> Printf.sprintf "%.2f" b | None -> "-" in
      let burn = match v.sv_burn with Some b -> Printf.sprintf "%.3f" b | None -> "-" in
      Format.fprintf ppf "%-14s %-11s %8d %12.2f %12s %8s %6d@," v.sv_source
        v.sv_class v.sv_count v.sv_worst_us bound burn v.sv_violations)
    vs;
  Format.fprintf ppf "slo: %s (%d series)@]"
    (if ok t then "ok" else "VIOLATED")
    (List.length vs)

let to_json t =
  let series =
    List.map
      (fun v ->
        Json.Obj
          ([
             ("source", Json.String v.sv_source);
             ("class", Json.String v.sv_class);
             ("samples", Json.Int v.sv_count);
             ("worst_us", Json.Float v.sv_worst_us);
           ]
          @ (match v.sv_bound_us with
            | Some b -> [ ("bound_us", Json.Float b) ]
            | None -> [])
          @ (match v.sv_burn with
            | Some b -> [ ("burn", Json.Float b) ]
            | None -> [])
          @ [ ("violations", Json.Int v.sv_violations) ]))
      (verdicts t)
  in
  Json.Obj
    [
      ("schema", Json.String "rthv-slo/1");
      ("ok", Json.Bool (ok t));
      ("series", Json.List series);
    ]
