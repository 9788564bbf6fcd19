(* A naive reference model of the hypervisor, for differential testing of
   Hyp_sim.

   It implements the behaviour of the paper's Figure 4b as DESIGN.md
   describes it: TDMA slots, a non-preemptible FIFO of hypervisor work (top
   handlers, monitor checks, scheduler manipulation, context switches),
   per-partition FIFO bottom-handler queues, and δ⁻-monitor-gated
   interposition with at most one interposition in flight.  It reads only
   the Config.t and shares no simulator code: no Sim_* layer, no
   Event_arena, Irq_queue, Guest, Admission or Monitor.

   Time advances one fixed quantum per tick.  The quantum is the gcd of
   every duration in the configuration, so it is one cycle on the paper's
   platform.  Everything that takes time is a countdown decremented per
   tick, in the shape of an emulator's interrupt controller: external
   events (slot boundaries, timer-driven arrivals) count a delay down and
   fire at zero; hypervisor work items count down C_TH, C_Mon, C_sched or
   C_ctx, and bottom handlers count down C_BH.  There are no jumps, so the
   model is obviously faithful and only usable on small configurations.

   Scope: busy-loop partitions without tasks, the Partition_slots plan,
   Reprogram arrivals, No_shaping and Fixed_monitor shaping, and either
   boundary policy.  [run] raises [Invalid_argument] outside it. *)

module Config = Rthv_core.Config
module Platform = Rthv_hw.Platform
module DF = Rthv_analysis.Distance_fn

type cls = Direct | Interposed | Delayed

type src = {
  cfg : Config.source;
  condition : int array option;  (* δ⁻ entries of a Fixed_monitor *)
  mutable next : int;  (* index of the next interarrival to program *)
  mutable line_pending : bool;
  mutable admitted : int list;  (* admitted arrival times, newest first *)
}

type irq = {
  id : int;
  src : src;
  arrival : int;
  mutable top_start : int;
  mutable top_end : int;
  mutable cls : cls;
  mutable completion : int;
}

type work =
  | Top_handler of irq
  | Monitor_check of irq
  | Sched_manip of irq
  | Switch_to of irq
  | Switch_back
  | Slot_switch

type hyp_item = { work : work; mutable left : int; mutable started : bool }
type bottom = { b_irq : irq; mutable b_left : int }
type event_kind = Boundary | Arrival of src
type event = { mutable delay : int; seq : int; kind : event_kind }

type result = {
  irqs : irq list;  (** Completed IRQs, by id. *)
  completed : int;
  direct : int;
  interposed : int;
  delayed : int;
  admissions : int;
  denials : int;
  monitor_checks : int;
  slot_switches : int;
  interposition_switches : int;
  interpositions_started : int;
  boundary_crossings : int;
  bh_boundary_deferrals : int;
  coalesced : int;
  stolen_total : int array;
  stolen_slot_max : int array;
  sim_time : int;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let check_scope (config : Config.t) =
  let fail what = invalid_arg ("Reference_sim: out of scope: " ^ what) in
  (match config.Config.plan with
  | Config.Partition_slots -> ()
  | Config.Weighted_plan _ -> fail "weighted plan");
  List.iter
    (fun (p : Config.partition) ->
      if p.Config.tasks <> [] || not p.Config.busy_loop then
        fail "partition with tasks or idle loop")
    config.Config.partitions;
  List.iter
    (fun (s : Config.source) ->
      if s.Config.arrival_mode <> Config.Reprogram then
        fail "absolute arrivals";
      if s.Config.activates <> None then fail "task activation";
      match s.Config.shaping with
      | Config.No_shaping | Config.Fixed_monitor _ -> ()
      | _ -> fail "shaping other than No_shaping / Fixed_monitor")
    config.Config.sources

let run ?(max_ticks = 100_000_000) (config : Config.t) =
  check_scope config;
  let slots =
    Array.of_list
      (List.map (fun (p : Config.partition) -> p.Config.slot)
         config.Config.partitions)
  in
  let n = Array.length slots in
  let starts = Array.make n 0 in
  for i = 1 to n - 1 do
    starts.(i) <- starts.(i - 1) + slots.(i - 1)
  done;
  let cycle = starts.(n - 1) + slots.(n - 1) in
  let platform = config.Config.platform in
  let c_mon = Platform.monitor_cost platform in
  let c_sched = Platform.sched_manip_cost platform in
  let c_ctx = Platform.ctx_switch_cost platform in
  let finish_bh = Config.finish_bh_at_boundary config in
  let sources =
    List.map
      (fun (cfg : Config.source) ->
        {
          cfg;
          condition =
            (match cfg.Config.shaping with
            | Config.Fixed_monitor fn -> Some (DF.entries fn)
            | _ -> None);
          next = 0;
          line_pending = false;
          admitted = [];
        })
      config.Config.sources
  in
  let quantum =
    List.fold_left
      (fun g s ->
        Array.fold_left gcd
          (gcd (gcd g s.cfg.Config.c_th) s.cfg.Config.c_bh)
          s.cfg.Config.interarrivals)
      (Array.fold_left gcd (gcd c_mon (gcd c_sched c_ctx)) slots)
      sources
  in
  (* Slot table: the owner of the slot containing [time], and that slot's
     end. *)
  let slot_at time =
    let pos = time mod cycle in
    let rec find i =
      if pos < starts.(i) + slots.(i) || i = n - 1 then i else find (i + 1)
    in
    let owner = find 0 in
    (owner, time - pos + starts.(owner) + slots.(owner))
  in
  (* --- state --- *)
  let now = ref 0 in
  let owner = ref 0 in
  let events = ref [] in
  let next_seq = ref 0 in
  let hyp : hyp_item Queue.t = Queue.create () in
  let bottoms = Array.init n (fun _ -> (Queue.create () : bottom Queue.t)) in
  let ip_target = ref (-1) in
  let ip_budget = ref 0 in
  let ip_pending = ref false in
  let stolen = ref 0 in
  let stolen_total = Array.make n 0 in
  let stolen_slot_max = Array.make n 0 in
  let scheduled = ref 0 in
  let live = ref 0 in
  let next_id = ref 0 in
  let finished = ref [] in
  let completed = ref 0 and direct = ref 0 and interposed = ref 0 in
  let delayed = ref 0 and admissions = ref 0 and denials = ref 0 in
  let checks = ref 0 and slot_switches = ref 0 and ip_switches = ref 0 in
  let ip_started = ref 0 and crossings = ref 0 and deferrals = ref 0 in
  let coalesced = ref 0 in
  let at time kind =
    events := { delay = time - !now; seq = !next_seq; kind } :: !events;
    incr next_seq
  in
  let push_hyp work cost =
    Queue.push { work; left = cost; started = false } hyp
  in
  let close_slot () =
    let o = !owner in
    stolen_total.(o) <- stolen_total.(o) + !stolen;
    if !stolen > stolen_slot_max.(o) then stolen_slot_max.(o) <- !stolen;
    stolen := 0
  in
  let program_next src =
    let d = src.cfg.Config.interarrivals in
    if src.next < Array.length d then begin
      at (!now + d.(src.next)) (Arrival src);
      src.next <- src.next + 1;
      incr scheduled
    end
  in
  (* The δ⁻ condition: the distance to the i-th previous admitted event
     must be at least entry i. *)
  let conforms src ts =
    match src.condition with
    | None -> false
    | Some entries ->
        let rec ok i = function
          | [] -> true
          | prev :: older ->
              i >= Array.length entries
              || (ts - prev >= entries.(i) && ok (i + 1) older)
        in
        ok 0 src.admitted
  in
  let classify irq cls counter =
    irq.cls <- cls;
    incr counter
  in
  let end_interposition () =
    ip_target := -1;
    ip_budget := 0;
    push_hyp Switch_back c_ctx
  in
  let complete b =
    let irq = b.b_irq in
    irq.completion <- !now;
    finished := irq :: !finished;
    incr completed;
    live := !live - 1
  in
  (* --- external events --- *)
  let on_arrival src =
    scheduled := !scheduled - 1;
    if src.line_pending then incr coalesced
    else begin
      src.line_pending <- true;
      let irq =
        {
          id = !next_id;
          src;
          arrival = !now;
          top_start = !now;
          top_end = !now;
          cls = Delayed;
          completion = -1;
        }
      in
      incr next_id;
      incr live;
      push_hyp (Top_handler irq) src.cfg.Config.c_th
    end
  in
  let on_boundary () =
    let mid_handler =
      match Queue.peek_opt bottoms.(!owner) with
      | Some b when !ip_target < 0 ->
          b.b_left > 0 && b.b_left < b.b_irq.src.cfg.Config.c_bh
      | _ -> false
    in
    if finish_bh && mid_handler then begin
      (* Let the owner's bottom handler finish; look again then. *)
      incr deferrals;
      at (!now + (Queue.peek bottoms.(!owner)).b_left) Boundary
    end
    else begin
      if !ip_target >= 0 then incr crossings;
      close_slot ();
      let o, slot_end = slot_at !now in
      owner := o;
      push_hyp Slot_switch c_ctx;
      at slot_end Boundary
    end
  in
  let fire_due () =
    let rec go () =
      let due =
        List.fold_left
          (fun best e ->
            if e.delay > 0 then best
            else
              match best with
              | Some b when b.seq < e.seq -> best
              | _ -> Some e)
          None !events
      in
      match due with
      | None -> ()
      | Some e ->
          events := List.filter (fun x -> x != e) !events;
          (match e.kind with
          | Boundary -> on_boundary ()
          | Arrival src -> on_arrival src);
          go ()
    in
    go ()
  in
  (* --- hypervisor work completions --- *)
  let top_handler_done irq =
    let src = irq.src in
    let subscriber = src.cfg.Config.subscriber in
    irq.top_end <- !now;
    src.line_pending <- false;
    program_next src;
    Queue.push
      { b_irq = irq; b_left = src.cfg.Config.c_bh }
      bottoms.(subscriber);
    if !owner = subscriber then classify irq Direct direct
    else if src.condition = None then classify irq Delayed delayed
    else push_hyp (Monitor_check irq) c_mon
  in
  let monitor_done irq =
    let src = irq.src in
    incr checks;
    let ok = conforms src irq.arrival in
    if !owner = src.cfg.Config.subscriber then classify irq Direct direct
    else if ok && not !ip_pending then begin
      src.admitted <- irq.arrival :: src.admitted;
      incr admissions;
      classify irq Interposed interposed;
      ip_pending := true;
      push_hyp (Sched_manip irq) c_sched
    end
    else begin
      incr denials;
      classify irq Delayed delayed
    end
  in
  let work_done = function
    | Top_handler irq -> top_handler_done irq
    | Monitor_check irq -> monitor_done irq
    | Sched_manip irq -> push_hyp (Switch_to irq) c_ctx
    | Switch_to irq ->
        incr ip_switches;
        incr ip_started;
        ip_target := irq.src.cfg.Config.subscriber;
        ip_budget := irq.src.cfg.Config.c_bh
    | Switch_back ->
        incr ip_switches;
        ip_pending := false
    | Slot_switch -> incr slot_switches
  in
  let steals = function
    | Sched_manip _ | Switch_to _ | Switch_back -> true
    | Top_handler _ | Monitor_check _ | Slot_switch -> false
  in
  (* --- one quantum --- *)
  let advance () =
    now := !now + quantum;
    List.iter (fun e -> e.delay <- e.delay - quantum) !events
  in
  let quiescent () =
    !scheduled = 0 && !live = 0 && Queue.is_empty hyp && !ip_target < 0
    && not !ip_pending
  in
  (* Perform one zero-time action and return [true], or run one quantum of
     whatever owns the CPU and return [false]. *)
  let step () =
    if not (Queue.is_empty hyp) then begin
      let h = Queue.peek hyp in
      if not h.started then begin
        h.started <- true;
        match h.work with Top_handler irq -> irq.top_start <- !now | _ -> ()
      end;
      if h.left = 0 then begin
        ignore (Queue.pop hyp : hyp_item);
        work_done h.work
      end
      else begin
        advance ();
        h.left <- h.left - quantum;
        if steals h.work then stolen := !stolen + quantum;
        if h.left = 0 then begin
          ignore (Queue.pop hyp : hyp_item);
          work_done h.work
        end
      end
    end
    else if !ip_target >= 0 then begin
      let queue = bottoms.(!ip_target) in
      match Queue.peek_opt queue with
      | Some b when !ip_budget > 0 ->
          advance ();
          b.b_left <- b.b_left - quantum;
          ip_budget := !ip_budget - quantum;
          stolen := !stolen + quantum;
          if b.b_left = 0 then begin
            ignore (Queue.pop queue : bottom);
            complete b
          end;
          if !ip_budget = 0 then end_interposition ()
      | _ -> end_interposition ()
    end
    else begin
      let queue = bottoms.(!owner) in
      advance ();
      match Queue.peek_opt queue with
      | Some b ->
          b.b_left <- b.b_left - quantum;
          if b.b_left = 0 then begin
            ignore (Queue.pop queue : bottom);
            complete b
          end
      | None -> ()  (* the busy loop *)
    end
  in
  (* --- run --- *)
  at (snd (slot_at 0)) Boundary;
  List.iter program_next sources;
  let ticks = ref 0 in
  fire_due ();
  while not (quiescent ()) do
    incr ticks;
    if !ticks > max_ticks then failwith "Reference_sim: tick budget exhausted";
    step ();
    fire_due ()
  done;
  close_slot ();
  {
    irqs = List.sort (fun a b -> compare a.id b.id) !finished;
    completed = !completed;
    direct = !direct;
    interposed = !interposed;
    delayed = !delayed;
    admissions = !admissions;
    denials = !denials;
    monitor_checks = !checks;
    slot_switches = !slot_switches;
    interposition_switches = !ip_switches;
    interpositions_started = !ip_started;
    boundary_crossings = !crossings;
    bh_boundary_deferrals = !deferrals;
    coalesced = !coalesced;
    stolen_total;
    stolen_slot_max;
    sim_time = !now;
  }
