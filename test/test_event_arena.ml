(* The packed event arena (lib/engine/event_arena.ml) against its reference
   semantics: min-heap by (time, insertion sequence), int payloads, and —
   the property the hot path is built on — zero minor-heap allocation for
   push/head/drop once the arena has reached its working size. *)

module Cycles = Rthv_engine.Cycles
module Event_arena = Rthv_engine.Event_arena

let test_empty () =
  let q = Event_arena.create () in
  Alcotest.(check bool) "empty" true (Event_arena.is_empty q);
  Alcotest.(check int) "length" 0 (Event_arena.length q);
  Alcotest.(check int) "head_time sentinel" Event_arena.no_event
    (Event_arena.head_time q);
  Alcotest.(check int) "no_event = max_int" max_int Event_arena.no_event;
  Event_arena.drop q;
  Alcotest.(check bool) "drop on empty is a no-op" true
    (Event_arena.is_empty q)

let test_ordering () =
  let q = Event_arena.create ~capacity:2 () in
  Event_arena.push q ~time:30 2;
  Event_arena.push q ~time:10 0;
  Event_arena.push q ~time:20 1;
  Event_arena.push q ~time:10 3;
  (* crosses the initial capacity: growth preserves order *)
  Event_arena.push q ~time:5 4;
  let order = ref [] in
  while not (Event_arena.is_empty q) do
    order := (Event_arena.head_time q, Event_arena.head_payload q) :: !order;
    Event_arena.drop q
  done;
  Alcotest.(check (list (pair int int)))
    "time order, ties by insertion"
    [ (5, 4); (10, 0); (10, 3); (20, 1); (30, 2) ]
    (List.rev !order)

let test_same_instant_fifo () =
  (* All events at one instant: delivery must be exactly insertion order
     (the boundary-vs-arrival coincidence case). *)
  let q = Event_arena.create () in
  for i = 0 to 63 do
    Event_arena.push q ~time:100 i
  done;
  let out = ref [] in
  while not (Event_arena.is_empty q) do
    out := Event_arena.head_payload q :: !out;
    Event_arena.drop q
  done;
  Alcotest.(check (list int)) "FIFO at equal times" (List.init 64 Fun.id)
    (List.rev !out)

let test_sorted_snapshot () =
  let q = Event_arena.create () in
  Event_arena.push q ~time:7 70;
  Event_arena.push q ~time:3 30;
  Event_arena.push q ~time:7 71;
  let snap = Event_arena.to_sorted_list q in
  Alcotest.(check int) "snapshot length" 3 (List.length snap);
  Alcotest.(check (list int)) "snapshot payload order" [ 30; 70; 71 ]
    (List.map (fun (_, _, p) -> p) snap);
  Alcotest.(check int) "snapshot is non-destructive" 3 (Event_arena.length q);
  Event_arena.clear q;
  Alcotest.(check bool) "clear empties" true (Event_arena.is_empty q)

let test_allocation_free () =
  let q = Event_arena.create ~capacity:256 () in
  (* Warm to working size, then drain: steady-state churn must not touch
     the minor heap. *)
  for i = 0 to 127 do
    Event_arena.push q ~time:i i
  done;
  let before = Gc.minor_words () in
  for round = 0 to 99 do
    Event_arena.push q ~time:(1000 + round) round;
    ignore (Event_arena.head_time q : int);
    ignore (Event_arena.head_payload q : int);
    Event_arena.drop q
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state push/head/drop allocate nothing (%.0f)"
       (after -. before))
    true
    (after -. before = 0.0)

(* Differential check against a sorted-list reference on random streams. *)
let arena_matches_queue ops =
  let q = Event_arena.create ~capacity:1 () in
  let reference = ref [] in
  (* (time, seq, payload) list, sorted on demand *)
  let seq = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      if op >= 0 then begin
        Event_arena.push q ~time:(op mod 997) op;
        reference := (op mod 997, !seq, op) :: !reference;
        incr seq
      end
      else begin
        let sorted =
          List.sort
            (fun (t1, s1, _) (t2, s2, _) ->
              if t1 <> t2 then compare t1 t2 else compare s1 s2)
            !reference
        in
        match sorted with
        | [] -> if Event_arena.head_time q <> Event_arena.no_event then ok := false
        | (t, _, p) :: rest ->
            if Event_arena.head_time q <> t then ok := false;
            if Event_arena.head_payload q <> p then ok := false;
            Event_arena.drop q;
            reference := rest
      end)
    ops;
  !ok && Event_arena.length q = List.length !reference

let ops_gen = QCheck2.Gen.(list_size (1 -- 200) (-1 -- 500))

let suite =
  [
    Alcotest.test_case "empty arena" `Quick test_empty;
    Alcotest.test_case "heap ordering with growth" `Quick test_ordering;
    Alcotest.test_case "FIFO at equal instants" `Quick test_same_instant_fifo;
    Alcotest.test_case "sorted snapshot and clear" `Quick test_sorted_snapshot;
    Alcotest.test_case "steady state allocates nothing" `Quick
      test_allocation_free;
    Testutil.qtest "arena == sorted reference on random ops" ops_gen
      arena_matches_queue;
  ]
