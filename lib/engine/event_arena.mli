(** Allocation-free priority queue of timed events with int payloads.

    The simulation's event queue: a binary min-heap keyed by
    [(time, sequence)] whose entries live in three preallocated parallel
    [int] arrays (time, insertion sequence, payload) instead of boxed
    records.  Push, peek and drop allocate nothing once the
    arena has grown to its working size, so a simulation reusing one arena
    across millions of events never touches the minor heap for event
    scheduling.

    Payloads are plain integers; the caller owns the encoding (the
    hypervisor simulation packs its [Boundary]/[Arrival of source] event
    type as [-1] / the source index).

    Events at the same instant are delivered in insertion order — the
    property the simulation relies on when a slot boundary and an IRQ
    coincide. *)

type t

val no_event : int
(** Sentinel returned by {!head_time} on an empty arena: [max_int], which
    compares greater than every real simulated time, so [min candidate
    (head_time q)] needs no emptiness branch. *)

val create : ?capacity:int -> unit -> t
(** A fresh arena with room for [capacity] (default 64) events before the
    first regrowth.  Growth doubles and never shrinks. *)

val is_empty : t -> bool
val length : t -> int

val push : t -> time:Cycles.t -> int -> unit
(** [push q ~time payload] schedules [payload] at [time].  Amortized O(log
    n), allocation-free except when the arena doubles. *)

val head_time : t -> Cycles.t
(** Earliest scheduled time, or {!no_event} when empty.  O(1), no
    allocation (no [option] wrapper). *)

val head_payload : t -> int
(** Payload of the earliest event.  Only meaningful when [not (is_empty
    q)]; unspecified on an empty arena. *)

val drop : t -> unit
(** Remove the earliest event (no-op when empty).  Allocation-free. *)

val clear : t -> unit

val to_sorted_list : t -> (Cycles.t * int * int) list
(** Non-destructive [(time, seq, payload)] snapshot in delivery order, for
    tests and debugging dumps only — it copies and sorts the live heap. *)
