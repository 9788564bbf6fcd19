(** Interrupt controller model.

    Models the relevant behaviour of the VIC-style controller on the paper's
    platform:

    - one pending flag per line, and the flags are {e not counting}: raising a
      line that is already pending coalesces into a single delivery (this is
      the paper's argument for why top handlers of foreign partitions must be
      allowed to run — masking a source risks losing IRQs);
    - per-line masking;
    - delivery calls a registered handler (the hypervisor's top-handler entry
      point), which must acknowledge the line.

    Only the hypervisor has direct access to the controller; partitions see
    "emulated" IRQs through their queues (Figure 2 of the paper). *)

type line = int
(** Interrupt line number, [0 .. lines-1]. *)

type t

type stats = {
  raised : int;  (** Total [raise_line] calls. *)
  delivered : int;  (** Handler invocations. *)
  coalesced : int;  (** Raises absorbed by an already-pending flag. *)
  masked_raises : int;  (** Raises that set the flag while masked. *)
}

val create : lines:int -> t
(** A controller with [lines] lines, all unmasked, none pending, no handler. *)

val lines : t -> int

val set_handler : t -> (line -> unit) -> unit
(** Register the delivery target.  Delivery happens synchronously inside
    [raise_line] / [unmask] when the line is unmasked and becomes pending. *)

val raise_line : t -> line -> unit
(** Hardware raises the line.  If the line is already pending the raise is
    coalesced (non-counting flag).  If unmasked, the handler is invoked. *)

val ack : t -> line -> unit
(** Top handler clears the pending flag ("resetting IRQ flags"). *)

val mask : t -> line -> unit

val unmask : t -> line -> unit
(** Unmasking a pending line delivers it immediately. *)

val is_pending : t -> line -> bool

val is_masked : t -> line -> bool

val stats : t -> stats
