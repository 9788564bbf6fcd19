(** Counterexample synthesis — the linter's adversarial confirmation layer.

    Every Error-severity refutation the static rules produce is a claim
    that some analysis-level guarantee does {e not} hold.  This module
    turns each such refutation into a concrete {e witness}: a
    {!Scenarios}-compatible configuration whose arrival streams are
    synthesized back-to-back δ⁻-conforming bursts ({!Rthv_workload.Gen}'s
    [adversarial] generator for monitored sources,
    {!Absint.adversarial_schedule} for the rate-based policies), replayed
    through {!Rthv_core.Hyp_sim}, and audited twice by {!Trace_oracle}:

    - once against the {e true} specification derived from the
      configuration — the run must be Error-clean, proving the trace is a
      legitimate behaviour of the modelled hypervisor, not an artifact of a
      broken replay; and
    - once against a {e claim} specification that embeds the refuted
      guarantee — the predicted oracle rule must fire, confirming the
      violation on the concrete trace.

    The linter can therefore never cry wolf: a refutation ships with a
    replayable trace on which an independent checker observes the claimed
    violation.  Two confirmation channels exist:

    - {b interference claims} (lint rules RTHV003/004/012/013/018 →
      oracle rule RTHV104): the claim spec carries the refuted interference
      curve in place of the true eq.-(14) bound, and the windowed charge
      audit finds a window whose interposition load exceeds it;
    - {b service claims} (lint rules RTHV002/005/006/017/020 → oracle rule
      RTHV109): the claim spec asserts the minimum net service the refuted
      guarantee implies, and the replay measures less.

    Warnings and infos carry no witness (nothing is refuted), and RTHV001
    cannot be simulated at all. *)

type claim =
  | Interference_claim of {
      ic_carrier : int;
          (** Line of the source carrying the claimed curve in the claim
              spec. *)
      ic_windows : (Rthv_engine.Cycles.t * Rthv_engine.Cycles.t) list;
          (** [(window, claimed bound)] at every audit window — the numbers
              a reviewer compares against the measured charges without
              evaluating any curve. *)
    }
  | Service_claim of {
      sv_partition : int;
      sv_min_total : Rthv_engine.Cycles.t;
          (** Net service over the whole run the refuted guarantee
              implies. *)
    }

type t = {
  w_code : string;  (** The refuted lint rule. *)
  w_loc : string;  (** The refuted diagnostic's location. *)
  w_predicted : string;  (** Oracle rule expected to confirm (RTHV104/109). *)
  w_claim : claim;
  w_config : Rthv_core.Config.t;
      (** The synthesized scenario: the linted configuration with
          adversarial arrival streams installed. *)
  w_arrivals : (int * Rthv_engine.Cycles.t array) list;
      (** [(line, interarrival distances)] actually synthesized, ascending
          by line — the replayable part of the artifact. *)
  w_baseline : Diagnostic.t list;
      (** True-spec audit of the replay; Error-free iff the trace is a
          legitimate hypervisor behaviour. *)
  w_oracle : Diagnostic.t list;  (** Claim-spec audit of the same replay. *)
  w_measured : Trace_oracle.measurement;
      (** The replay's measured service/charges, for the artifact. *)
  w_confirmed : bool;
      (** True-spec audit Error-clean {e and} [w_predicted] present in the
          claim-spec audit. *)
  w_digest : string;
      (** Hex MD5 over the synthesized arrival streams — tamper-evidence
          for serialized witnesses. *)
}

val channels : (string * string) list
(** [(lint rule, predicted oracle rule)] for every rule that carries a
    witness channel, in code order. *)

val digest_of_arrivals :
  (int * Rthv_engine.Cycles.t array) list -> string
(** The [w_digest] function: hex MD5 over the canonical rendering of the
    arrival streams.  Exposed so {!Certify.recheck} can re-verify a
    serialized witness's digest without re-running synthesis. *)

val synthesize : Rthv_core.Config.t -> Diagnostic.t -> t option
(** Synthesize and replay the witness for one diagnostic of [config].
    [None] when the diagnostic is not an Error, its rule has no witness
    channel, its location no longer resolves, or the configuration fails
    validation. *)

val all : Rthv_core.Config.t -> (Diagnostic.t * t) list
(** Run {!Lint.analyze} and witness every Error that has a channel, in
    diagnostic order.  The linter's certification obligation: each returned
    witness should satisfy [w_confirmed]. *)

val certified : Rthv_core.Config.t -> Diagnostic.t list * (Diagnostic.t * t) list
(** The counterexample-guided pipeline behind [rthv_lint --certify]: lint,
    then witness every channelled Error and {e demote to Warning} any whose
    replay fails to confirm (the refutation held only under proved — not
    jointly achievable — bounds).  Every Error in the returned diagnostics
    either carries a confirmed witness in the second component or is a
    structural rule with no simulation channel (RTHV001, RTHV011), so the
    certified verdict never cries wolf.  A configuration that fails
    [Config.validate] is returned as linted, with no witnesses: nothing can
    be replayed.  Diagnostic order is preserved. *)
