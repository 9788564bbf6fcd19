(** Busy-window response-time analysis (Lehoczky 1990, Tindell & Clark 1994,
    Schliecker et al. 2008).

    Implements equations (3)-(5) of the paper:

    - the q-event busy time W_i(q) as the least fixed point of
      [W(q) = q*C_i + sum_j C_j * eta_j(W(q))], generalised here to an
      arbitrary monotone interference function [I(dt)];
    - the number of activations to consider,
      [Q_i = max (n : forall q <= n, delta_i(q) <= W_i(q-1))];
    - the worst-case response time
      [R_i = max (q in 1..Q_i) (W_i(q) - delta_i(q))]. *)

type outcome =
  | Converged of Rthv_engine.Cycles.t
  | Diverged
      (** The fixed-point iteration exceeded the divergence ceiling: the
          resource is overloaded within the modelled horizon. *)

type result = {
  response_time : Rthv_engine.Cycles.t;
  q_max : int;  (** The Q_i of equation (4). *)
  busy_windows : (int * Rthv_engine.Cycles.t) list;
      (** (q, W(q)) for q in 1..q_max, for inspection and reporting. *)
  critical_q : int;  (** The q attaining the maximum in equation (5). *)
}

val ceiling : Rthv_engine.Cycles.t
(** Divergence ceiling for fixed-point iteration (a few simulated hours). *)

val fixed_point :
  ?steps:int ref ->
  ?residual:Rthv_engine.Cycles.t ref ->
  q:int ->
  wcet:Rthv_engine.Cycles.t ->
  interference:(Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t) ->
  unit ->
  outcome
(** [fixed_point ~q ~wcet ~interference ()] iterates
    [w := q*wcet + interference w] from [q*wcet] to convergence: the cold
    start, for a single q in isolation ({!response_time} warm-starts each q
    from the previous one instead).  [interference] must be monotone
    non-decreasing for the result to be the least fixed point.  When
    provided, [steps] receives the iteration count and [residual] the final
    step's contraction [w - w'] (zero on an exact fixed point and on
    divergence; nonzero only when a non-monotone interference function
    shrank the window) — {!response_time} aggregates these into the
    [rthv_busy_window_*] gauges.  @raise Invalid_argument if [q < 1] or
    [wcet < 0]. *)

val response_time :
  wcet:Rthv_engine.Cycles.t ->
  delta:(int -> Rthv_engine.Cycles.t) ->
  interference:(Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t) ->
  ?max_q:int ->
  unit ->
  (result, string) Stdlib.result
(** Full analysis per equations (3)-(5).  [delta q] is the analysed source's
    own minimum-distance function; [interference] covers everything except
    the q in-flight activations' own [wcet].  [max_q] (default 4096) guards
    against pathological never-ending busy periods.

    {b Warm start.}  W(q) is iterated from [max (q*wcet) (W(q-1) + wcet)]
    rather than from [q*wcet] (Richter 2004's incremental busy-window
    evaluation).  This is sound under the contract that [interference] is
    monotone non-decreasing: the q-th iteration function is the (q-1)-th
    plus [wcet] pointwise, so W(q) >= W(q-1) + wcet, and that start x
    satisfies [x <= q*wcet + interference x]; Kleene iteration from such a
    point reaches the same least fixed point as the cold start, in at most
    as many steps.  Every [Converged] window, and so the whole result, is
    therefore the cold iteration's.  The one difference is the iteration
    cap: a q whose cold run would exhaust it may converge from the warm
    start, yielding its true least fixed point instead of an error.

    {b Non-monotone fallback.}  From a start below the least fixed point a
    monotone function can never shrink the window.  If it does on a
    warm-started q, the function is not monotone, and that q is redone cold
    from [q*wcet], so the result equals the cold iteration's byte for byte.
    A non-monotone function that never shrinks the window from the warm
    start is outside the contract and may converge elsewhere. *)

val utilisation :
  contributions:(float * float) list ->
  float
(** [utilisation ~contributions] with [(rate, wcet)] pairs in events/cycle
    and cycles: the long-term processor demand; > 1.0 means unschedulable. *)
