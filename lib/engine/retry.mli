(** Per-stage retry policies with deterministic, seeded backoff.

    Transient faults — a {!Faultpoint} chaos hit, an LM fit stalled by
    an unlucky start — deserve another attempt at the boundary that
    understands them ([fit.*], [anneal], [simulate]) before being
    recorded as casualties.  Chaos runs must stay reproducible, so the
    whole decision path is pure: retryable kinds and attempt counts
    come from the policy, and the backoff schedule — exponential with
    jitter — is a function of [(seed, stage, key, attempt)] through the
    {!Faultpoint.draw} hash.  No wall clock is ever read to *decide*
    anything; only the sleep itself waits, and it is injectable so
    tests run instantly. *)

type policy = {
  max_attempts : int;      (** total attempts, >= 1 (1 = no retry) *)
  base_delay_s : float;    (** backoff before attempt 2 *)
  max_delay_s : float;     (** cap on the exponential schedule *)
  jitter : float;          (** relative jitter j: delay scaled by [1±j) *)
  retry_kinds : Fault.kind list;  (** kinds worth a second try *)
}

val default_policy : policy
(** 3 attempts, 2 ms base doubling to a 50 ms cap, ±50% jitter,
    retrying [Injected] and [Fit_diverged] — everything else
    (singular systems, domain errors, crashes, deadlines) is
    deterministic and fails identically on every attempt.  Only
    [Injected] backs off: a [Fit_diverged] retry is a deterministic
    re-fit with a shifted multi-start seed, so waiting would only add
    wall time. *)

val policy : unit -> policy
(** The process-wide policy (initially {!default_policy}). *)

val set_policy : policy -> unit
(** Raises [Invalid_argument] when [max_attempts < 1]. *)

val set_max_attempts : int -> unit
(** Override just the attempt budget ([ppcache run --retries N]);
    [1] disables retries entirely. *)

val reset : unit -> unit
(** Back to {!default_policy}. *)

val backoff_s :
  policy -> seed:int64 -> stage:string -> key:string -> attempt:int -> float
(** The delay slept after a failed [attempt] (1-based): [base·2^(a-1)]
    capped at [max_delay_s], scaled by the deterministic jitter drawn
    from [(seed, "retry."^stage, key#attempt)].  A pure function —
    property-tested as such. *)

val set_sleep : (float -> unit) -> unit
(** Replace the sleeper (default [Unix.sleepf]); tests install [ignore]. *)

val run :
  ?policy:policy ->
  stage:string ->
  key:string ->
  (attempt:int -> last:bool -> 'a) ->
  'a
(** [run ~stage ~key f] evaluates [f ~attempt:1 ~last] and, each time it
    raises a {!Fault.Fault} of a retryable kind with attempts left,
    sleeps the backoff — except after [Fit_diverged], whose retry is a
    deterministic re-fit that no wait changes — and re-evaluates with
    the next [attempt].
    [last] tells the kernel it is on its final attempt — the fitter
    uses it to degrade gracefully (record-and-return) instead of
    raising.  Non-retryable faults and non-fault exceptions propagate
    immediately.  Counters: [retry.attempts], [retry.recovered],
    [retry.exhausted] (plus [.<stage>] variants). *)
