(** Cooperative resource budgets.

    A budget carries up to three limits — a wall-clock deadline, a step
    (term-evaluation) budget, and a cancellation flag — and is threaded
    through long-running certified computations ([Series.sum_budgeted],
    [Criteria.check_series], [Classifier.classify]). The computation calls
    {!check} once per unit of work, or {!reserve} once per block of units;
    when any limit trips, the computation
    stops and degrades to a {e certified partial verdict} carrying whatever
    evidence was accumulated, rather than hanging or crashing.

    A single budget may be shared across several checks (the classifier
    passes one budget through all its moment and criterion probes), so the
    step count is cumulative across calls. Budgets are domain-safe: the
    step counter is an [Atomic.t] and the first exhaustion to trip is
    latched atomically, so a budget shared across a pool of domains cannot
    under-count steps or miss a cancellation. The series engines consume
    steps in chunk-sized blocks via {!reserve} (on the admitting domain,
    in chunk order — keeping step exhaustion deterministic) and poll the
    deadline/cancel flag once per chunk via {!poll}. *)

type t

val unlimited : t
(** Never trips. {!check} on it costs one branch. *)

val make : ?timeout:float -> ?max_steps:int -> ?cancel:(unit -> bool) -> unit -> t
(** [make ~timeout ~max_steps ~cancel ()]: the deadline is [timeout]
    seconds of wall-clock time from the call to [make]; [max_steps] bounds
    the number of steps consumed via {!check} and {!reserve}; [cancel] is
    polled periodically and trips the budget when it returns [true].
    Omitted limits never trip.
    @raise Invalid_argument if [timeout] or [max_steps] is not positive. *)

val check : t -> (unit, Error.exhaustion) result
(** Consume one step. [Error] reports the first limit that tripped; once a
    budget has tripped, every later [check] reports that same exhaustion
    (the budget does not reset). The wall clock and the cancellation flag
    are polled every few steps, so a deadline is detected within a small
    bounded number of term evaluations. *)

val reserve : t -> int -> (int, Error.exhaustion) result
(** [reserve t n] atomically consumes up to [n] steps and returns the
    number granted: [n] itself while the step budget allows, or the
    positive remainder when fewer than [n] steps are left (a partial grant
    drains the step budget and trips it, so it is always the final grant). Returns [Error]
    when the budget has already tripped, when no steps remain, when the
    deadline has passed, or when cancellation is requested. The parallel
    engines call this once per chunk, from a single admitting domain in
    chunk order, so the index at which a step budget exhausts is a
    deterministic function of the chunk plan and the limit — independent
    of worker count and scheduling.
    @raise Invalid_argument if [n < 1]. *)

val poll : t -> (unit, Error.exhaustion) result
(** Check the deadline, cancellation flag, and latched trip without
    consuming a step. Used by chunk workers whose steps were reserved up
    front, so a timeout or cancel still drains the fan-out promptly. *)

val steps_used : t -> int
(** Number of steps consumed so far (via {!check} and {!reserve}). *)

val elapsed : t -> float
(** Wall-clock seconds since [make] (0. for {!unlimited}). *)

val is_unlimited : t -> bool
