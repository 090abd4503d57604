(** Certified infinite series.

    The paper's arguments are dominated by convergence and divergence claims:
    well-definedness of TI- and BID-PDBs (Theorems 2.4 and 2.6), finiteness of
    size moments (Propositions 3.2 and 3.4), the sufficient representability
    criterion (Theorem 5.3), and the divergence arguments of Examples 3.9 and
    5.6 and Propositions D.2/D.3. This module makes such claims checkable:

    - a {e convergence} verdict is a partial sum computed in interval
      arithmetic plus an analytic {!Tail} certificate whose hypothesis is
      validated on every computed term, and
    - a {e divergence} verdict is a {!Divergence} certificate (again validated
      on computed terms) whose minorant provably has unbounded partial sums.

    Nothing in the library ever concludes convergence from a bare partial
    sum. *)

type term = int -> float
(** A series is a function from indices to terms. Terms are evaluated in
    floating point; certificates are expected to carry enough analytic slack
    to absorb a few ulps of term error. *)

(** Analytic upper bounds on tails of non-negative series. *)
module Tail : sig
  type t =
    | Finite_support of { last : int }
        (** [a_n = 0] for all [n > last]. *)
    | Geometric of { index : int; first : float; ratio : float }
        (** [a_n <= first * ratio^(n - index)] for [n >= index], with
            [0 <= ratio < 1]. *)
    | P_series of { index : int; coeff : float; p : float }
        (** [a_n <= coeff / n^p] for [n >= index], with [p > 1]. *)
    | Exponential of { index : int; coeff : float; rate : float }
        (** [a_n <= coeff * rate^n] for [n >= index], with [0 <= rate < 1]. *)

  val start_index : t -> int
  (** First index at which the certificate's hypothesis applies
      ([min_int] for {!Finite_support}). *)

  val bound_from : t -> int -> float
  (** [bound_from cert n] is an upper bound on [sum_{k >= n} a_k], valid when
      [n] is at or past the certificate's index.
      @raise Invalid_argument when [n] precedes the certificate's index. *)

  val pp : Format.formatter -> t -> unit
end

(** Certified minorants that force divergence of non-negative series. *)
module Divergence : sig
  type t =
    | Harmonic of { index : int; coeff : float }
        (** [a_n >= coeff / n > 0] for [n >= index]. *)
    | Bounded_below of { index : int; bound : float }
        (** [a_n >= bound > 0] for [n >= index]. *)
    | Eventually_ratio_ge_one of { index : int; floor : float }
        (** [a_{n+1} >= a_n >= floor > 0] for [n >= index]: terms do not even
            tend to zero. *)
    | Subsequence_harmonic of { index : int; pick : int -> int; coeff : float }
        (** [a_{pick k} >= coeff / k] for [k >= index], with [pick] strictly
            increasing: a harmonic minorant along a subsequence (sufficient
            for divergence of a non-negative series — the Lemma 6.6
            argument, where only the strictly-growing worlds are heavy). *)

  val validate : t -> term -> upto:int -> (unit, string) result
  (** Checks the minorant on all computed terms from the certificate's index
      to [upto]. *)

  val minorant_partial_sum : t -> int -> float
  (** Lower bound on [sum a_n] up to the given index implied by the
      certificate alone. Tends to infinity with the index. *)

  val pp : Format.formatter -> t -> unit
end

(** The outcome of a certified summation. *)
type verdict =
  | Converges of Interval.t  (** Enclosure of the full infinite sum. *)
  | Diverges of { certificate : Divergence.t; partial : float; at : int }
      (** Validated minorant plus a partial sum computed as a witness. *)

val partial_sum : ?start:int -> term -> int -> float
(** [partial_sum ~start f n] is [f start + ... + f n] (plain float; for
    display). *)

val partial_sum_interval : ?start:int -> term -> int -> Interval.t
(** Same, as an interval enclosure of the float additions. *)

(** {1 The budgeted engine}

    All certified summation funnels through one chunked engine per kind of
    verdict ({!sum_resumable}, {!certify_divergence_resumable}, and their
    snapshot-free forms {!sum_budgeted} / {!certify_divergence_budgeted}).
    It is the only loop, for every budget, every observation mode and every
    caller:

    - The index range is cut into a fixed chunk plan ([?chunk] indices per
      chunk, default {!Ipdb_par.Chunk.default_size} = 2048). Each chunk's
      terms are evaluated once and checked against the certificate's
      pointwise hypothesis, then folded into the partial sum strictly in
      index order on the calling domain.
    - With [?pool] the chunks are evaluated on the pool; without one the
      same plan runs inline on the calling domain, one chunk at a time. A
      pool-less run equals a [jobs=1] and a [jobs=N] run byte for byte:
      verdict, snapshots, progress stream and exhaustion record.
    - Budget steps are reserved per chunk, one {!Ipdb_run.Budget} step per
      index, when the chunk is admitted, in chunk order. A step budget
      therefore stops at a chunk-plan-aligned index that does not depend
      on the worker count. The deadline and the cancellation flag are
      polled once per chunk, at admission and when the chunk starts, so a
      run overshoots its deadline by at most one chunk per worker.
    - Observation is per chunk too: [series.terms] and [series.widenings]
      are counted in locals and added once per chunk, and each chunk is a
      [series.chunk] trace span. Metrics, tracing and step budgets run the
      same loop as a silent run; only [IPDB_ARITH_REFERENCE=1] swaps in the
      reference interval fold.

    Exhausting the budget is not an error: it degrades to an {!Exhausted}
    value carrying the evidence accumulated so far. *)

(** What a budget-interrupted summation still certifies. *)
type partial = {
  enclosure : Interval.t option;
      (** Enclosure of the {e infinite} sum obtained by adding the analytic
          tail bound at the stop index: sound under exactly the same
          hypothesis as a completed run (the certificate's pointwise bound,
          here validated on [start..last] rather than the full requested
          prefix). [None] when the certificate cannot bound the tail at the
          stop index (e.g. {!Tail.Finite_support} stopped inside its
          support). *)
  prefix : Interval.t;  (** Interval enclosure of [f start + ... + f last]. *)
  last : int;  (** Last index evaluated and validated. *)
  requested : int;  (** The [upto] that was asked for. *)
  exhausted : Ipdb_run.Error.exhaustion;  (** Which limit tripped. *)
}

type budgeted =
  | Complete of Interval.t  (** Full prefix evaluated: enclosure of the infinite sum. *)
  | Exhausted of partial  (** Budget ran out first: certified partial verdict. *)

val sum_budgeted :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  term ->
  tail:Tail.t ->
  upto:int ->
  (budgeted, Ipdb_run.Error.t) result
(** Like {!sum}, under a budget. [Error] carries the typed failure: a
    rejected certificate hypothesis ([Certificate]), a term evaluation that
    raised, or an injected fault. Never raises on certificate or budget
    trouble; exceptions escaping the term function are converted to typed
    errors.

    With [?pool] the chunks are evaluated on the pool (see
    {!sum_resumable} for the determinism contract); the term function must
    then be safe to call from several domains at once (the certificate
    families in [Ipdb_core.Zoo] all are). *)

type divergence_budgeted =
  | Div_complete of { partial : float; at : int }
      (** Minorant validated on the whole requested prefix; [partial] sums
          the evaluated terms as a witness. *)
  | Div_exhausted of {
      partial : float;  (** witness partial sum over the evaluated terms *)
      minorant : float;  (** certified lower bound implied up to [last] *)
      last : int;
      requested : int;
      exhausted : Ipdb_run.Error.exhaustion;
    }

val certify_divergence_budgeted :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  term ->
  certificate:Divergence.t ->
  upto:int ->
  (divergence_budgeted, Ipdb_run.Error.t) result
(** Budgeted {!certify_divergence}: {!certify_divergence_resumable}
    without the snapshot. Each checked index consumes one budget step,
    reserved per chunk; exhaustion degrades to [Div_exhausted] with the
    witness evidence accumulated so far, at a chunk-aligned stop point. *)

val sum : ?start:int -> term -> tail:Tail.t -> upto:int -> (Interval.t, string) result
(** Certified enclosure of the infinite sum: validates [tail] on the computed
    prefix, then adds the analytic tail bound to the partial-sum interval.
    [Error] explains which hypothesis failed. Equivalent to {!sum_budgeted}
    with an unlimited budget. *)

val sum_exn : ?start:int -> term -> tail:Tail.t -> upto:int -> Interval.t
(** @raise Failure when {!sum} returns an error. *)

val certify_divergence :
  ?start:int -> term -> certificate:Divergence.t -> upto:int -> (verdict, string) result
(** Validates the divergence certificate on the computed prefix and returns
    [Diverges] with the witness partial sum. *)

(** {1 Snapshots and resumable engines}

    A {!Snapshot.t} is the exact cross-iteration state of a budgeted
    engine: the interval prefix sum (endpoints persisted as {e exact
    rationals}), the next index to evaluate, and — for divergence
    certificates — the carried term/pick context. Because both engines
    fold strictly in index order, restarting from a snapshot replays the
    identical float operations in the identical order, so a resumed run
    produces {e bit-for-bit} the same enclosure and verdict as an
    uninterrupted one (the resume-equivalence property tests pin this
    down). Snapshots serialize to a single line, survive
    {!Ipdb_run.Checkpoint} roundtrips exactly, and deserialize with a
    typed error — never an exception. *)
module Snapshot : sig
  type sum_state = { sum_start : int; next : int; prefix : Interval.t }
  (** State of {!sum_resumable}: terms [sum_start..next-1] are folded into
      [prefix]; [next] is evaluated next. *)

  type div_state = {
    div_start : int;  (** first loop index of the certificate *)
    next_k : int;  (** next loop index to check *)
    partial : float;  (** witness partial sum over evaluated terms *)
    prev_term : float option;  (** last term (ratio certificates) *)
    prev_pick : int;  (** last picked index ([min_int] if none) *)
  }

  type t = Sum_state of sum_state | Div_state of div_state

  val to_string : t -> string
  (** Single-line encoding with exact-rational floats. *)

  val of_string : string -> (t, string) result
  (** Total inverse of {!to_string}; malformed input yields [Error]. *)

  val equal : t -> t -> bool
  (** Structural equality comparing floats by bits (NaN-safe). *)

  val encode_float : float -> string
  (** Exact encoding of any float: a rational in lowest terms, or one of
      the tokens ["nan"], ["inf"], ["-inf"], ["-0"]. *)

  val decode_float : string -> (float, string) result
  (** Bit-exact inverse of {!encode_float}. *)

  val pp : Format.formatter -> t -> unit
end

val sum_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Snapshot.t ->
  ?progress:(Snapshot.t -> unit) ->
  ?progress_every:int ->
  term ->
  tail:Tail.t ->
  upto:int ->
  (budgeted * Snapshot.t, Ipdb_run.Error.t) result
(** {!sum_budgeted} with checkpoint/resume: [from] restarts the fold from
    a snapshot's exact state (a snapshot of a different computation is a
    typed [Validation] error); [progress] is invoked with the current
    snapshot at each chunk end that completes another multiple of
    [progress_every] evaluated terms (default 1000), once per such chunk
    however many multiples it completes. The returned snapshot reflects the final state — for an
    [Exhausted] verdict it is exactly the point to resume from. One-shot
    and interrupted-then-resumed runs produce bit-identical results.

    {b Chunks and parallelism.} The prefix is evaluated in fixed chunks
    of [?chunk] indices (default {!Ipdb_par.Chunk.default_size}): on the
    pool's workers with [?pool], inline on the calling domain without one.
    Workers evaluate terms and validate the certificate's pointwise
    hypothesis; the interval fold replays their results strictly in index
    order on the calling domain. Because chunk boundaries depend only on
    [(start, upto, chunk)] and the fold order is the index order, the
    enclosure, verdict, final snapshot and progress stream are bit-for-bit
    identical with and without a pool and for every worker count. Budget
    steps are reserved per chunk, in chunk order, on the calling domain,
    so step-budget exhaustion stops at a chunk-plan-aligned index that is
    independent of worker count.
    Every snapshot is an exact state of the index-ordered fold, so runs
    with and without a pool can resume each other freely; a resumed chain
    that runs to completion reproduces the uninterrupted enclosure
    exactly. Wall-clock and cancellation trips are polled once per chunk
    and remain timing-dependent. *)

val certify_divergence_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Snapshot.t ->
  ?progress:(Snapshot.t -> unit) ->
  ?progress_every:int ->
  term ->
  certificate:Divergence.t ->
  upto:int ->
  (divergence_budgeted * Snapshot.t, Ipdb_run.Error.t) result
(** Resumable divergence checking: one term evaluation and one budget step
    per index, whose cross-index state is a {!Snapshot.t}. Same
    resume-equivalence guarantee as {!sum_resumable}, and the same chunk
    contract: chunk workers (or the calling domain, without a pool)
    evaluate terms and check the pointwise minorant hypotheses, while the
    witness fold and the cross-index checks (ratio decrease, pick
    monotonicity) replay in index order on the calling domain — verdicts,
    witness partial sums, snapshots and progress streams are bit-identical
    with and without a pool and for every worker count. *)

val geometric_tail_exact : Ipdb_bignum.Q.t -> int -> Ipdb_bignum.Q.t
(** [geometric_tail_exact r n] is the exact value [r^n / (1 - r)] of
    [sum_{k >= n} r^k] for a rational ratio [0 <= r < 1].
    @raise Invalid_argument when [r] is outside [0, 1). *)
