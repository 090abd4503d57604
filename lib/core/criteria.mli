(** Representability criteria for countable PDBs (Sections 3 and 5.1).

    - {b Necessary} (Proposition 3.4): every PDB in [FO(TI)] has all size
      moments finite. A certified-divergent moment series refutes
      membership.
    - {b Sufficient} (Theorem 5.3): if
      [Σ_{D≠∅} |D| · P(D)^(c/|D|) < ∞] for some positive integer [c], the
      PDB is in [FO(TI)].
    - {b Finer necessary} (Lemma 3.6 / Lemma 3.7): for domain-disjoint PDBs,
      representability forces the world probabilities below an explicit
      edge-cover bound along every divergent series — the tool behind
      Example 3.9 / Theorem 3.10.

    Verdicts carry certificates; nothing is concluded from bare partial
    sums. *)

module Series = Ipdb_series.Series
module Interval = Ipdb_series.Interval

type certificate =
  | Tail of Series.Tail.t  (** the series converges *)
  | Divergence of Series.Divergence.t  (** the series diverges *)

type series_verdict =
  | Finite_sum of Interval.t
  | Infinite_sum of { partial : float; at : int }
  | Partial of {
      enclosure : Interval.t option;
          (** for convergence checks: a sound enclosure of the infinite sum
              under the certificate hypothesis, validated only up to [at] *)
      partial : float;  (** partial sum over the evaluated prefix *)
      at : int;  (** last index evaluated *)
      requested : int;  (** the [upto] originally asked for *)
      exhausted : Ipdb_run.Error.exhaustion;
    }
      (** The budget ran out before [upto]: a certified partial verdict,
          never a crash or a silent wrong answer. *)
  | Invalid_certificate of string
  | Check_failed of Ipdb_run.Error.t
      (** Typed non-certificate failure (injected fault, I/O, internal). *)

val check_series :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  start:int ->
  cert:certificate ->
  upto:int ->
  (int -> float) ->
  series_verdict
(** Validate the certificate on the computed prefix and produce the
    verdict, consuming one budget step per term. Never raises: faults in
    term evaluation or certificate validation surface as
    {!Invalid_certificate} / {!Check_failed}. With [?pool] the series
    engine's chunks are evaluated on the pool, without one inline —
    verdicts are bit-identical either way and for any worker count (see
    {!Ipdb_series.Series.sum_resumable}). *)

val moment_verdict :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  Ipdb_pdb.Family.t -> k:int -> cert:certificate -> upto:int -> series_verdict
(** Verdict for the [k]-th size moment [Σ |D_n|^k P(D_n)]. *)

val theorem53_verdict :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  Ipdb_pdb.Family.t -> c:int -> cert:certificate -> upto:int -> series_verdict
(** Verdict for the Theorem 5.3 series with capacity [c]. *)

val verdict_to_string : series_verdict -> string
(** One-line rendering of a series verdict. *)

(** {1 Resumable checks and persisted evidence}

    The [_resumable] variants thread {!Ipdb_series.Series.Snapshot}s
    through the budgeted engines: [from] restarts a check from the exact
    state a previous (budget-exhausted) run stopped at, and [progress]
    observes the state at chunk ends, about every [progress_every] terms,
    so callers can checkpoint mid-flight. Because the engines fold in
    index order over exactly-persisted state, an interrupted-and-resumed
    check returns the same verdict, bit for bit, as an uninterrupted
    one. *)

val check_series_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Series.Snapshot.t ->
  ?progress:(Series.Snapshot.t -> unit) ->
  ?progress_every:int ->
  start:int ->
  cert:certificate ->
  upto:int ->
  (int -> float) ->
  series_verdict * Series.Snapshot.t option
(** {!check_series} with checkpoint/resume. The snapshot is [Some] exactly
    when the engine ran (verdicts [Finite_sum], [Infinite_sum] and
    [Partial]); for a [Partial] verdict it is the state to resume from. A
    snapshot of a different computation yields
    [Check_failed (Validation _)]. *)

val moment_verdict_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Series.Snapshot.t ->
  ?progress:(Series.Snapshot.t -> unit) ->
  ?progress_every:int ->
  Ipdb_pdb.Family.t ->
  k:int ->
  cert:certificate ->
  upto:int ->
  series_verdict * Series.Snapshot.t option

val theorem53_verdict_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Series.Snapshot.t ->
  ?progress:(Series.Snapshot.t -> unit) ->
  ?progress_every:int ->
  Ipdb_pdb.Family.t ->
  c:int ->
  cert:certificate ->
  upto:int ->
  series_verdict * Series.Snapshot.t option

val verdict_serialize : series_verdict -> string
(** Single-line encoding of a verdict with all floats persisted as exact
    rationals (via {!Series.Snapshot.encode_float}), so deserializing
    reproduces the verdict bit for bit — including the typed error inside
    [Check_failed]. *)

val verdict_deserialize : string -> (series_verdict, string) result
(** Total inverse of {!verdict_serialize}; malformed input yields a
    diagnostic, never an exception. *)

(** {1 Lemma 3.3: views preserve finite moments} *)

val lemma33_bound :
  view:Ipdb_logic.View.t ->
  input_schema:Ipdb_relational.Schema.t ->
  input_moment:(int -> Ipdb_bignum.Q.t) ->
  k:int ->
  Ipdb_bignum.Q.t
(** The explicit bound from the proof of Lemma 3.3:
    [E_V(D)(|·|^k) <= m^k Σ_{j=0}^{rk} C(rk,j) r'^j c^(rk-j) E_D(|·|^j)]
    where [m] is the number of output relations, [r] their maximal arity,
    [c] the maximal number of constants in a defining formula, and [r'] the
    maximal arity of the input schema. Finite whenever the input moments up
    to order [rk] are — the inductive heart of Proposition 3.4.
    (Property-tested: the pushforward's exact [k]-th moment never exceeds
    this bound on finite PDBs.) *)

val binomial : int -> int -> Ipdb_bignum.Q.t
(** Exact binomial coefficient [C(n, k)] ([0] outside range). *)

(** {1 Lemma 3.6: the edge-cover bound} *)

type lemma36_data = {
  vn_size : int;  (** [|V_n|]: active-domain elements not constants of the view *)
  r : int;  (** maximal arity of the TI-PDB's schema *)
  en_mass : Ipdb_bignum.Q.t;  (** [Σ_{e ∈ E_n} q_e] *)
  bound : float;  (** [|V_n| (r² |V_n|^(r-1) Σq)^(|V_n|/r)] *)
  exact_lhs : Ipdb_bignum.Q.t option;
      (** [Pr(Φ(I) = D_n)] by exhaustive enumeration, when feasible *)
}

val lemma36_bound :
  ti:Ipdb_pdb.Ti.Finite.t ->
  view:Ipdb_logic.View.t ->
  world:Ipdb_relational.Instance.t ->
  lemma36_data
(** Computes both sides of Lemma 3.6 for a concrete finite TI-PDB, view and
    output instance. [exact_lhs] is [None] past the enumeration gate. *)

val minimal_cover_sum :
  ti:Ipdb_pdb.Ti.Finite.t -> target:Ipdb_relational.Value.t list -> Ipdb_bignum.Q.t
(** [Σ_{C ∈ EC*_H(V)} Π_{e∈C} q_e] — the intermediate quantity of the
    Lemma 3.6 proof, computed exactly over minimal edge covers. *)

(** {1 Lemma 3.7: witnesses against representability} *)

val lemma37_rhs : r:int -> a_n:float -> d_n:int -> float
(** The bound [d_n · (a_n · d_n^(r-1))^(d_n/r)] of Lemma 3.7. *)

val lemma37_refutation :
  prob:(int -> float) ->
  adom_size:(int -> int) ->
  a:(int -> float) ->
  rs:int list ->
  range:int * int ->
  (int * int) list
(** For each candidate arity [r] in [rs], counts over [range] how many
    indices [n] satisfy [P(D_n) >= lemma37_rhs] — i.e. {e violate} the
    inequality that Lemma 3.7 forces for infinitely many [n] were the PDB
    representable. Returns [(r, violations)]; a violation count equal to
    the whole range for every [r] (and growing with the range) is the
    Example 3.9 refutation pattern. *)
