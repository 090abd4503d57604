(** The [ipdbkb1] on-disk knowledge-base format.

    Line-oriented text, whitespace-tokenised:

    {v
  ipdbkb1
  # comment
  rel <Name> <arity>
  <Name> <marginal> <value> ... <value>
    v}

    The first non-comment line must be the [ipdbkb1] magic. [rel] lines
    declare relations (required before the first fact of that
    relation). A fact line carries an exact rational or decimal
    marginal ([1/3], [0.25]) followed by [arity] value tokens: an
    integer token is an [Int] value, [_] is bottom, anything else a
    [Str] (strings with whitespace, an integer spelling, or a leading
    [_] have no encoding and are refused on write — this is a bulk-fact
    format, not a general serialisation).

    All I/O goes through {!Ipdb_env.Env.current}, so the simulated-fault
    backend and the crash-point explorer apply to kb files exactly as
    they do to the journal. A file whose final line is missing its
    newline (a torn append) loads fine: the partial tail is ignored and
    reported via [torn_tail], mirroring the journal's torn-tail repair.
    Every complete line must parse — a malformed record mid-file is a
    typed error, never silently skipped. *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value

val format_version : string
(** ["ipdbkb1"]. *)

type loaded = {
  store : Store.t;
  facts : int;  (** fact lines loaded (zero-marginal lines excluded) *)
  zero_dropped : int;  (** fact lines dropped for a zero marginal *)
  digest : int64;
      (** FNV-1a/64 over the bytes consumed (complete lines only) — the
          content address used for serve-cache keys *)
  torn_tail : bool;  (** a trailing newline-less partial line was ignored *)
}

val load : string -> (loaded, Ipdb_run.Error.t) result
(** Read a kb file through the ambient environment, in 64 KiB reads:
    the file is never held whole. Each load adds the tokens that missed
    the native readers (anything but [n/d] or [n] marginals and [_] or
    [-?[0-9]{1,18}] values, with at most 18 digits per number) to the
    [kb.ingest.general_tokens] counter. *)

val write :
  path:string ->
  relations:(string * int) list ->
  (string * Value.t array * Q.t) Seq.t ->
  (int, Ipdb_run.Error.t) result
(** Stream facts to [path] (truncating), fsync before close; returns the
    number of fact lines written. Facts are written as pulled, so a
    million-fact generator never materialises. *)

val value_token : Value.t -> (string, string) result
(** The token encoding a value, or why it has none. *)

val crash_scenario : ?path:string -> unit -> Ipdb_run.Crashexplore.scenario
(** The [ipdbkb1] write path as a crash-point scenario: bulk-write a
    small deterministic kb, verify it back, acknowledge its content
    digest. Power cuts and byte tears at every call site of {!write}
    leave an image {!load} accepts (partial tail ignored, [torn_tail]
    set — invariant 1); resuming rewrites from scratch ([O_TRUNC]) and
    converges byte-identically (invariant 3). *)
