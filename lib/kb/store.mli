(** Compact in-memory store for large tuple-independent fact sets.

    [Ti.Finite.t] is a sorted assoc list — perfect for the paper-scale
    examples, hopeless at 10⁶ facts. This store keeps one {e columnar}
    table per relation: tuples are arrays of {e interned value ids}
    (one global intern table for the whole store; integers intern
    through their own table without allocating),
    marginals are exact rationals kept on a small-int fast path
    ([num]/[den] native-int columns) with a spill table for the rare
    bignum marginal. Each relation keeps a {e row set}: an
    open-addressing table of row ids hashed over their column ids and
    compared against the columns. It rejects duplicate facts at insert
    and answers full-tuple lookups. Every other access pattern with a
    bound position gets a counting-sort index (rows grouped by key,
    one stable counting sort per bound position) built lazily on first
    use.

    The store is single-writer; queries may run from several domains
    once loading is done (lazy index construction is protected by a
    mutex, everything else is read-only after ingest). *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value

type t

val create : (string * int) list -> t
(** Empty store over the given relations.
    @raise Invalid_argument on a duplicate name or negative arity. *)

val declare : t -> string -> int -> (unit, string) result
(** Add a relation; [Error] on an arity conflict with an existing one. *)

val schema : t -> (string * int) list
(** Relations with arities, in name order. *)

val max_arity : int
(** The largest arity a relation may have (12). *)

val add : t -> rel:string -> Value.t array -> Q.t -> (unit, string) result
(** Insert one fact. [Error] on an unknown relation, an arity mismatch,
    a marginal outside [0, 1], or a duplicate tuple. A zero marginal is
    accepted and dropped (mirroring [Ti.Finite.make]). This is
    {!resolve}, {!admit}, {!intern} and {!insert} in turn. *)

(** {2 The insert path, step by step}

    What {!add} does, split so that a loader can skip building
    [Value.t]s and [Q.t]s: resolve the relation once per run of facts,
    validate, intern, insert. A marginal is passed as a native coprime
    pair [num/den] when [den > 0]; with [den = 0] it is [p]. *)

type rel_handle

val resolve : t -> string -> (rel_handle, string) result
(** The relation's handle; [Error] names an unknown relation. *)

val admit : rel_handle -> nargs:int -> num:int -> den:int -> Q.t -> (bool, string) result
(** Validate a fact of [nargs] values before interning them: [Error]
    on an arity mismatch or a marginal outside [0, 1], [Ok false] for a
    zero marginal (to be dropped), [Ok true] otherwise. *)

val intern : t -> Value.t -> int
(** The value's id, allocated on first occurrence (ids are dense, in
    first-occurrence order). *)

val intern_int : t -> int -> int
(** [intern t (Int n)] without allocating the [Value.t] unless [n] is new. *)

val insert : rel_handle -> int array -> num:int -> den:int -> Q.t -> (unit, string) result
(** Append the admitted fact whose interned ids are
    [ids.(0 .. arity-1)]; [Error] on a duplicate tuple. With a native
    marginal it allocates nothing unless a column or the row set grows. *)

val fact_count : t -> int
val distinct_values : t -> int

val spilled : t -> int
(** Marginals stored outside the small-int fast path. *)

val expected_size : t -> Q.t
(** [Σ p_t], exact (Proposition 3.2). *)

val marginal : t -> rel:string -> Value.t array -> Q.t
(** Exact marginal; zero for anything not in the store. *)

val iter : t -> (string -> Value.t array -> Q.t -> unit) -> unit
(** All facts, relation by relation in insertion order. *)

val to_ti : t -> Ipdb_pdb.Ti.Finite.t
(** Materialise as a [Ti.Finite.t] (small stores; tests and the
    enumeration cross-check). *)

val of_ti : Ipdb_pdb.Ti.Finite.t -> t
(** The dual of {!to_ti}: a store over the TI-PDB's schema (relations
    without facts included) holding its facts, in list order. This is
    how a [Ti.Finite.t] reaches {!Lifted}.
    @raise Invalid_argument on an arity above {!max_arity}. *)

(** {1 Query-engine surface}

    Low-level access used by {!Lifted}. Row ids are [0 .. rows-1] per
    relation, value ids are global intern ids; both are densely
    allocated in insertion order, so anything sorted by id is
    deterministic for a given ingest order. *)

val handle : t -> string -> rel_handle option
val handle_arity : rel_handle -> int
val handle_rows : rel_handle -> int
val handle_name : rel_handle -> string

val intern_find : t -> Value.t -> int option
(** The id of an already-interned value; [None] means the value occurs
    nowhere in the store (so no fact can match it). *)

val value_of_id : t -> int -> Value.t

val rows_matching : rel_handle -> mask:int -> key:int array -> int array
(** Row ids whose tuple agrees with [key] on the bound positions of
    [mask] (bit [i] set = position [i] bound, [key] lists bound
    positions in ascending order), in ascending row order. Ids in [key]
    that were never interned match nothing. The result is shared with
    the index: do not mutate it.
    - [mask = 0]: every row, one array built on first use.
    - Every position bound: the row set answers with a fresh one-row
      (or empty) array; no index is built.
    - Otherwise the index for [mask] is built on first use and cached
      until the next insert: one stable counting sort per bound position
      groups the rows by key (O(rows + values) each). A probe indexes
      the groups by the first bound position's id, then binary-searches
      them on the rest; it allocates nothing.

    Each build counts in [kb.index.builds] and runs in a
    [store.index_build] trace span with [rel], [mask] and [rows]. *)

val cell : rel_handle -> row:int -> pos:int -> int
(** Interned value id at a tuple position. *)

val row_prob : rel_handle -> int -> Q.t
(** Exact marginal of a row (small-int fast path or spill table). *)

val row_prob_num : rel_handle -> int -> int

val row_prob_den : rel_handle -> int -> int
(** The row's marginal as a native coprime pair
    [row_prob_num / row_prob_den], read without allocating; the
    denominator is 0 when the marginal is spilled (read it with
    {!row_prob} then). *)
