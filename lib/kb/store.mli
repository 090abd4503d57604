(** Compact in-memory store for large tuple-independent fact sets.

    [Ti.Finite.t] is a sorted assoc list — perfect for the paper-scale
    examples, hopeless at 10⁶ facts. This store keeps one {e columnar}
    table per relation: tuples are arrays of {e interned value ids}
    (one global intern table for the whole store), marginals are exact
    rationals kept on a small-int fast path ([num]/[den] native-int
    columns) with a spill table for the rare bignum marginal, and every
    bound-position access pattern gets a hash index built lazily on
    first use. Duplicate facts are rejected at insert via the
    incrementally-maintained full-tuple index.

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

val add : t -> rel:string -> Value.t array -> Q.t -> (unit, string) result
(** Insert one fact. [Error] on an unknown relation, an arity mismatch,
    a marginal outside [0, 1], or a duplicate tuple. A zero marginal is
    accepted and dropped (mirroring [Ti.Finite.make]). *)

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

(** {1 Query-engine surface}

    Low-level access used by {!Lifted}. Row ids are [0 .. rows-1] per
    relation, value ids are global intern ids; both are densely
    allocated in insertion order, so anything sorted by id is
    deterministic for a given ingest order. *)

type rel_handle

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
    positions in ascending order), in ascending row order. Builds the
    index for [mask] on first use (one O(rows) pass per distinct mask,
    cached until the next {!add}). *)

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
