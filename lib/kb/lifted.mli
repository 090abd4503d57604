(** Lifted (extensional) UCQ inference over a {!Store}.

    The engine evaluates a positive-existential sentence by
    inclusion–exclusion over its union terms (Pqe's UCQ normal form) and
    runs each conjunction through the Dalvi–Suciu extensional rules
    {e against the indexed store} rather than by grounding quantifiers
    over the active domain:

    - {e ground product}: distinct ground atoms are independent facts,
      so their conjunction is the product of stored marginals;
    - {e independent join}: variable-connected components of the open
      atoms touch disjoint fact sets, so components multiply;
    - {e leaf}: a component that is one open atom is
      [1 − ∏ (1 − p)] over the rows of its index bucket whose
      repeated-variable positions agree — distinct rows are distinct
      independent facts, so the atom is read once, with no recursion;
    - {e independent project}: in a component of two or more atoms, a
      root variable occurring in every atom ranges over the candidate
      values read from the smallest supporting relation's index — values
      outside that support contribute a factor of 1 — giving
      [1 − ∏ᵥ (1 − Pr(body\[root := v\]))].

    The conjunctions of inclusion–exclusion repeat the union terms'
    components, so each query keeps a memo from a canonical key of every
    top-level open component (relation and interned ids, variables
    renumbered by first occurrence) to its probability: in
    [A ∨ (A ∧ B)] the conjunction reuses [Pr(A)] and [Pr(B)].
    [independence] shares one memo across its three unions.

    A conjunction is {e safe} here when its open atoms are self-join-free
    with relations disjoint from its ground atoms' and every component
    (recursively) has a root. That admits every conjunction that is
    self-join-free and hierarchical as a whole ([Pqe.is_self_join_free],
    [Pqe.is_hierarchical]), and more: repeated {e ground} atoms of one
    relation are fine, which inclusion–exclusion relies on.

    Exact answers are rationals, independent of chunking and worker
    count. One budget step is consumed per root-candidate substitution,
    per leaf row folded and per Monte-Carlo sample; a memo hit costs
    nothing. Step counts are therefore a function of the query and the
    data alone — never of [--jobs]. *)

module Q = Ipdb_bignum.Q
module Fo = Ipdb_logic.Fo
module Pqe = Ipdb_pdb.Pqe

type mc = { samples : int; seed : int; delta : float }
(** Monte-Carlo fallback parameters: world-sampling with a Hoeffding
    interval at confidence [1 − delta]. *)

type outcome =
  | Exact of Q.t  (** every union conjunction admitted a safe plan *)
  | Estimated of Ipdb_pdb.Estimate.estimate
      (** sampling fallback for an unsafe query; [truncation_bias = 0]
          (the store is finite), degraded sample counts on budget trips *)

val par_threshold : int
(** Item count (root candidates or leaf rows) below which a top-level
    fold never fans out on the pool. *)

val ucq_probability :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  Store.t ->
  Pqe.ucq ->
  (Q.t option, Ipdb_run.Error.t) result
(** Exact inclusion–exclusion. [Ok None] when some conjunction is
    unsafe or the (deduplicated) union exceeds [Pqe.max_union_terms];
    [Error (Validation _)] when an atom names a relation the store lacks
    or uses it with the wrong number of arguments (the check and message
    of {!query}); [Error (Exhausted _)] on budget exhaustion. *)

val query :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  ?mc:mc ->
  Store.t ->
  Fo.t ->
  (outcome, Ipdb_run.Error.t) result
(** Evaluate a sentence: normalise to a UCQ ([Error (Validation _)] if
    the sentence is not positive-existential), try the exact engine,
    fall back to Monte-Carlo when unsafe and [mc] was supplied
    ([Error (Validation _)] otherwise, naming the unsafe shape). *)

val independence :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  Store.t ->
  Fo.t ->
  Fo.t ->
  ((bool * Q.t * Q.t * Q.t), Ipdb_run.Error.t) result
(** Grohe–Lindner independence test: exact check of
    [Pr(Q₁ ∧ Q₂) = Pr(Q₁) · Pr(Q₂)], returning
    [(independent, p₁, p₂, p₁₂)]. The product query is the pairwise
    cross-conjunction of the two unions. Exact only — an unsafe query is
    a [Validation] error, since a sampled equality cannot certify. *)
