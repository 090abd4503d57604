(** Boolean conjunctive queries and their unions over tuple-independent
    PDBs: syntax, normalisation and the enumeration oracle.

    The paper situates itself against the PQE literature (Dalvi–Suciu
    dichotomy [17]): computing the probability that a Boolean query holds on
    a TI-PDB is tractable exactly for {e hierarchical} self-join-free
    conjunctive queries, via an extensional ("lifted") plan, and #P-hard
    otherwise. This module provides:

    - the CQ/UCQ syntax, with recognisers from FO sentences;
    - the syntactic safety tests {!is_self_join_free} and
      {!is_hierarchical} (what [ipdb check] prints);
    - the normalisation that inclusion–exclusion needs: capture-free
      conjunction ({!conjoin_cqs}), duplicate-component removal
      ({!normalize_closed_cq}) and union deduplication ({!dedupe_ucq});
    - {!boolean_probability_exact} — intensional evaluation by world
      enumeration (any FO sentence; exponential, gated), the oracle every
      other evaluator is tested against.

    The lifted plan itself lives in [Ipdb_kb.Lifted], which evaluates
    these UCQs against an indexed fact store. *)

type cq_atom = { rel : string; args : Ipdb_logic.Fo.term list }

type cq = { exists : Ipdb_logic.Fo.var list; atoms : cq_atom list }
(** A Boolean conjunctive query [∃ x̄ (a₁ ∧ … ∧ aₖ)]; every variable in the
    atoms must be quantified. *)

val cq_of_formula : Ipdb_logic.Fo.t -> cq option
(** Recognise an existentially closed conjunction of atoms. *)

val cq_to_formula : cq -> Ipdb_logic.Fo.t

val is_self_join_free : cq -> bool
(** No relation symbol occurs twice. *)

val is_hierarchical : cq -> bool
(** For every two variables, their atom sets are nested or disjoint. *)

val boolean_probability_exact : Ti.Finite.t -> Ipdb_logic.Fo.t -> Ipdb_bignum.Q.t
(** [Pr_{I∼TI}(I ⊨ φ)] by exhaustive world enumeration.
    @raise Invalid_argument past the {!Worlds} gate. *)

(** {1 Unions of conjunctive queries}

    [Ipdb_kb.Lifted] evaluates a UCQ [Q₁ ∨ … ∨ Qₙ] by inclusion–exclusion: the sum
    over nonempty subsets S of the union terms of [(−1)^(#S+1) · Pr(⋀ S)],
    where each conjunction is a CQ with bound variables renamed apart. Conjunctions
    of overlapping union terms produce isomorphic duplicate components;
    {!normalize_closed_cq} removes them before the safety check, so
    e.g. [Q ∨ Q] stays safe. *)

type ucq = cq list

val max_union_terms : int
(** Inclusion–exclusion gate: unions beyond this many (deduplicated)
    terms are refused ([2ⁿ − 1] conjunctions). *)

val ucq_of_formula : Ipdb_logic.Fo.t -> ucq option
(** Recognise a positive-existential sentence ([∃], [∧], [∨], atoms,
    [⊤], [⊥]) and normalise it to a disjunction of closed CQs with bound
    variables renamed apart (capture-free). [None] on any other
    connective, on free variables, or past an internal DNF size gate. *)

val ucq_to_formula : ucq -> Ipdb_logic.Fo.t

val conjoin_cqs : cq list -> cq
(** Conjunction of closed CQs, bound variables renamed apart. *)

val normalize_closed_cq : cq -> cq
(** Drop duplicate atoms and duplicate-up-to-renaming connected
    components (sound for probability: [P(C ∧ C') = P(C)] when [C'] is a
    renaming of [C]). *)

val canon_cq : cq -> string
(** Canonical string of a closed CQ, invariant under variable renaming
    and atom/component reordering (for syntactically-built duplicates;
    not a general graph-isomorphism test). *)

val dedupe_ucq : ucq -> ucq
(** Drop union terms whose normalised canonical form repeats. *)
