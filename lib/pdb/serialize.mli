(** Textual serialisation of probabilistic databases.

    A small s-expression format with exact rational probabilities, so PDBs
    survive a round-trip bit-for-bit (property-tested against the workload
    generators). The grammar:

    {v
  value    := INT | "string" | bot | (pair value value)
  fact     := (REL value ...)
  schema   := (schema (REL ARITY) ...)
  ti       := (ti schema (fact PROB) ...)
  bid      := (bid schema (block (fact PROB) ...) ...)
  pdb      := (pdb schema (world PROB fact ...) ...)
  PROB     := exact rational, e.g. 1/3 or 1
    v}

    Probabilities print via [Q.to_string] and parse via [Q.of_string]. *)

val value_to_string : Ipdb_relational.Value.t -> string
val fact_to_string : Ipdb_relational.Fact.t -> string

val ti_to_string : Ti.Finite.t -> string
val ti_of_string : string -> (Ti.Finite.t, string) result

val bid_to_string : Bid.Finite.t -> string
val bid_of_string : string -> (Bid.Finite.t, string) result

val pdb_to_string : Finite_pdb.t -> string
val pdb_of_string : string -> (Finite_pdb.t, string) result

val canonical_key : op:string -> (string * string) list -> string
(** [canonical_key ~op params] is the canonical serialisation of a
    (family, query, precision) request — a deterministic s-expression
    [(req op (name "value") ...)] with parameters sorted by name — used as
    the content-address preimage of the serve layer's verdict cache.
    Parameters that do not change the answer (budgets, deadlines) must be
    left out by the caller. *)

val load : path:string -> (string, Ipdb_run.Error.t) result
(** Read a file's contents through the ambient {!Ipdb_env.Env} (via
    [Ioutil.read_file]), so the simulated backend can fault it. A missing
    or unreadable file yields [Error (Io _)]; nothing raises. There is no
    writer: [ipdb export] prints the text to stdout. *)
