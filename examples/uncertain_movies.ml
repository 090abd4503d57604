(* Querying an uncertain database three ways.

   A small movie database scraped "from unreliable web sources" (the
   paper's §1 motivation for probabilistic databases): facts carry
   marginal probabilities and are tuple-independent. We answer queries

     q1 = ∃m  Directed('kubrick', m) ∧ SciFi(m)      (hierarchical: safe)
     q2 = ∃d m. Director(d) ∧ Directed(d, m) ∧ SciFi(m)   (the H0 pattern: #P-hard in general)

   with (1) the lifted extensional plan where it applies, (2) exact
   intensional evaluation via Boolean lineage + Shannon expansion, and
   (3) Monte-Carlo estimation with Hoeffding bounds — all three agreeing.

   Run with: dune exec examples/uncertain_movies.exe *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Interval = Ipdb_series.Interval
module Fo = Ipdb_logic.Fo
module Parser = Ipdb_logic.Parser
module Ti = Ipdb_pdb.Ti
module Pqe = Ipdb_pdb.Pqe
module Lineage = Ipdb_pdb.Lineage
module Estimate = Ipdb_pdb.Estimate
module Finite_pdb = Ipdb_pdb.Finite_pdb
module Store = Ipdb_kb.Store
module Lifted = Ipdb_kb.Lifted

let schema = Schema.make [ ("Director", 1); ("Directed", 2); ("SciFi", 1) ]
let s v = Value.Str v

let movies =
  Ti.Finite.make schema
    [ (Fact.make "Director" [ s "kubrick" ], Q.of_ints 19 20);
      (Fact.make "Director" [ s "tarkovsky" ], Q.of_ints 9 10);
      (Fact.make "Directed" [ s "kubrick"; s "2001" ], Q.of_ints 9 10);
      (Fact.make "Directed" [ s "kubrick"; s "shining" ], Q.of_ints 4 5);
      (Fact.make "Directed" [ s "tarkovsky"; s "solaris" ], Q.of_ints 17 20);
      (Fact.make "Directed" [ s "clarke"; s "2001" ], Q.of_ints 1 10);
      (Fact.make "SciFi" [ s "2001" ], Q.of_ints 9 10);
      (Fact.make "SciFi" [ s "solaris" ], Q.of_ints 4 5);
      (Fact.make "SciFi" [ s "shining" ], Q.of_ints 1 20)
    ]

let () =
  Format.printf "An uncertain movie database (%d independent facts):@.%a@." (List.length (Ti.Finite.facts movies))
    Ti.Finite.pp movies;

  (* q1: safe — the lifted plan applies *)
  let q1 = Parser.formula_exn "exists m. (Directed('kubrick', m) & SciFi(m))" in
  let cq1 = Option.get (Pqe.cq_of_formula q1) in
  Format.printf "q1 = %s@." (Fo.to_string q1);
  Format.printf "  hierarchical? %b, self-join-free? %b@." (Pqe.is_hierarchical cq1) (Pqe.is_self_join_free cq1);
  (* the lifted plan runs over an indexed fact store (Ipdb_kb) *)
  let store = Store.of_ti movies in
  let lifted = Option.get (Result.get_ok (Lifted.ucq_probability store [ cq1 ])) in
  Format.printf "  lifted (extensional) plan : %s ≈ %s@." (Q.to_string lifted) (Q.to_decimal_string ~digits:6 lifted);
  let lin1 = Lineage.of_sentence movies q1 in
  Format.printf "  lineage                   : %a@." Lineage.pp lin1;
  Format.printf "  Shannon expansion         : %s@." (Q.to_decimal_string ~digits:6 (Lineage.probability movies lin1));
  let rng = Random.State.make [| 2001 |] in
  let fin = Ti.Finite.to_finite_pdb movies in
  let est =
    match
      Estimate.event_probability_finite ~samples:30000 ~rng fin (fun w ->
          Ipdb_logic.Eval.holds w q1)
    with
    | Ok est -> est
    | Error e -> failwith (Ipdb_run.Error.to_string e)
  in
  Format.printf "  Monte-Carlo (30k samples) : %.4f ± %.4f (99%% confidence)@.@." est.Estimate.mean
    est.Estimate.statistical_halfwidth;

  (* q2: the H0 pattern — unsafe for the extensional plan *)
  let q2 = Parser.formula_exn "exists d m. (Director(d) & Directed(d, m) & SciFi(m))" in
  let cq2 = Option.get (Pqe.cq_of_formula q2) in
  Format.printf "q2 = %s@." (Fo.to_string q2);
  Format.printf "  hierarchical? %b — the extensional plan refuses (Dalvi–Suciu): %b@."
    (Pqe.is_hierarchical cq2)
    (Lifted.ucq_probability store [ cq2 ] = Ok None);
  let lin2 = Lineage.of_sentence movies q2 in
  Format.printf "  lineage has %d variables, size %d@." (List.length (Lineage.vars lin2)) (Lineage.size lin2);
  let p2 = Lineage.probability movies lin2 in
  Format.printf "  intensional (Shannon)     : %s ≈ %s@." (Q.to_string p2) (Q.to_decimal_string ~digits:6 p2);
  Format.printf "  enumeration cross-check   : %s@."
    (Q.to_decimal_string ~digits:6 (Finite_pdb.prob_sentence fin q2));

  (* and a glimpse of the paper's main theme: this TI-PDB is trivially in
     FO(TI); any finite PDB we derive from it by a view stays there. *)
  Format.printf "@.(Being tuple-independent, this PDB is trivially in FO(TI); every FO view of it@.";
  Format.printf " — e.g. the answers to q1/q2 as output relations — stays within FO(TI).)@."
