(* Tests for Boolean lineage over TI-PDBs: construction, evaluation,
   Shannon-expansion probability — differential-tested against world
   enumeration (with quantifiers ranging over the PDB's active domain, as
   lineage semantics prescribes). *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Instance = Ipdb_relational.Instance
module Fo = Ipdb_logic.Fo
module View = Ipdb_logic.View
module Eval = Ipdb_logic.Eval
module Ti = Ipdb_pdb.Ti
module Finite_pdb = Ipdb_pdb.Finite_pdb
module Lineage = Ipdb_pdb.Lineage
module Pqe = Ipdb_pdb.Pqe

let vi n = Value.Int n
let fact r args = Fact.make r (List.map vi args)
let q = Alcotest.testable Q.pp Q.equal
let schema_rs = Schema.make [ ("R", 2); ("S", 1) ]

let ti_small =
  Ti.Finite.make schema_rs
    [ (fact "R" [ 1; 2 ], Q.half);
      (fact "R" [ 2; 1 ], Q.of_ints 1 3);
      (fact "S" [ 1 ], Q.of_ints 1 4);
      (fact "S" [ 2 ], Q.of_ints 2 5)
    ]

(* Enumeration-based reference probability with the lineage's fixed
   evaluation domain. *)
let reference_probability ti phi =
  let domain =
    Eval.domain_of
      (Instance.of_list (List.map fst (Ti.Finite.facts ti)))
      phi
  in
  let d = Ti.Finite.to_finite_pdb ti in
  Finite_pdb.prob_event d (fun world -> Eval.eval ~domain world Eval.Env.empty phi)

let test_lineage_shapes () =
  let l = Lineage.of_sentence ti_small (Fo.Exists ("x", Fo.atom "S" [ Fo.v "x" ])) in
  Alcotest.(check int) "two vars" 2 (List.length (Lineage.vars l));
  let l2 = Lineage.of_sentence ti_small (Fo.atom "S" [ Fo.ci 99 ]) in
  Alcotest.(check bool) "missing fact is Bot" true (l2 = Lineage.Bot);
  let l3 = Lineage.of_sentence ti_small (Fo.Or (Fo.atom "S" [ Fo.ci 1 ], Fo.True)) in
  Alcotest.(check bool) "folded to Top" true (l3 = Lineage.Top)

let test_lineage_probability_simple () =
  (* P(∃x S(x)) = 1 - (3/4)(3/5) = 11/20 *)
  let l = Lineage.of_sentence ti_small (Fo.Exists ("x", Fo.atom "S" [ Fo.v "x" ])) in
  Alcotest.(check q) "independent disjunction" (Q.of_ints 11 20) (Lineage.probability ti_small l)

let test_lineage_negation () =
  (* P(¬R(1,2)) = 1/2 *)
  let l = Lineage.of_sentence ti_small (Fo.Not (Fo.atom "R" [ Fo.ci 1; Fo.ci 2 ])) in
  Alcotest.(check q) "negation" Q.half (Lineage.probability ti_small l)

let test_lineage_shared_variable () =
  (* P(S(1) ∧ (S(1) ∨ S(2))) = P(S(1)) — correlation through sharing *)
  let phi = Fo.And (Fo.atom "S" [ Fo.ci 1 ], Fo.Or (Fo.atom "S" [ Fo.ci 1 ], Fo.atom "S" [ Fo.ci 2 ])) in
  let l = Lineage.of_sentence ti_small phi in
  Alcotest.(check q) "absorption" (Q.of_ints 1 4) (Lineage.probability ti_small l)

let test_output_fact_lineage () =
  (* view T(x,z) := ∃y R(x,y) ∧ R(y,z); lineage of T(1,1) is
     R(1,2) ∧ R(2,1) *)
  let v =
    View.make
      [ ("T", [ "x"; "z" ],
         Fo.Exists ("y", Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "R" [ Fo.v "y"; Fo.v "z" ]))) ]
  in
  let d = List.hd (View.defs v) in
  let l = Lineage.of_output_fact ti_small d [ vi 1; vi 1 ] in
  Alcotest.(check q) "path probability" (Q.of_ints 1 6) (Lineage.probability ti_small l);
  (* agrees with the marginal in the image PDB *)
  let image = Finite_pdb.map_view v (Ti.Finite.to_finite_pdb ti_small) in
  Alcotest.(check q) "image marginal" (Finite_pdb.marginal image (fact "T" [ 1; 1 ]))
    (Lineage.probability ti_small l)

let test_h0_intensional () =
  (* the non-hierarchical H0 query: lifted PQE refuses, lineage computes *)
  let ti =
    Ti.Finite.make
      (Schema.make [ ("R", 1); ("S", 2); ("T", 1) ])
      [ (fact "R" [ 1 ], Q.half);
        (fact "R" [ 2 ], Q.of_ints 1 3);
        (fact "S" [ 1; 1 ], Q.of_ints 1 4);
        (fact "S" [ 1; 2 ], Q.of_ints 2 5);
        (fact "S" [ 2; 2 ], Q.of_ints 1 7);
        (fact "T" [ 1 ], Q.of_ints 3 5);
        (fact "T" [ 2 ], Q.of_ints 1 6)
      ]
  in
  let h0 =
    Fo.exists_many [ "x"; "y" ]
      (Fo.conj [ Fo.atom "R" [ Fo.v "x" ]; Fo.atom "S" [ Fo.v "x"; Fo.v "y" ]; Fo.atom "T" [ Fo.v "y" ] ])
  in
  (match Pqe.cq_of_formula h0 with
  | Some cq ->
    Alcotest.(check bool) "lifted refuses" true
      (Ipdb_kb.Lifted.ucq_probability (Ipdb_kb.Store.of_ti ti) [ cq ] = Ok None)
  | None -> Alcotest.fail "parse");
  let l = Lineage.of_sentence ti h0 in
  Alcotest.(check q) "lineage = enumeration" (reference_probability ti h0) (Lineage.probability ti l)

let test_holds_in () =
  let phi = Fo.Exists ("x", Fo.And (Fo.atom "S" [ Fo.v "x" ], Fo.atom "R" [ Fo.ci 1; Fo.ci 2 ])) in
  let l = Lineage.of_sentence ti_small phi in
  let w1 = Instance.of_list [ fact "S" [ 1 ]; fact "R" [ 1; 2 ] ] in
  Alcotest.(check bool) "holds" true (Lineage.holds_in w1 l);
  Alcotest.(check bool) "fails" false (Lineage.holds_in (Instance.of_list [ fact "S" [ 1 ] ]) l)

let test_gate () =
  let many =
    Ti.Finite.make (Schema.make [ ("S", 1) ]) (List.init 30 (fun i -> (fact "S" [ i ], Q.half)))
  in
  let l = Lineage.of_sentence many (Fo.Exists ("x", Fo.atom "S" [ Fo.v "x" ])) in
  Alcotest.check_raises "gate" (Invalid_argument "Lineage.probability: 30 variables exceed the gate (24)")
    (fun () -> ignore (Lineage.probability many l))

(* Differential test: random sentences over a random small TI-PDB. *)
let gen_formula =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y" ] in
  let term = frequency [ (2, map Fo.v var); (1, map Fo.ci (1 -- 2)) ] in
  let atom = oneof [ map2 (fun a b -> Fo.atom "R" [ a; b ]) term term; map (fun a -> Fo.atom "S" [ a ]) term ] in
  let rec formula n =
    if n = 0 then atom
    else
      frequency
        [ (3, atom);
          (2, map2 (fun a b -> Fo.And (a, b)) (formula (n - 1)) (formula (n - 1)));
          (2, map2 (fun a b -> Fo.Or (a, b)) (formula (n - 1)) (formula (n - 1)));
          (1, map (fun a -> Fo.Not a) (formula (n - 1)));
          (1, map2 (fun a b -> Fo.Implies (a, b)) (formula (n - 1)) (formula (n - 1)));
          (2, map2 (fun x a -> Fo.Exists (x, a)) var (formula (n - 1)));
          (2, map2 (fun x a -> Fo.Forall (x, a)) var (formula (n - 1)))
        ]
  in
  formula 3

let arb_ti_sentence =
  QCheck.make
    ~print:(fun (ti, phi) -> Format.asprintf "%a |= %s" Ti.Finite.pp ti (Fo.to_string phi))
    QCheck.Gen.(
      let* phi = gen_formula in
      let closed = Fo.exists_many (Fo.free_vars phi) phi in
      let* n_r = 0 -- 3 in
      let* n_s = 0 -- 2 in
      let* r_facts =
        list_size (return n_r)
          (let* a = 1 -- 2 in
           let* b = 1 -- 2 in
           let* den = 2 -- 5 in
           return (fact "R" [ a; b ], Q.of_ints 1 den))
      in
      let* s_facts =
        list_size (return n_s)
          (let* a = 1 -- 2 in
           let* den = 2 -- 5 in
           return (fact "S" [ a ], Q.of_ints 1 den))
      in
      let dedup facts =
        List.fold_left (fun acc (f, p) -> if List.mem_assoc f acc then acc else (f, p) :: acc) [] facts
      in
      return (Ti.Finite.make schema_rs (dedup (r_facts @ s_facts)), closed))

let lineage_vs_enumeration =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"Shannon probability = enumeration" arb_ti_sentence
       (fun (ti, phi) ->
         let l = Lineage.of_sentence ti phi in
         Q.equal (Lineage.probability ti l) (reference_probability ti phi)))

let lineage_worlds_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"lineage truth = world truth" arb_ti_sentence
       (fun (ti, phi) ->
         let domain = Eval.domain_of (Instance.of_list (List.map fst (Ti.Finite.facts ti))) phi in
         let l = Lineage.of_sentence ti phi in
         let d = Ti.Finite.to_finite_pdb ti in
         List.for_all
           (fun (world, _) -> Lineage.holds_in world l = Eval.eval ~domain world Eval.Env.empty phi)
           (Finite_pdb.support d)))

let () =
  Alcotest.run "lineage"
    [ ( "construction",
        [ Alcotest.test_case "shapes" `Quick test_lineage_shapes;
          Alcotest.test_case "holds_in" `Quick test_holds_in
        ] );
      ( "probability",
        [ Alcotest.test_case "independent disjunction" `Quick test_lineage_probability_simple;
          Alcotest.test_case "negation" `Quick test_lineage_negation;
          Alcotest.test_case "shared variable" `Quick test_lineage_shared_variable;
          Alcotest.test_case "output fact" `Quick test_output_fact_lineage;
          Alcotest.test_case "H0 intensionally" `Quick test_h0_intensional;
          Alcotest.test_case "variable gate" `Quick test_gate
        ] );
      ("differential", [ lineage_vs_enumeration; lineage_worlds_agree ])
    ]
