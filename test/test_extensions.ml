(* Tests for the extension modules: view composition (Remark 4.2's
   FO(FO(TI)) = FO(TI) observation), Monte-Carlo estimation, and lifted
   probabilistic query evaluation on TI-PDBs. *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Instance = Ipdb_relational.Instance
module Fo = Ipdb_logic.Fo
module View = Ipdb_logic.View
module Interval = Ipdb_series.Interval
module Finite_pdb = Ipdb_pdb.Finite_pdb
module Ti = Ipdb_pdb.Ti
module Estimate = Ipdb_pdb.Estimate
module Pqe = Ipdb_pdb.Pqe
module Zoo = Ipdb_core.Zoo
module Store = Ipdb_kb.Store
module Lifted = Ipdb_kb.Lifted

let vi n = Value.Int n
let fact r args = Fact.make r (List.map vi args)
let inst facts = Instance.of_list facts
let q = Alcotest.testable Q.pp Q.equal

(* The lifted plan of Ipdb_kb.Lifted over a TI-PDB's facts; [None] when
   the query has no safe plan. *)
let lifted ti cq =
  match Lifted.ucq_probability (Store.of_ti ti) [ cq ] with
  | Ok r -> r
  | Error e -> Alcotest.fail (Ipdb_run.Error.to_string e)

let estimate_exn = function
  | Ok e -> e
  | Error err -> Alcotest.fail (Ipdb_run.Error.to_string err)

(* ------------------------------------------------------------------ *)
(* View composition                                                    *)
(* ------------------------------------------------------------------ *)

let test_compose_basic () =
  (* inner: T(x) := ∃y R(x,y);  outer: U(x) := T(x) ∧ ¬T'(x)? keep simple:
     outer: U(x) := ∃z T(z) ∧ T(x) *)
  let inner = View.make [ ("T", [ "x" ], Fo.Exists ("y", Fo.atom "R" [ Fo.v "x"; Fo.v "y" ])) ] in
  let outer = View.make [ ("U", [ "x" ], Fo.And (Fo.atom "T" [ Fo.v "x" ], Fo.Exists ("z", Fo.atom "T" [ Fo.v "z" ]))) ] in
  let composed = View.compose outer inner in
  let i = inst [ fact "R" [ 1; 2 ]; fact "R" [ 3; 1 ] ] in
  Alcotest.(check bool) "compose = apply twice" true
    (Instance.equal (View.apply composed i) (View.apply outer (View.apply inner i)))

let test_compose_capture () =
  (* binder names collide on purpose: inner uses x as a bound variable *)
  let inner = View.make [ ("T", [ "w" ], Fo.Exists ("x", Fo.atom "R" [ Fo.v "x"; Fo.v "w" ])) ] in
  let outer = View.make [ ("U", [ "x" ], Fo.atom "T" [ Fo.v "x" ]) ] in
  let composed = View.compose outer inner in
  let i = inst [ fact "R" [ 5; 9 ] ] in
  Alcotest.(check bool) "capture avoided" true
    (Instance.equal (View.apply composed i) (View.apply outer (View.apply inner i)));
  Alcotest.(check bool) "9 in output" true (Instance.mem (Fact.make "U" [ vi 9 ]) (View.apply composed i))

let test_compose_pushforward () =
  (* on a PDB: pushforward along the composite = pushforward twice — the
     FO(FO(TI)) = FO(TI) law at the distribution level *)
  let ti = Ti.Finite.make (Schema.make [ ("R", 2) ])
      [ (fact "R" [ 1; 2 ], Q.half); (fact "R" [ 2; 1 ], Q.of_ints 1 3) ]
  in
  let inner = View.make [ ("T", [ "x" ], Fo.Exists ("y", Fo.atom "R" [ Fo.v "x"; Fo.v "y" ])) ] in
  let outer = View.make [ ("U", [], Fo.Exists ("x", Fo.atom "T" [ Fo.v "x" ])) ] in
  let d = Ti.Finite.to_finite_pdb ti in
  let two_step = Finite_pdb.map_view outer (Finite_pdb.map_view inner d) in
  let one_step = Finite_pdb.map_view (View.compose outer inner) d in
  Alcotest.(check bool) "distributions equal" true (Finite_pdb.equal two_step one_step)

let test_compose_missing_relation () =
  let inner = View.make [ ("T", [ "x" ], Fo.atom "R" [ Fo.v "x" ]) ] in
  let outer = View.make [ ("U", [ "x" ], Fo.atom "S" [ Fo.v "x" ]) ] in
  Alcotest.check_raises "missing relation"
    (Invalid_argument "View.compose: relation S not defined by the inner view") (fun () ->
      ignore (View.compose outer inner))

(* ------------------------------------------------------------------ *)
(* Monte-Carlo estimation                                              *)
(* ------------------------------------------------------------------ *)

let test_estimate_finite () =
  let d =
    Finite_pdb.make (Schema.make [ ("R", 1) ])
      [ (inst [], Q.of_ints 1 4); (inst [ fact "R" [ 1 ] ], Q.of_ints 3 4) ]
  in
  let rng = Random.State.make [| 5 |] in
  let e =
    estimate_exn
      (Estimate.event_probability_finite ~samples:20000 ~rng d (fun i ->
           Instance.mem (fact "R" [ 1 ]) i))
  in
  Alcotest.(check bool) "interval contains truth" true (Interval.contains (Estimate.interval e) 0.75);
  Alcotest.(check bool) "tight-ish" true (e.Estimate.statistical_halfwidth < 0.03)

let test_estimate_ti_infinite () =
  (* P(R(1) present) = 1/2 in the geometric TI-PDB *)
  let ti =
    Ti.Infinite.make ~name:"geo" ~schema:(Schema.make [ ("R", 1) ])
      ~fact:(fun i -> fact "R" [ i ])
      ~marginal:(fun i -> Float.ldexp 1.0 (-i))
      ~start:1
      ~tail:(Ipdb_series.Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 })
      ()
  in
  let rng = Random.State.make [| 6 |] in
  let e =
    estimate_exn
      (Estimate.event_probability_ti ~samples:20000 ~truncate_at:30 ~rng ti (fun i ->
           Instance.mem (fact "R" [ 1 ]) i))
  in
  Alcotest.(check bool) "bias is the certified tail" true (e.Estimate.truncation_bias < 1e-8);
  Alcotest.(check bool) "contains 1/2" true (Interval.contains (Estimate.interval e) 0.5)

let test_estimate_bid_sentence () =
  (* P(DE count >= 1) = 1 - e^{-2.3} ≈ 0.8997 *)
  let rng = Random.State.make [| 7 |] in
  let phi =
    Fo.Exists ("n", Fo.And (Fo.atom "Accidents" [ Fo.cs "DE"; Fo.v "n" ], Fo.Not (Fo.Eq (Fo.v "n", Fo.ci 0))))
  in
  let e = estimate_exn (Estimate.sentence_probability_bid ~samples:8000 ~rng Zoo.car_accidents phi) in
  Alcotest.(check bool) "contains 1 - e^-2.3" true
    (Interval.contains (Estimate.interval e) (1.0 -. exp (-2.3)))

let test_hoeffding () =
  let hw ~samples ~delta =
    match Estimate.hoeffding_halfwidth ~samples ~delta with
    | Ok h -> h
    | Error e -> Alcotest.fail (Ipdb_run.Error.to_string e)
  in
  Alcotest.(check bool) "halfwidth shrinks" true
    (hw ~samples:10000 ~delta:0.01 < hw ~samples:100 ~delta:0.01);
  let is_validation what = function
    | Error (Ipdb_run.Error.Validation { what = w; _ }) -> w = what
    | _ -> false
  in
  Alcotest.(check bool) "bad delta is typed" true
    (is_validation "delta" (Estimate.hoeffding_halfwidth ~samples:10 ~delta:0.0));
  Alcotest.(check bool) "NaN delta is typed" true
    (is_validation "delta" (Estimate.hoeffding_halfwidth ~samples:10 ~delta:Float.nan));
  Alcotest.(check bool) "bad samples is typed" true
    (is_validation "samples" (Estimate.hoeffding_halfwidth ~samples:0 ~delta:0.01));
  let rng = Random.State.make [| 11 |] in
  let d =
    Finite_pdb.make (Schema.make [ ("R", 1) ]) [ (inst [ fact "R" [ 1 ] ], Q.one) ]
  in
  Alcotest.(check bool) "estimator rejects bad samples" true
    (is_validation "samples"
       (Estimate.event_probability_finite ~samples:(-3) ~rng d (fun _ -> true)))

(* ------------------------------------------------------------------ *)
(* PQE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cq_recognition () =
  let phi = Fo.exists_many [ "x"; "y" ] (Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "S" [ Fo.v "y" ])) in
  (match Pqe.cq_of_formula phi with
  | Some cq ->
    Alcotest.(check int) "two atoms" 2 (List.length cq.Pqe.atoms);
    Alcotest.(check bool) "sjf" true (Pqe.is_self_join_free cq);
    Alcotest.(check bool) "hierarchical" true (Pqe.is_hierarchical cq)
  | None -> Alcotest.fail "should parse");
  Alcotest.(check bool) "negation rejected" true
    (Pqe.cq_of_formula (Fo.Exists ("x", Fo.Not (Fo.atom "R" [ Fo.v "x" ]))) = None);
  Alcotest.(check bool) "free variable rejected" true
    (Pqe.cq_of_formula (Fo.atom "R" [ Fo.v "x" ]) = None)

let test_hierarchical_detection () =
  (* the hard query H0: R(x), S(x,y), T(y) is NOT hierarchical *)
  let h0 =
    Fo.exists_many [ "x"; "y" ]
      (Fo.conj [ Fo.atom "R" [ Fo.v "x" ]; Fo.atom "S" [ Fo.v "x"; Fo.v "y" ]; Fo.atom "T" [ Fo.v "y" ] ])
  in
  match Pqe.cq_of_formula h0 with
  | Some cq ->
    Alcotest.(check bool) "H0 not hierarchical" false (Pqe.is_hierarchical cq);
    (* and the lifted plan refuses it *)
    let ti =
      Ti.Finite.make
        (Schema.make [ ("R", 1); ("S", 2); ("T", 1) ])
        [ (fact "R" [ 1 ], Q.half); (fact "S" [ 1; 2 ], Q.half); (fact "T" [ 2 ], Q.half) ]
    in
    Alcotest.(check bool) "lifted refuses H0" true (lifted ti cq = None)
  | None -> Alcotest.fail "H0 should parse"

let test_lifted_simple () =
  (* q = ∃x R(x): P = 1 - (1-p1)(1-p2) *)
  let ti = Ti.Finite.make (Schema.make [ ("R", 1) ]) [ (fact "R" [ 1 ], Q.of_ints 1 3); (fact "R" [ 2 ], Q.of_ints 1 4) ] in
  let cq = Option.get (Pqe.cq_of_formula (Fo.Exists ("x", Fo.atom "R" [ Fo.v "x" ]))) in
  match lifted ti cq with
  | Some p ->
    Alcotest.(check q) "1-(2/3)(3/4)" Q.half p;
    Alcotest.(check q) "agrees with enumeration" (Pqe.boolean_probability_exact ti (Pqe.cq_to_formula cq)) p
  | None -> Alcotest.fail "safe query refused"

let test_lifted_join () =
  (* hierarchical join: ∃x∃y R(x,y) ∧ S(x) — atoms of y ⊆ atoms of x *)
  let ti =
    Ti.Finite.make
      (Schema.make [ ("R", 2); ("S", 1) ])
      [ (fact "R" [ 1; 2 ], Q.half);
        (fact "R" [ 1; 3 ], Q.of_ints 1 3);
        (fact "R" [ 2; 3 ], Q.of_ints 1 4);
        (fact "S" [ 1 ], Q.of_ints 2 3);
        (fact "S" [ 2 ], Q.of_ints 1 5)
      ]
  in
  let cq =
    Option.get
      (Pqe.cq_of_formula
         (Fo.exists_many [ "x"; "y" ] (Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "S" [ Fo.v "x" ]))))
  in
  Alcotest.(check bool) "hierarchical" true (Pqe.is_hierarchical cq);
  match lifted ti cq with
  | Some p ->
    Alcotest.(check q) "lifted = enumeration" (Pqe.boolean_probability_exact ti (Pqe.cq_to_formula cq)) p
  | None -> Alcotest.fail "hierarchical query refused"

let test_lifted_ground_and_constants () =
  let ti =
    Ti.Finite.make (Schema.make [ ("R", 2); ("S", 1) ])
      [ (fact "R" [ 1; 2 ], Q.half); (fact "S" [ 7 ], Q.of_ints 1 3) ]
  in
  (* ground conjunction *)
  let cq = Option.get (Pqe.cq_of_formula (Fo.And (Fo.atom "R" [ Fo.ci 1; Fo.ci 2 ], Fo.atom "S" [ Fo.ci 7 ]))) in
  (match lifted ti cq with
  | Some p -> Alcotest.(check q) "product of marginals" (Q.of_ints 1 6) p
  | None -> Alcotest.fail "ground query refused");
  (* constant inside a quantified atom *)
  let cq2 = Option.get (Pqe.cq_of_formula (Fo.Exists ("y", Fo.atom "R" [ Fo.ci 1; Fo.v "y" ]))) in
  match lifted ti cq2 with
  | Some p -> Alcotest.(check q) "constant arg" Q.half p
  | None -> Alcotest.fail "refused"

(* Random hierarchical queries vs enumeration. *)
let arb_ti_and_query =
  QCheck.make
    ~print:(fun (ti, phi) -> Format.asprintf "%a |= %s" Ti.Finite.pp ti (Fo.to_string phi))
    QCheck.Gen.(
      let* n_r = 1 -- 3 in
      let* n_s = 1 -- 3 in
      let* r_facts =
        list_size (return n_r)
          (let* a = 0 -- 2 in
           let* b = 0 -- 2 in
           let* den = 2 -- 6 in
           return (fact "R" [ a; b ], Q.of_ints 1 den))
      in
      let* s_facts =
        list_size (return n_s)
          (let* a = 0 -- 2 in
           let* den = 2 -- 6 in
           return (fact "S" [ a ], Q.of_ints 1 den))
      in
      let dedup facts =
        List.fold_left (fun acc (f, p) -> if List.mem_assoc f acc then acc else (f, p) :: acc) [] facts
      in
      let ti = Ti.Finite.make (Schema.make [ ("R", 2); ("S", 1) ]) (dedup (r_facts @ s_facts)) in
      let* shape = 0 -- 2 in
      let phi =
        match shape with
        | 0 -> Fo.exists_many [ "x"; "y" ] (Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "S" [ Fo.v "x" ]))
        | 1 -> Fo.Exists ("x", Fo.atom "S" [ Fo.v "x" ])
        | _ -> Fo.exists_many [ "x"; "y" ] (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ])
      in
      return (ti, phi))

let lifted_vs_enumeration =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"lifted PQE = enumeration on hierarchical queries" arb_ti_and_query
       (fun (ti, phi) ->
         let cq = Option.get (Pqe.cq_of_formula phi) in
         match lifted ti cq with
         | Some p -> Q.equal p (Pqe.boolean_probability_exact ti phi)
         | None -> false))

let () =
  Alcotest.run "extensions"
    [ ( "view-compose",
        [ Alcotest.test_case "basic" `Quick test_compose_basic;
          Alcotest.test_case "capture avoidance" `Quick test_compose_capture;
          Alcotest.test_case "pushforward law" `Quick test_compose_pushforward;
          Alcotest.test_case "missing relation" `Quick test_compose_missing_relation
        ] );
      ( "estimate",
        [ Alcotest.test_case "finite PDB" `Quick test_estimate_finite;
          Alcotest.test_case "infinite TI" `Quick test_estimate_ti_infinite;
          Alcotest.test_case "BID sentence" `Quick test_estimate_bid_sentence;
          Alcotest.test_case "hoeffding" `Quick test_hoeffding
        ] );
      ( "pqe",
        [ Alcotest.test_case "CQ recognition" `Quick test_cq_recognition;
          Alcotest.test_case "hierarchical detection (H0)" `Quick test_hierarchical_detection;
          Alcotest.test_case "single atom" `Quick test_lifted_simple;
          Alcotest.test_case "hierarchical join" `Quick test_lifted_join;
          Alcotest.test_case "ground + constants" `Quick test_lifted_ground_and_constants;
          lifted_vs_enumeration
        ] )
    ]
