(* Tests for the representability criteria (Sections 3, 5.1, 6) on the
   paper's zoo of examples. *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Instance = Ipdb_relational.Instance
module Fo = Ipdb_logic.Fo
module View = Ipdb_logic.View
module Interval = Ipdb_series.Interval
module Series = Ipdb_series.Series
module Finite_pdb = Ipdb_pdb.Finite_pdb
module Ti = Ipdb_pdb.Ti
module Bid = Ipdb_pdb.Bid
module Family = Ipdb_pdb.Family
module Criteria = Ipdb_core.Criteria
module Idb = Ipdb_core.Idb
module Zoo = Ipdb_core.Zoo
module Classifier = Ipdb_core.Classifier

let vi n = Value.Int n
let fact r args = Fact.make r (List.map vi args)
let inst facts = Instance.of_list facts

let expect_finite name = function
  | Criteria.Finite_sum enclosure -> enclosure
  | v -> Alcotest.failf "%s: expected finite, got %s" name (Criteria.verdict_to_string v)

let expect_infinite name = function
  | Criteria.Infinite_sum { partial; at } ->
    ignore at;
    partial
  | v -> Alcotest.failf "%s: expected infinite, got %s" name (Criteria.verdict_to_string v)

let get_cert name = function Some c -> c | None -> Alcotest.failf "%s: missing certificate" name

(* ------------------------------------------------------------------ *)
(* Example 3.5: E(|.|) = 3, E(|.|^2) = ∞                               *)
(* ------------------------------------------------------------------ *)

let test_ex35_moments () =
  let cf = Zoo.example_3_5 in
  let m1 =
    expect_finite "E|.|"
      (Criteria.moment_verdict cf.Zoo.family ~k:1 ~cert:(get_cert "k=1" (cf.Zoo.moment_cert 1)) ~upto:40)
  in
  Alcotest.(check bool) "E(|.|) = 3 (paper)" true (Interval.contains m1 3.0);
  Alcotest.(check bool) "tight" true (Interval.width m1 < 1e-6);
  let partial =
    expect_infinite "E|.|^2"
      (Criteria.moment_verdict cf.Zoo.family ~k:2
         ~cert:(get_cert "k=2" (cf.Zoo.moment_cert 2))
         ~upto:cf.Zoo.check_upto)
  in
  (* each term is exactly 3 *)
  Alcotest.(check bool) "partial = 3 * terms" true (partial > 150.0)

let test_ex35_total_probability () =
  match Family.total_probability Zoo.example_3_5.Zoo.family ~upto:60 with
  | Ok s -> Alcotest.(check bool) "total = 1" true (Interval.contains s 1.0 && Interval.width s < 1e-9)
  | Error e -> Alcotest.fail e

let test_ex35_exact_truncation () =
  (* exact weights: 3/4 + 3/16 + 3/64 + ... *)
  let d = Family.truncate_exact Zoo.example_3_5.Zoo.family ~n:3 in
  let q = Alcotest.testable Q.pp Q.equal in
  Alcotest.(check q) "P(D_1 | first 3)" (Q.of_ints 16 21)
    (Finite_pdb.prob d (Zoo.example_3_5.Zoo.family.Family.instance 1))

let test_ex35_classified () =
  match Classifier.classify Zoo.example_3_5 with
  | Classifier.Not_in_FOTI (Classifier.Infinite_moment { k; _ }) ->
    Alcotest.(check int) "second moment kills it" 2 k
  | v -> Alcotest.failf "wrong verdict: %s" (Classifier.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Example 3.9: all moments finite, not in FO(TI)                      *)
(* ------------------------------------------------------------------ *)

let test_ex39_moments_finite () =
  let cf = Zoo.example_3_9 in
  List.iter
    (fun k ->
      let m =
        expect_finite
          (Printf.sprintf "E|.|^%d" k)
          (Criteria.moment_verdict cf.Zoo.family ~k ~cert:(get_cert "moment" (cf.Zoo.moment_cert k)) ~upto:5000)
      in
      Alcotest.(check bool) (Printf.sprintf "moment %d positive and finite" k) true (Interval.lo m >= 0.0))
    [ 1; 2; 3; 4 ]

let test_ex39_thm53_diverges () =
  let cf = Zoo.example_3_9 in
  List.iter
    (fun c ->
      let partial =
        expect_infinite
          (Printf.sprintf "thm53 c=%d" c)
          (Criteria.theorem53_verdict cf.Zoo.family ~c ~cert:(get_cert "thm53" (cf.Zoo.thm53_cert c)) ~upto:5000)
      in
      Alcotest.(check bool) "grows" true (partial > 0.0))
    [ 1; 2; 3 ]

let test_ex39_lemma37_refutation () =
  (* For every candidate arity r, eventually every n violates the
     Lemma 3.7 inequality — the Example 3.9 / Theorem 3.10 argument. *)
  let prob, adom, a = Zoo.example_3_9_lemma37_data () in
  (* The violation threshold grows with the candidate arity r (the paper
     needs ⌈log n⌉ >= 3r² + r): test each r on a window past its own
     threshold. *)
  List.iter
    (fun (r, lo) ->
      match Criteria.lemma37_refutation ~prob ~adom_size:adom ~a ~rs:[ r ] ~range:(lo, lo + 1000) with
      | [ (_, violations) ] ->
        Alcotest.(check int) (Printf.sprintf "all n violate for r=%d" r) 1001 violations
      | _ -> Alcotest.fail "unexpected shape")
    [ (1, 1 lsl 10); (2, 1 lsl 15); (3, 1 lsl 31); (4, 1 lsl 53) ];
  (* conversely, below the threshold the bound is still satisfied: no
     contradiction arises from small prefixes alone *)
  match Criteria.lemma37_refutation ~prob ~adom_size:adom ~a ~rs:[ 3 ] ~range:(1024, 2048) with
  | [ (_, violations) ] -> Alcotest.(check int) "r=3 not yet violated at small n" 0 violations
  | _ -> Alcotest.fail "unexpected shape"

let test_ex39_domain_disjoint () =
  Alcotest.(check bool) "domain disjoint (Lemma 3.7 hypothesis)" true
    (Family.domain_disjoint_on Zoo.example_3_9.Zoo.family ~upto:200)

(* ------------------------------------------------------------------ *)
(* Example 5.5: unbounded size, in FO(TI) via Theorem 5.3              *)
(* ------------------------------------------------------------------ *)

let test_ex55_thm53_converges () =
  let cf = Zoo.example_5_5 in
  let s =
    expect_finite "thm53 c=1"
      (Criteria.theorem53_verdict cf.Zoo.family ~c:1 ~cert:(get_cert "c=1" (cf.Zoo.thm53_cert 1)) ~upto:200)
  in
  (* the paper bounds the c=1 criterion sum by 2/x *)
  let x = Interval.midpoint Zoo.example_5_5_normalizer in
  Alcotest.(check bool) "below the paper's 2/x bound" true (Interval.hi s <= (2.0 /. x) +. 1e-9)

let test_ex55_unbounded () =
  Alcotest.(check bool) "size unbounded" false
    (Family.bounded_size_on Zoo.example_5_5.Zoo.family ~upto:50 ~bound:49)

let test_ex55_classified () =
  match Classifier.classify Zoo.example_5_5 with
  | Classifier.In_FOTI (Classifier.Theorem53 { c; _ }) -> Alcotest.(check int) "c = 1 suffices" 1 c
  | v -> Alcotest.failf "wrong verdict: %s" (Classifier.verdict_to_string v)

let test_ex55_normalizer () =
  Alcotest.(check bool) "x in (0,1)" true
    (Interval.lo Zoo.example_5_5_normalizer > 0.56 && Interval.hi Zoo.example_5_5_normalizer < 0.57)

(* ------------------------------------------------------------------ *)
(* Example 5.6 / Prop. D.2: TI-PDB violating the Thm 5.3 criterion     *)
(* ------------------------------------------------------------------ *)

let test_ex56_well_defined () =
  match Ti.Infinite.well_defined Zoo.example_5_6_ti ~upto:4000 with
  | Ok s ->
    (* Σ 1/(i²+1) ≈ 1.0767; in particular finite: a legal TI-PDB (Thm 2.4) *)
    Alcotest.(check bool) "marginal sum finite" true (Interval.hi s < 1.1 && Interval.lo s > 1.0)
  | Error e -> Alcotest.fail e

let test_ex56_moments () =
  (match Ti.Infinite.expected_size Zoo.example_5_6_ti ~upto:4000 with
  | Ok s -> Alcotest.(check bool) "expected size finite" true (Interval.hi s < 1.1)
  | Error e -> Alcotest.fail e);
  match Ti.Infinite.moment_upper_bound Zoo.example_5_6_ti ~k:4 ~upto:4000 with
  | Ok b -> Alcotest.(check bool) "4th moment bounded (Prop 3.2)" true (Float.is_finite b)
  | Error e -> Alcotest.fail e

let test_ex56_criterion_diverges () =
  (* the grouped minorant of Prop. D.2 diverges for each c *)
  let z = Zoo.z_enclosure ~upto:2000 in
  Alcotest.(check bool) "Z in (0,1)" true (Interval.lo z > 0.0 && Interval.hi z < 1.0);
  List.iter
    (fun c ->
      match Zoo.propD2_divergence_cert ~c ~z_lo:(Interval.lo z) with
      | Criteria.Divergence certificate -> (
        match
          Series.certify_divergence ~start:1
            (Zoo.propD2_grouped_term ~c ~z_lo:(Interval.lo z))
            ~certificate ~upto:120
        with
        | Ok (Series.Diverges { partial; _ }) ->
          Alcotest.(check bool) (Printf.sprintf "c=%d grouped sum explodes" c) true (partial > 1e6)
        | Ok _ | Error _ -> Alcotest.failf "c=%d: certificate rejected" c)
      | Criteria.Tail _ -> Alcotest.fail "expected divergence certificate")
    [ 1; 2; 3 ]

let test_propD3_criterion_diverges () =
  let z = Zoo.z_enclosure ~upto:2000 in
  List.iter
    (fun c ->
      match Zoo.propD3_divergence_cert ~c ~z_lo:(Interval.lo z) with
      | Criteria.Divergence certificate -> (
        match
          Series.certify_divergence ~start:1
            (Zoo.propD3_grouped_term ~c ~z_lo:(Interval.lo z))
            ~certificate ~upto:120
        with
        | Ok (Series.Diverges _) -> ()
        | Ok _ | Error _ -> Alcotest.failf "c=%d: certificate rejected" c)
      | Criteria.Tail _ -> Alcotest.fail "expected divergence certificate")
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Lemma 3.3: views preserve finite moments                            *)
(* ------------------------------------------------------------------ *)

let test_binomial () =
  let qt = Alcotest.testable Q.pp Q.equal in
  Alcotest.(check qt) "C(5,2)" (Q.of_int 10) (Criteria.binomial 5 2);
  Alcotest.(check qt) "C(n,0)" Q.one (Criteria.binomial 7 0);
  Alcotest.(check qt) "out of range" Q.zero (Criteria.binomial 3 5)

let test_lemma33_bound_concrete () =
  let schema = Schema.make [ ("R", 2) ] in
  let ti, view = Zoo.example_b3 in
  let d = Ti.Finite.to_finite_pdb ti in
  let image = Finite_pdb.map_view view d in
  List.iter
    (fun k ->
      let bound =
        Criteria.lemma33_bound ~view ~input_schema:schema ~input_moment:(Finite_pdb.moment d) ~k
      in
      Alcotest.(check bool)
        (Printf.sprintf "image E|.|^%d <= Lemma 3.3 bound" k)
        true
        (Q.leq (Finite_pdb.moment image k) bound))
    [ 1; 2; 3 ]

let lemma33_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"Lemma 3.3 bound on generated PDBs + monotone views"
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000))
       (fun seed ->
         let st = Ipdb_pdb.Generate.rng seed in
         let schema = Schema.make [ ("R", 2); ("S", 1) ] in
         let d = Ipdb_pdb.Generate.finite_pdb st ~schema ~worlds:3 ~max_size:3 ~universe:4 in
         let view = Ipdb_pdb.Generate.monotone_view st ~input_schema:schema in
         let image = Finite_pdb.map_view view d in
         List.for_all
           (fun k ->
             Q.leq (Finite_pdb.moment image k)
               (Criteria.lemma33_bound ~view ~input_schema:schema ~input_moment:(Finite_pdb.moment d) ~k))
           [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Lemma 3.6: the edge-cover bound on concrete TI-PDBs and views       *)
(* ------------------------------------------------------------------ *)

let lemma36_holds ti view world =
  let data = Criteria.lemma36_bound ~ti ~view ~world in
  match data.Criteria.exact_lhs with
  | None -> true
  | Some lhs -> Q.to_float lhs <= data.Criteria.bound +. 1e-12

let test_lemma36_identity () =
  let ti =
    Ti.Finite.make (Schema.make [ ("R", 1) ])
      [ (fact "R" [ 1 ], Q.of_ints 1 3); (fact "R" [ 2 ], Q.of_ints 1 5) ]
  in
  let view = View.identity (Schema.make [ ("R", 1) ]) in
  List.iter
    (fun world -> Alcotest.(check bool) "bound holds" true (lemma36_holds ti view world))
    [ inst []; inst [ fact "R" [ 1 ] ]; inst [ fact "R" [ 1 ]; fact "R" [ 2 ] ] ]

let test_lemma36_join_view () =
  let ti, view = Zoo.example_b3 in
  let expanded = Ti.Finite.to_finite_pdb ti in
  let image = Finite_pdb.map_view view expanded in
  List.iter
    (fun (world, _) -> Alcotest.(check bool) "bound holds on B.3" true (lemma36_holds ti view world))
    (Finite_pdb.support image)

let arb_ti_world =
  QCheck.make
    ~print:(fun (ti, w) -> Format.asprintf "%a world %s" Ti.Finite.pp ti (Instance.to_string w))
    QCheck.Gen.(
      let* n = 1 -- 5 in
      let* dens = list_size (return n) (2 -- 9) in
      let facts = List.mapi (fun i d -> (fact "R" [ i; i + d ], Q.of_ints 1 d)) dens in
      let ti = Ti.Finite.make (Schema.make [ ("R", 2) ]) facts in
      let* world_bits = int_bound ((1 lsl n) - 1) in
      let world =
        inst (List.filteri (fun i _ -> world_bits land (1 lsl i) <> 0) (List.map fst facts))
      in
      return (ti, world))

let lemma36_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"Lemma 3.6 bound on random TI + identity view" arb_ti_world
       (fun (ti, world) -> lemma36_holds ti (View.identity (Schema.make [ ("R", 2) ])) world))

let test_minimal_cover_sum () =
  (* the intermediate bound of the proof:
     Pr(every v in V appears) <= Σ over minimal covers of Π q_e *)
  let ti =
    Ti.Finite.make (Schema.make [ ("R", 2) ])
      [ (fact "R" [ 1; 2 ], Q.of_ints 1 2); (fact "R" [ 2; 3 ], Q.of_ints 1 3); (fact "R" [ 1; 3 ], Q.of_ints 1 5) ]
  in
  let target = [ vi 1; vi 2; vi 3 ] in
  let cover_sum = Criteria.minimal_cover_sum ~ti ~target in
  let expanded = Ti.Finite.to_finite_pdb ti in
  let prob_covered =
    Finite_pdb.prob_event expanded (fun i ->
        List.for_all (fun v -> List.exists (Value.equal v) (Instance.adom i)) target)
  in
  Alcotest.(check bool) "edge-cover bound" true (Q.leq prob_covered cover_sum)

(* ------------------------------------------------------------------ *)
(* Section 6: IDBs                                                     *)
(* ------------------------------------------------------------------ *)

let test_observation_62 () =
  (* V(IDB(D)) = IDB(V(D)) on a finite PDB *)
  let d =
    Finite_pdb.make (Schema.make [ ("R", 1) ])
      [ (inst [], Q.of_ints 1 4);
        (inst [ fact "R" [ 1 ] ], Q.of_ints 1 4);
        (inst [ fact "R" [ 1 ]; fact "R" [ 2 ] ], Q.half)
      ]
  in
  let v = View.make [ ("T", [], Fo.Exists ("x", Fo.atom "R" [ Fo.v "x" ])) ] in
  let lhs =
    List.sort_uniq Instance.compare (List.map (View.apply v) (Idb.induced_of_finite d))
  in
  let rhs = List.sort_uniq Instance.compare (Idb.induced_of_finite (Finite_pdb.map_view v d)) in
  Alcotest.(check bool) "Observation 6.2" true (List.equal Instance.equal lhs rhs)

let test_prop64 () =
  let d = Bid.Finite.to_finite_pdb Zoo.example_b2 in
  (match Idb.prop64_obstruction d with
  | Some w ->
    Alcotest.(check bool) "distinct facts" true (not (Fact.equal w.Idb.fact1 w.Idb.fact2))
  | None -> Alcotest.fail "expected an exclusion witness");
  (* a TI expansion has no exclusion witness *)
  let ti = Ti.Finite.make (Schema.make [ ("R", 1) ]) [ (fact "R" [ 1 ], Q.half); (fact "R" [ 2 ], Q.half) ] in
  Alcotest.(check bool) "TI has none" true (Idb.prop64_obstruction (Ti.Finite.to_finite_pdb ti) = None)

let sizes_idb name sizes_fn =
  Idb.make ~name
    ~schema:(Schema.make [ ("R", 1) ])
    ~instance:(fun n -> inst (List.init (sizes_fn n) (fun j -> fact "R" [ (1000 * n) + j ])))
    ~size:sizes_fn ~start:1 ()

let test_lemma65 () =
  (* an IDB with gappy sizes (powers of two) still underlies an FO(TI) PDB *)
  let idb = sizes_idb "gappy" (fun n -> 1 lsl n) in
  let fam = Idb.lemma65_family idb in
  (match Family.total_probability fam ~upto:60 with
  | Ok s -> Alcotest.(check bool) "probabilities sum to 1" true (Interval.contains s 1.0)
  | Error e -> Alcotest.fail e);
  (* the Theorem 5.3 series converges with the lemma's certificate *)
  match Criteria.theorem53_verdict fam ~c:1 ~cert:(Idb.lemma65_criterion_cert idb ~upto:60) ~upto:60 with
  | Criteria.Finite_sum _ -> ()
  | v -> Alcotest.failf "lemma 6.5 series: %s" (Criteria.verdict_to_string v)

let test_lemma65_weights () =
  let q = Alcotest.testable Q.pp Q.equal in
  Alcotest.(check q) "x_i exact" (Q.of_ints 1 64) (Idb.lemma65_weight ~size:2 ~index:2);
  Alcotest.(check q) "empty world weight" Q.one (Idb.lemma65_weight ~size:0 ~index:5)

let test_lemma66 () =
  let idb = sizes_idb "growing" (fun n -> n) in
  ignore Idb.lemma66_divergence_cert;
  let fam = Idb.lemma66_family idb ~subsequence_upto:50 in
  (match Family.total_probability fam ~upto:4000 with
  | Ok s -> Alcotest.(check bool) "sums to 1" true (Interval.contains s 1.0)
  | Error e -> Alcotest.fail e);
  (* expected size diverges with the harmonic-subsequence certificate *)
  match Criteria.moment_verdict fam ~k:1 ~cert:(Idb.lemma66_divergence_cert_for idb) ~upto:3000 with
  | Criteria.Infinite_sum { partial; _ } -> Alcotest.(check bool) "partial grows" true (partial > 2.0)
  | v -> Alcotest.failf "expected divergence: %s" (Criteria.verdict_to_string v)

let test_theorem67 () =
  (* bounded IDB: first branch *)
  (match Idb.theorem67 (sizes_idb "bounded" (fun n -> 1 + (n mod 3))) ~upto:100 with
  | Idb.Bounded_hence_representable b -> Alcotest.(check int) "bound 3" 3 b
  | Idb.Unbounded_hence_undetermined _ -> Alcotest.fail "misclassified bounded IDB");
  (* unbounded IDB: both witnesses *)
  match Idb.theorem67 (sizes_idb "growing" (fun n -> n)) ~upto:100 with
  | Idb.Unbounded_hence_undetermined { in_foti; not_in_foti } ->
    Alcotest.(check bool) "same sample space" true
      (Instance.equal (in_foti.Family.instance 7) (not_in_foti.Family.instance 7))
  | Idb.Bounded_hence_representable _ -> Alcotest.fail "misclassified unbounded IDB"

(* ------------------------------------------------------------------ *)
(* Classifier agreement with the paper                                 *)
(* ------------------------------------------------------------------ *)

let test_zoo_certificates_validate () =
  (* hygiene: every family's own probability-tail certificate must validate
     over (a large slice of) its declared horizon, and total mass must be 1 *)
  List.iter
    (fun (name, cf) ->
      let horizon = Stdlib.min cf.Zoo.check_upto 3000 in
      match Family.total_probability cf.Zoo.family ~upto:horizon with
      | Ok enclosure ->
        Alcotest.(check bool) (name ^ " total probability contains 1") true
          (Interval.contains enclosure 1.0)
      | Error m -> Alcotest.failf "%s: probability certificate failed: %s" name m)
    Zoo.all_families

(* A family's [size] shortcut must agree with the instance it stands
   for: the series terms read |D_n| through [Family.size] without
   materialising D_n. *)
let test_zoo_sizes_match_instances () =
  List.iter
    (fun (name, cf) ->
      let fam = cf.Zoo.family in
      for n = fam.Family.start to fam.Family.start + 10 do
        Alcotest.(check int)
          (Printf.sprintf "%s: size %d" name n)
          (Instance.size (fam.Family.instance n))
          (Family.size fam n)
      done)
    Zoo.all_families

let test_domain_overlap () =
  Alcotest.(check int) "disjoint family has overlap 1" 1
    (Family.max_domain_overlap_on Zoo.example_5_5.Zoo.family ~upto:20);
  (* a family whose worlds all share one element: overlap = prefix length *)
  let shared =
    Family.make ~name:"shared" ~schema:(Schema.make [ ("R", 1) ])
      ~instance:(fun n -> inst [ fact "R" [ 0 ]; fact "R" [ n ] ])
      ~prob:(fun n -> Float.ldexp 1.0 (-n))
      ~start:1
      ~prob_tail:(Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 })
      ()
  in
  Alcotest.(check int) "shared element counted (Remark 3.8)" 10
    (Family.max_domain_overlap_on shared ~upto:10)

let test_classifier_agreement () =
  List.iter
    (fun (name, cf) ->
      let v = Classifier.classify cf in
      Alcotest.(check bool) (name ^ " verdict consistent with the paper") true
        (Classifier.agrees_with_paper cf v))
    Zoo.all_families

let test_classifier_bounded () =
  match Classifier.classify Zoo.sensor_bounded with
  | Classifier.In_FOTI (Classifier.Bounded_size 2) -> ()
  | v -> Alcotest.failf "wrong verdict: %s" (Classifier.verdict_to_string v)

let test_classifier_ex39_undetermined () =
  (* the generic criteria alone cannot decide Example 3.9 — the paper needs
     the bespoke Lemma 3.7 argument *)
  match Classifier.classify Zoo.example_3_9 with
  | Classifier.Undetermined _ -> ()
  | v -> Alcotest.failf "expected undetermined, got: %s" (Classifier.verdict_to_string v)

let () =
  Alcotest.run "criteria"
    [ ( "example-3.5",
        [ Alcotest.test_case "moments" `Quick test_ex35_moments;
          Alcotest.test_case "total probability" `Quick test_ex35_total_probability;
          Alcotest.test_case "exact truncation" `Quick test_ex35_exact_truncation;
          Alcotest.test_case "classified out of FO(TI)" `Quick test_ex35_classified
        ] );
      ( "example-3.9",
        [ Alcotest.test_case "moments finite" `Quick test_ex39_moments_finite;
          Alcotest.test_case "thm 5.3 series diverges" `Quick test_ex39_thm53_diverges;
          Alcotest.test_case "Lemma 3.7 refutation" `Quick test_ex39_lemma37_refutation;
          Alcotest.test_case "domain disjoint" `Quick test_ex39_domain_disjoint
        ] );
      ( "example-5.5",
        [ Alcotest.test_case "criterion converges" `Quick test_ex55_thm53_converges;
          Alcotest.test_case "unbounded size" `Quick test_ex55_unbounded;
          Alcotest.test_case "classified into FO(TI)" `Quick test_ex55_classified;
          Alcotest.test_case "normalizer enclosure" `Quick test_ex55_normalizer
        ] );
      ( "example-5.6-and-D",
        [ Alcotest.test_case "well-defined TI (Thm 2.4)" `Quick test_ex56_well_defined;
          Alcotest.test_case "finite moments (Prop 3.2)" `Quick test_ex56_moments;
          Alcotest.test_case "criterion diverges (Prop D.2)" `Quick test_ex56_criterion_diverges;
          Alcotest.test_case "BID analogue (Prop D.3)" `Quick test_propD3_criterion_diverges
        ] );
      ( "lemma-3.3",
        [ Alcotest.test_case "binomials" `Quick test_binomial;
          Alcotest.test_case "Example B.3 bound" `Quick test_lemma33_bound_concrete;
          lemma33_random
        ] );
      ( "lemma-3.6",
        [ Alcotest.test_case "identity view" `Quick test_lemma36_identity;
          Alcotest.test_case "join view (B.3)" `Quick test_lemma36_join_view;
          lemma36_random;
          Alcotest.test_case "minimal cover sum" `Quick test_minimal_cover_sum
        ] );
      ( "section-6",
        [ Alcotest.test_case "Observation 6.2" `Quick test_observation_62;
          Alcotest.test_case "Proposition 6.4" `Quick test_prop64;
          Alcotest.test_case "Lemma 6.5" `Quick test_lemma65;
          Alcotest.test_case "Lemma 6.5 weights" `Quick test_lemma65_weights;
          Alcotest.test_case "Lemma 6.6" `Quick test_lemma66;
          Alcotest.test_case "Theorem 6.7 dichotomy" `Quick test_theorem67
        ] );
      ( "classifier",
        [ Alcotest.test_case "zoo certificates validate" `Quick test_zoo_certificates_validate;
          Alcotest.test_case "family sizes match their instances" `Quick test_zoo_sizes_match_instances;
          Alcotest.test_case "domain overlap (Remark 3.8)" `Quick test_domain_overlap;
          Alcotest.test_case "agreement with the paper" `Quick test_classifier_agreement;
          Alcotest.test_case "bounded shortcut" `Quick test_classifier_bounded;
          Alcotest.test_case "Example 3.9 stays open" `Quick test_classifier_ex39_undetermined
        ] )
    ]
