(* Experiment harness: regenerates every figure and quantitative claim of
   the paper (see DESIGN.md §3 for the experiment index) and attaches
   Bechamel timings to the constructions.

   The paper is a theory paper: its "tables and figures" are the two Hasse
   diagrams (Figures 1 and 4) whose edges are theorems and whose non-edges
   are counterexamples, plus the named examples. Each experiment below
   prints the machine-checked verdict next to the paper's claim; the
   Bechamel section times the constructions as a function of input size.

   Run with: dune exec bench/main.exe *)

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
module Finite_complete = Ipdb_core.Finite_complete
module Decondition = Ipdb_core.Decondition
module Segmentation = Ipdb_core.Segmentation
module Bid_repr = Ipdb_core.Bid_repr
module Criteria = Ipdb_core.Criteria
module Idb = Ipdb_core.Idb
module Zoo = Ipdb_core.Zoo
module Classifier = Ipdb_core.Classifier
module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Journal = Ipdb_run.Journal
module Supervisor = Ipdb_run.Supervisor
module Pool = Ipdb_par.Pool
module Reduce = Ipdb_par.Reduce
module Metrics = Ipdb_obs.Metrics
module Sink = Ipdb_obs.Sink
module Trace = Ipdb_obs.Trace
module OJson = Ipdb_obs.Json

(* Budget ledger: every budget an experiment creates is registered on the
   domain that runs the experiment body, so after the attempt the harness
   can report exactly how many series steps the experiment consumed
   (Σ Budget.steps_used over its budgets). Budgets are created on the
   experiment task's domain even when their steps are later charged from
   pool workers — steps_used is per-budget and exact either way. *)
let budget_ledger : Budget.t list ref option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Per-experiment deadline for the heavy certified-series checks: a hung or
   mis-certified series degrades to a reported Partial verdict instead of
   wedging the whole suite. *)
let series_budget () =
  let b = Budget.make ~timeout:10.0 () in
  (match Domain.DLS.get budget_ledger with
  | Some ledger -> ledger := b :: !ledger
  | None -> ());
  b

let vi n = Value.Int n
let fact r args = Fact.make r (List.map vi args)
let inst facts = Instance.of_list facts
let schema_r1 = Schema.make [ ("R", 1) ]

(* Experiments run as pool tasks, so their report text cannot go through
   process-wide stdout redirection: concurrent experiments would
   interleave. Instead each domain carries its own output sink — a buffer
   while an experiment body runs, stdout otherwise — and [capture] swaps
   the sink around the body. The saved sink is restored afterwards, so a
   caller that executes queued experiments while waiting (the pool's
   help-while-waiting discipline) gets its own sink back. *)
let out_sink : Buffer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let out_string str =
  match Domain.DLS.get out_sink with
  | Some buf -> Buffer.add_string buf str
  | None -> print_string str

let capture f =
  let buf = Buffer.create 4096 in
  let saved = Domain.DLS.get out_sink in
  Domain.DLS.set out_sink (Some buf);
  let result = try Ok (f ()) with e -> Error e in
  Domain.DLS.set out_sink saved;
  (Buffer.contents buf, result)

let section title =
  out_string "\n================================================================\n";
  out_string (title ^ "\n");
  out_string "================================================================\n"

let row fmt = Printf.ksprintf out_string fmt
let ok b = if b then "OK " else "FAIL"

(* A small pool of finite PDBs parameterised by world count, used by several
   construction sweeps. *)
let random_pdb ~worlds ~max_size seed =
  let rng = Random.State.make [| seed; worlds; max_size |] in
  let make_world i =
    let size = Random.State.int rng (max_size + 1) in
    inst (List.init size (fun j -> fact "R" [ (100 * i) + j ]))
  in
  let weighted =
    List.init worlds (fun i -> (make_world i, Q.of_int (1 + Random.State.int rng 9)))
  in
  Finite_pdb.make_unnormalized schema_r1 weighted

(* ------------------------------------------------------------------ *)
(* Figure 1: the finite Hasse diagram                                   *)
(* ------------------------------------------------------------------ *)

let exp_f1 () =
  section "Figure 1 — finite PDB classes (each edge/non-edge machine-checked)";

  (* F1-c: PDB_fin = FO(TI_fin), the completeness theorem [51] *)
  row "  [F1-c] PDB_fin = FO(TI_fin): completeness construction, exact equality\n";
  List.iter
    (fun worlds ->
      let d = random_pdb ~worlds ~max_size:3 worlds in
      let repr = Finite_complete.represent d in
      let verified = Finite_complete.verify d repr in
      row "     worlds=%2d  selector facts=%2d  verified=%s\n" (Finite_pdb.num_worlds d)
        (List.length (Ti.Finite.facts repr.Finite_complete.ti))
        (ok verified))
    [ 2; 4; 6; 8 ];

  (* F1-a: TI ⊊ BID via Example B.2 *)
  let b2 = Bid.Finite.to_finite_pdb Zoo.example_b2 in
  row "  [F1-a] Example B.2 (one block, two 1/2-facts):\n";
  row "     maximal worlds = %d (monotone views of TI have exactly 1, Prop B.1)  %s\n"
    (List.length (Finite_pdb.maximal_worlds b2))
    (ok (List.length (Finite_pdb.maximal_worlds b2) = 2));
  row "     tuple-independent? %b (paper: no)  mutually-exclusive pair found: %s\n"
    (Finite_pdb.is_tuple_independent b2)
    (ok (Idb.prop64_obstruction b2 <> None));

  (* F1-b: Example B.3, CQ image neither TI nor BID *)
  let ti, view = Zoo.example_b3 in
  let image = Finite_pdb.map_view view (Ti.Finite.to_finite_pdb ti) in
  row "  [F1-b] Example B.3 (Φ = ∃y R(x,y)∧R(y,z) over 2-fact TI): image worlds\n";
  List.iter
    (fun (w, p) -> row "     P(%s) = %s\n" (Instance.to_string w) (Q.to_string p))
    (Finite_pdb.support image);
  row "     image is TI? %b   image is BID (any partition)? %b   (paper: no, no)\n"
    (Finite_pdb.is_tuple_independent image)
    (let t = Fact.make "T" [ Value.Str "a"; Value.Str "b" ]
     and t' = Fact.make "T" [ Value.Str "a"; Value.Str "a" ] in
     Finite_pdb.is_bid image ~blocks:[ [ t ]; [ t' ] ] || Finite_pdb.is_bid image ~blocks:[ [ t; t' ] ]);

  (* F1-d: Prop B.4 — monotone views collapse to CQ *)
  let repr = Finite_complete.monotone_to_cq ti view in
  let rebuilt =
    Finite_pdb.map_view repr.Finite_complete.view (Ti.Finite.to_finite_pdb repr.Finite_complete.ti)
  in
  row "  [F1-d] Prop B.4: CQ(TI) view rebuilt from a monotone view; CQ? %b  exact? %s\n"
    (View.is_cq repr.Finite_complete.view)
    (ok (Finite_pdb.equal rebuilt image));

  (* F1-e: the other completeness edge, PDB_fin = CQ(BID_fin) *)
  row "  [F1-e] PDB_fin = CQ(BID_fin) ([16,42]): world-selector block + tabulation\n";
  List.iter
    (fun worlds ->
      let d = random_pdb ~worlds ~max_size:3 (worlds + 31) in
      let repr = Finite_complete.represent_cq_bid d in
      row "     worlds=%2d  blocks=%2d  verified=%s\n" (Finite_pdb.num_worlds d)
        (List.length (Bid.Finite.blocks repr.Finite_complete.bid))
        (ok (Finite_complete.verify_cq_bid d repr)))
    [ 2; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* Figure 4 / Theorem 4.1                                               *)
(* ------------------------------------------------------------------ *)

let exp_thm41 () =
  section "Theorem 4.1 — FO(TI | FO) = FO(TI): the deconditioning construction";
  row "  condition                         k   J-facts  q0          exact\n";
  let run name input =
    let out = Decondition.decondition input in
    let verified = Decondition.verify input out in
    row "  %-32s %2d   %4d    %-10s  %s\n" name out.Decondition.copies
      (List.length (Ti.Finite.facts out.Decondition.ti'))
      (Q.to_decimal_string ~digits:4 out.Decondition.q0)
      (ok verified)
  in
  let ti2 = Ti.Finite.make schema_r1 [ (fact "R" [ 1 ], Q.half); (fact "R" [ 2 ], Q.of_ints 1 3) ] in
  run "∃x R(x)" { Decondition.ti = ti2; condition = Fo.Exists ("x", Fo.atom "R" [ Fo.v "x" ]); view = View.identity schema_r1 };
  run "¬(R(1) ∧ R(2))  [exclusivity]"
    {
      Decondition.ti = Ti.Finite.make schema_r1 [ (fact "R" [ 1 ], Q.half); (fact "R" [ 2 ], Q.half) ];
      condition = Fo.Not (Fo.And (Fo.atom "R" [ Fo.ci 1 ], Fo.atom "R" [ Fo.ci 2 ]));
      view = View.identity schema_r1;
    };
  run "R(1) [rare event, larger k]"
    {
      Decondition.ti = Ti.Finite.make schema_r1 [ (fact "R" [ 1 ], Q.of_ints 1 5); (fact "R" [ 2 ], Q.of_ints 1 7) ];
      condition = Fo.atom "R" [ Fo.ci 1 ];
      view = View.identity schema_r1;
    };
  run "True [no conditioning]"
    { Decondition.ti = ti2; condition = Fo.True; view = View.identity schema_r1 }

(* ------------------------------------------------------------------ *)
(* Figure 4 / Theorem 5.9                                               *)
(* ------------------------------------------------------------------ *)

let exp_thm59 () =
  section "Theorem 5.9 — BID ⊆ FO(TI): the block-identifier construction";
  row "  BID                         blocks  facts  residual-0 blocks  exact\n";
  let run name bid =
    let out = Bid_repr.represent bid in
    let blocks = Bid.Finite.blocks bid in
    row "  %-27s %4d   %4d        %4d           %s\n" name (List.length blocks)
      (List.length (Ti.Finite.facts out.Bid_repr.ti))
      (List.length (List.filter (fun b -> Q.is_zero (Bid.Finite.residual b)) blocks))
      (ok (Bid_repr.verify bid out))
  in
  run "Example B.2" Zoo.example_b2;
  run "Prop D.3 (3 blocks)" (Zoo.propD3_truncation ~blocks:3);
  run "2 blocks, one residual-0"
    (Bid.Finite.make schema_r1
       [ [ (fact "R" [ 1 ], Q.half); (fact "R" [ 2 ], Q.half) ]; [ (fact "R" [ 3 ], Q.of_ints 1 4) ] ]);
  let car_small, tv = Bid.Infinite.truncate Zoo.car_accidents ~n:2 in
  let out = Bid_repr.represent car_small in
  row "  car-accidents (counts<=2)  %4d   %4d        (TV to full PDB <= %.2f)  %s\n"
    (List.length (Bid.Finite.blocks car_small))
    (List.length (Ti.Finite.facts out.Bid_repr.ti))
    tv
    (ok (Bid_repr.verify car_small out))

(* ------------------------------------------------------------------ *)
(* Figure 4 / Corollary 5.4 and Lemma 5.1                               *)
(* ------------------------------------------------------------------ *)

let exp_cor54 () =
  section "Corollary 5.4 / Lemma 5.1 — segmentation (bounded size => exact FO(TI|FO))";
  row "  input                      c   seg-facts  exact-marginals  verdict\n";
  let run name d c =
    let out = Segmentation.segment ~c d in
    if out.Segmentation.exact then
      row "  %-26s %2d     %3d        yes            %s (exact)\n" name c
        (List.length (Ti.Finite.facts out.Segmentation.ti))
        (ok (Segmentation.verify_exact d out))
    else begin
      let tv = Segmentation.verify_tv d out in
      row "  %-26s %2d     %3d        no (roots)     TV=%.2e %s\n" name c
        (List.length (Ti.Finite.facts out.Segmentation.ti))
        tv
        (ok (tv < 1e-9))
    end
  in
  let d3 = random_pdb ~worlds:3 ~max_size:3 7 in
  let max_size = List.fold_left (fun a (w, _) -> Stdlib.max a (Instance.size w)) 1 (Finite_pdb.support d3) in
  run "random 3-world PDB" d3 max_size;
  run "same, c=1 (chains)" d3 1;
  run "sensor truncation n=4" (Family.truncate_exact Zoo.sensor_bounded.Zoo.family ~n:4) 2;
  run "Example 5.5 trunc n=3" (Family.truncate_exact Zoo.example_5_5.Zoo.family ~n:3) 1

(* ------------------------------------------------------------------ *)
(* Example 3.5                                                          *)
(* ------------------------------------------------------------------ *)

let exp_ex35 () =
  section "Example 3.5 — |D_i| = 2^i, P = 3·4^{-i}: finite mean, infinite variance";
  let cf = Zoo.example_3_5 in
  (match Criteria.moment_verdict cf.Zoo.family ~k:1 ~cert:(Option.get (cf.Zoo.moment_cert 1)) ~upto:50 with
  | Criteria.Finite_sum e ->
    row "  E(|D|)   ∈ [%.9f, %.9f]   paper: = 3        %s\n" (Interval.lo e) (Interval.hi e)
      (ok (Interval.contains e 3.0))
  | _ -> row "  E(|D|): unexpected verdict\n");
  (match Criteria.moment_verdict cf.Zoo.family ~k:2 ~cert:(Option.get (cf.Zoo.moment_cert 2)) ~upto:50 with
  | Criteria.Infinite_sum { partial; at } ->
    row "  E(|D|²)  = ∞ certified (every term = 3; partial %.0f after %d terms)   paper: = ∞\n" partial at
  | _ -> row "  E(|D|²): unexpected verdict\n");
  row "  Proposition 3.4 ⟹ not in FO(TI). Classifier: %s\n"
    (Classifier.verdict_to_string (Classifier.classify cf))

(* ------------------------------------------------------------------ *)
(* Example 3.9 + Lemma 3.7                                              *)
(* ------------------------------------------------------------------ *)

let exp_ex39 () =
  section "Example 3.9 — d_n = ⌈log n⌉, P = c/n²: finite moments but not in FO(TI)";
  let cf = Zoo.example_3_9 in
  List.iter
    (fun k ->
      match
        Criteria.moment_verdict ~budget:(series_budget ()) cf.Zoo.family ~k
          ~cert:(Option.get (cf.Zoo.moment_cert k)) ~upto:20000
      with
      | Criteria.Finite_sum e -> row "  E(|D|^%d) ∈ [%.6f, %.6f] — finite, as the paper computes\n" k (Interval.lo e) (Interval.hi e)
      | v -> row "  E(|D|^%d): %s\n" k (Criteria.verdict_to_string v))
    [ 1; 2; 3; 4 ];
  row "  Lemma 3.7 refutation (a_n = 1/n): violations of the required bound\n";
  let prob, adom, a = Zoo.example_3_9_lemma37_data () in
  List.iter
    (fun (r, lo) ->
      match Criteria.lemma37_refutation ~prob ~adom_size:adom ~a ~rs:[ r ] ~range:(lo, lo + 1000) with
      | [ (_, v) ] ->
        row "    r=%d: %4d/1001 indices starting at 2^%.0f violate it  %s\n" r v
          (Float.round (log (float_of_int lo) /. log 2.0))
          (ok (v = 1001))
      | _ -> ())
    [ (1, 1 lsl 10); (2, 1 lsl 15); (3, 1 lsl 31); (4, 1 lsl 53) ];
  row "  (for every arity r the inequality eventually always fails ⟹ no FO(TI) representation)\n"

(* ------------------------------------------------------------------ *)
(* Lemma 3.6                                                            *)
(* ------------------------------------------------------------------ *)

let exp_lem36 () =
  section "Lemma 3.6 — edge-cover bound vs. exact world probability";
  row "  instance (of B.3's image)        |Vn|  Σq(En)    exact P     bound      holds\n";
  let ti, view = Zoo.example_b3 in
  let image = Finite_pdb.map_view view (Ti.Finite.to_finite_pdb ti) in
  List.iter
    (fun (world, _) ->
      let d = Criteria.lemma36_bound ~ti ~view ~world in
      match d.Criteria.exact_lhs with
      | Some lhs ->
        row "  %-32s %2d    %-8s  %-10s  %-9.4g  %s\n" (Instance.to_string world) d.Criteria.vn_size
          (Q.to_decimal_string ~digits:4 d.Criteria.en_mass)
          (Q.to_decimal_string ~digits:6 lhs)
          d.Criteria.bound
          (ok (Q.to_float lhs <= d.Criteria.bound +. 1e-12))
      | None -> ())
    (Finite_pdb.support image);
  (* random sweep *)
  let rng = Random.State.make [| 11 |] in
  let failures = ref 0 and total = ref 0 in
  for _ = 1 to 50 do
    let n = 1 + Random.State.int rng 5 in
    let facts = List.init n (fun i -> (fact "R" [ i; i + 1 + Random.State.int rng 3 ], Q.of_ints 1 (2 + Random.State.int rng 7))) in
    let ti = Ti.Finite.make (Schema.make [ ("R", 2) ]) facts in
    let expanded = Ti.Finite.to_finite_pdb ti in
    List.iter
      (fun (world, _) ->
        incr total;
        let d = Criteria.lemma36_bound ~ti ~view:(View.identity (Schema.make [ ("R", 2) ])) ~world in
        match d.Criteria.exact_lhs with
        | Some lhs -> if Q.to_float lhs > d.Criteria.bound +. 1e-12 then incr failures
        | None -> ())
      (Finite_pdb.support expanded)
  done;
  row "  random sweep: %d world/TI pairs checked, %d bound violations  %s\n" !total !failures (ok (!failures = 0))

(* ------------------------------------------------------------------ *)
(* Example 5.5                                                          *)
(* ------------------------------------------------------------------ *)

let exp_ex55 () =
  section "Example 5.5 — |D_i| = i, P = 2^{-i²}/x: unbounded size, in FO(TI)";
  let cf = Zoo.example_5_5 in
  let x = Zoo.example_5_5_normalizer in
  row "  x = Σ 2^{-i²} ∈ [%.12f, %.12f]\n" (Interval.lo x) (Interval.hi x);
  (match Criteria.theorem53_verdict cf.Zoo.family ~c:1 ~cert:(Option.get (cf.Zoo.thm53_cert 1)) ~upto:300 with
  | Criteria.Finite_sum e ->
    row "  Σ |D|·P^{1/|D|} ∈ [%.9f, %.9f]   paper bound: 2/x = %.9f   %s\n" (Interval.lo e)
      (Interval.hi e)
      (2.0 /. Interval.midpoint x)
      (ok (Interval.hi e <= 2.0 /. Interval.lo x))
  | _ -> row "  criterion: unexpected verdict\n");
  row "  Theorem 5.3 with c=1 ⟹ in FO(TI). Classifier: %s\n"
    (Classifier.verdict_to_string (Classifier.classify cf))

(* ------------------------------------------------------------------ *)
(* Example 5.6 / Propositions D.2 and D.3                               *)
(* ------------------------------------------------------------------ *)

let exp_ex56 () =
  section "Example 5.6 / Prop D.2, D.3 — the gap: in FO(TI) but Thm 5.3 fails";
  (match Ti.Infinite.well_defined Zoo.example_5_6_ti ~upto:20000 with
  | Ok s -> row "  TI marginals 1/(i²+1): Σ ∈ [%.6f, %.6f] < ∞ (legal TI-PDB, Thm 2.4)\n" (Interval.lo s) (Interval.hi s)
  | Error e -> row "  error: %s\n" e);
  let z = Zoo.z_enclosure ~upto:20000 in
  row "  Z = Π(1-p_i) ∈ [%.6f, %.6f]\n" (Interval.lo z) (Interval.hi z);
  row "  grouped minorant of the Thm 5.3 series (diverges for every c):\n";
  List.iter
    (fun c ->
      match Zoo.propD2_divergence_cert ~c ~z_lo:(Interval.lo z) with
      | Criteria.Divergence certificate -> (
        match
          Series.certify_divergence ~start:1 (Zoo.propD2_grouped_term ~c ~z_lo:(Interval.lo z)) ~certificate ~upto:100
        with
        | Ok (Series.Diverges { partial; at; _ }) ->
          row "    D.2 (TI):  c=%d  partial %.3e after %d terms — certified divergent\n" c partial at
        | _ -> row "    D.2: c=%d certificate rejected\n" c)
      | _ -> ())
    [ 1; 2; 3 ];
  List.iter
    (fun c ->
      match Zoo.propD3_divergence_cert ~c ~z_lo:(Interval.lo z) with
      | Criteria.Divergence certificate -> (
        match
          Series.certify_divergence ~start:1 (Zoo.propD3_grouped_term ~c ~z_lo:(Interval.lo z)) ~certificate ~upto:100
        with
        | Ok (Series.Diverges { partial; at; _ }) ->
          row "    D.3 (BID): c=%d  partial %.3e after %d terms — certified divergent\n" c partial at
        | _ -> row "    D.3: c=%d certificate rejected\n" c)
      | _ -> ())
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Section 6                                                            *)
(* ------------------------------------------------------------------ *)

let exp_sec6 () =
  section "Theorem 6.7 — no logical reasons: the IDB dichotomy";
  let idb_of name sizes =
    Idb.make ~name ~schema:schema_r1
      ~instance:(fun n -> inst (List.init (Stdlib.min (sizes n) 10_000) (fun j -> fact "R" [ (100000 * n) + j ])))
      ~size:sizes ~start:1 ()
  in
  List.iter
    (fun (name, sizes) ->
      let idb = idb_of name sizes in
      match Idb.theorem67 idb ~upto:80 with
      | Idb.Bounded_hence_representable b ->
        row "  %-16s bounded by %d ⟹ every probability assignment is in FO(TI) (Cor 5.4)\n" name b
      | Idb.Unbounded_hence_undetermined { in_foti; not_in_foti } ->
        let l65 =
          match
            Criteria.theorem53_verdict ~budget:(series_budget ()) in_foti ~c:1
              ~cert:(Idb.lemma65_criterion_cert idb ~upto:60) ~upto:60
          with
          | Criteria.Finite_sum e -> Printf.sprintf "Thm5.3 sum ∈ [%.4f,%.4f]" (Interval.lo e) (Interval.hi e)
          | v -> Criteria.verdict_to_string v
        in
        let l66 =
          match
            Criteria.moment_verdict ~budget:(series_budget ()) not_in_foti ~k:1
              ~cert:(Idb.lemma66_divergence_cert_for idb) ~upto:1200
          with
          | Criteria.Infinite_sum { partial; _ } -> Printf.sprintf "E|D| = ∞ (partial %.2f)" partial
          | v -> Criteria.verdict_to_string v
        in
        row "  %-16s unbounded ⟹ Lemma 6.5 PDB in FO(TI) (%s); Lemma 6.6 PDB out (%s)\n" name l65 l66)
    [ ("mod-3 sizes", (fun n -> 1 + (n mod 3)));
      ("linear sizes", (fun n -> n));
      ("quadratic sizes", (fun n -> n * n));
      ("sparse growth", (fun n -> if n mod 7 = 0 then n / 7 else 1))
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 2.4 and Proposition 3.2                                      *)
(* ------------------------------------------------------------------ *)

let exp_thm24 () =
  section "Theorem 2.4 — TI existence iff Σ marginals < ∞; Prop 3.2 — TI moments";
  let convergent =
    Ti.Infinite.make ~name:"p-series" ~schema:schema_r1
      ~fact:(fun i -> fact "R" [ i ])
      ~marginal:(fun i -> 1.0 /. (float_of_int i ** 2.5))
      ~start:1
      ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.5 })
      ()
  in
  (match Ti.Infinite.well_defined convergent ~upto:5000 with
  | Ok s -> row "  marginals 1/i^2.5: Σ ∈ [%.6f, %.6f] < ∞ ⟹ TI-PDB exists\n" (Interval.lo s) (Interval.hi s)
  | Error e -> row "  error: %s\n" e);
  (* a divergent marginal stream is rejected: no such TI-PDB *)
  let divergent_term i = 1.0 /. float_of_int i in
  (match
     Series.certify_divergence ~start:1 divergent_term
       ~certificate:(Series.Divergence.Harmonic { index = 1; coeff = 1.0 })
       ~upto:5000
   with
  | Ok (Series.Diverges { partial; _ }) ->
    row "  marginals 1/i: divergence certified (partial %.2f) ⟹ no TI-PDB with these marginals\n" partial
  | _ -> row "  divergence certificate failed\n");
  (* Prop 3.2 + Lemma C.1 on finite TI: exact moments vs the recurrence bound *)
  let ti =
    Ti.Finite.make schema_r1
      [ (fact "R" [ 1 ], Q.of_ints 1 3); (fact "R" [ 2 ], Q.of_ints 1 4); (fact "R" [ 3 ], Q.of_ints 2 5) ]
  in
  let d = Ti.Finite.to_finite_pdb ti in
  let e1 = Finite_pdb.expected_size d in
  row "  finite TI (3 facts): E|D| = %s = Σ marginals %s\n" (Q.to_string e1)
    (ok (Q.equal e1 (Ti.Finite.expected_size ti)));
  let rec chain k bound =
    if k > 4 then ()
    else begin
      let mk = Finite_pdb.moment d k in
      row "    E|D|^%d = %-12s <= Lemma C.1 bound %-12s %s\n" k (Q.to_string mk) (Q.to_string bound)
        (ok (Q.leq mk bound));
      chain (k + 1) (Q.mul bound (Q.add (Q.of_int k) e1))
    end
  in
  chain 1 e1

(* ------------------------------------------------------------------ *)
(* Classifier sweep                                                     *)
(* ------------------------------------------------------------------ *)

let exp_classifier ~pool () =
  section "Classifier sweep — the FO(TI) boundary as the paper draws it";
  List.iter
    (fun (name, cf) ->
      let v = Classifier.classify ~pool ~budget:(series_budget ()) cf in
      row "  %-16s %-72s agrees-with-paper=%s\n" name (Classifier.verdict_to_string v)
        (ok (Classifier.agrees_with_paper cf v)))
    Zoo.all_families

(* ------------------------------------------------------------------ *)
(* Query answering: lifted vs intensional vs enumeration               *)
(* ------------------------------------------------------------------ *)

let exp_pqe () =
  section "PQE on TI-PDBs — lifted plan vs lineage (Shannon) vs enumeration";
  let module Pqe = Ipdb_pdb.Pqe in
  let module Lineage = Ipdb_pdb.Lineage in
  (* the extensional plan of Ipdb_kb.Lifted over the TI-PDB's facts;
     [None] when the query has no safe plan *)
  let lifted_plan ti cq = Result.get_ok (Ipdb_kb.Lifted.ucq_probability (Ipdb_kb.Store.of_ti ti) [ cq ]) in
  (* growing chain TI-PDBs; query q = ∃x∃y R(x,y) ∧ S(x) (hierarchical) *)
  let schema = Schema.make [ ("R", 2); ("S", 1) ] in
  let make_ti n =
    Ti.Finite.make schema
      (List.init n (fun i -> (fact "R" [ i; i + 1 ], Q.of_ints 1 (i + 2)))
      @ List.init n (fun i -> (fact "S" [ i ], Q.of_ints 1 (i + 3))))
  in
  let q =
    Fo.exists_many [ "x"; "y" ] (Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "S" [ Fo.v "x" ]))
  in
  let cq = Option.get (Pqe.cq_of_formula q) in
  row "  q = ∃x∃y R(x,y) ∧ S(x): all three methods, exact agreement\n";
  row "  facts   lifted P(q)          lineage-vars  methods-agree\n";
  List.iter
    (fun n ->
      let ti = make_ti n in
      let lifted = Option.get (lifted_plan ti cq) in
      let lin = Lineage.of_sentence ti q in
      let vars = List.length (Lineage.vars lin) in
      let shannon = if vars <= Lineage.max_vars then Some (Lineage.probability ti lin) else None in
      let enum =
        if 2 * n <= Ipdb_pdb.Worlds.max_uncertain then Some (Pqe.boolean_probability_exact ti q) else None
      in
      let agree =
        List.for_all (function Some p -> Q.equal p lifted | None -> true) [ shannon; enum ]
      in
      row "  %4d    %-20s %4d          %s\n" (2 * n)
        (Q.to_decimal_string ~digits:8 lifted)
        vars (ok agree))
    [ 2; 4; 8; 12; 40 ];
  (* the non-hierarchical H0: lifted refuses, lineage computes *)
  let ti = make_ti 6 in
  let h0 =
    Fo.exists_many [ "x"; "y" ]
      (Fo.conj [ Fo.atom "S" [ Fo.v "x" ]; Fo.atom "R" [ Fo.v "x"; Fo.v "y" ]; Fo.atom "S" [ Fo.v "y" ] ])
  in
  (match Pqe.cq_of_formula h0 with
  | Some cq0 ->
    row "  H0-shaped query: lifted plan refuses (non-hierarchical): %s\n"
      (ok (lifted_plan ti cq0 = None))
  | None -> ());
  let lin = Lineage.of_sentence ti h0 in
  let p_lin = Lineage.probability ti lin in
  let p_enum = Pqe.boolean_probability_exact ti h0 in
  row "  ... but lineage + Shannon answers it exactly: P = %s  (enumeration agrees: %s)\n"
    (Q.to_decimal_string ~digits:8 p_lin)
    (ok (Q.equal p_lin p_enum));
  (* Proposition 3.2 beyond the enumeration gate: exact Poisson-binomial
     moments of a 150-fact TI-PDB *)
  let big = make_ti 75 in
  let m2 = Ipdb_pdb.Moments.moment big 2 in
  let chain = Ipdb_pdb.Moments.lemma_c1_chain big ~k:4 in
  row "  Prop 3.2 beyond the 2^n gate: 150-fact TI, exact E|D|² = %s\n" (Q.to_decimal_string ~digits:6 m2);
  row "  Lemma C.1 chain holds at k=1..4: %s\n"
    (ok (List.for_all (fun (m, b) -> Q.leq m b) chain))

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                  *)
(* ------------------------------------------------------------------ *)

let run_bechamel tests =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Bechamel.Analyze.OLS.estimates v with
      | Some [ est ] -> row "  %-52s %14.0f ns/run\n" name est
      | _ -> row "  %-52s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let ablation_section () =
  section "Ablations — design choices quantified";
  let open Bechamel in
  (* (1) Karatsuba vs schoolbook multiplication: exact probabilities in the
     constructions multiply thousand-bit rationals. *)
  let module Nat = Ipdb_bignum.Nat in
  let big_a = Nat.pow (Nat.of_string "123456789123456789") 600 in
  let big_b = Nat.pow (Nat.of_string "987654321987654321") 600 in
  row "  multiplication of two %d-bit naturals (Karatsuba engages above %d limbs):\n"
    (Nat.bit_length big_a) Nat.karatsuba_threshold;
  run_bechamel
    (Test.make_grouped ~name:"mul"
       [ Test.make ~name:"karatsuba" (Staged.stage (fun () -> Nat.mul big_a big_b));
         Test.make ~name:"schoolbook" (Staged.stage (fun () -> Nat.mul_classical big_a big_b))
       ]);
  (* (2) Optimised vs reference FO evaluation on a construction formula. *)
  let seg = Segmentation.segment ~c:2 (random_pdb ~worlds:3 ~max_size:4 99) in
  let world =
    let rng = Random.State.make [| 1 |] in
    Ti.Finite.sample seg.Segmentation.ti rng
  in
  let phi = seg.Segmentation.condition in
  row "  evaluating the Lemma 5.1 chain-completeness condition on a sampled world:\n";
  run_bechamel
    (Test.make_grouped ~name:"eval"
       [ Test.make ~name:"atom-driven (default)"
           (Staged.stage (fun () -> Ipdb_logic.Eval.holds world phi));
         Test.make ~name:"reference (naive domains)"
           (Staged.stage (fun () -> Ipdb_logic.Eval.holds_naive world phi))
       ]);
  (* (2b) View application: tuple-at-a-time FO evaluation vs the compiled
     algebra plan, on a join view over growing instances. *)
  let join_view =
    View.make
      [ ("T", [ "x"; "z" ],
         Fo.Exists ("y", Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "R" [ Fo.v "y"; Fo.v "z" ]))) ]
  in
  let chain n = inst (List.init n (fun i -> fact "R" [ i; i + 1 ])) in
  row "  applying a join view (T(x,z) := ∃y R(x,y) ∧ R(y,z)) to an n-edge chain:\n";
  List.iter
    (fun n ->
      let i = chain n in
      let fo_out = View.apply join_view i in
      let plan_out = Result.get_ok (Ipdb_logic.Plan.apply_view i join_view) in
      row "    n=%3d  outputs agree: %s\n" n (ok (Instance.equal fo_out plan_out)))
    [ 8; 16 ];
  let i16 = chain 16 in
  run_bechamel
    (Test.make_grouped ~name:"view-apply"
       [ Test.make ~name:"FO evaluator (tuple-at-a-time)" (Staged.stage (fun () -> View.apply join_view i16));
         Test.make ~name:"algebra plan (set-at-a-time)"
           (Staged.stage (fun () -> Ipdb_logic.Plan.apply_view i16 join_view))
       ]);
  (* (3) Segmentation capacity: fewer, wider facts vs more, narrower ones. *)
  let d = random_pdb ~worlds:4 ~max_size:6 123 in
  row "  segmentation capacity sweep (4 worlds, sizes <= 6):\n";
  row "    c   seg-facts  fact-arity  exact-marginals\n";
  List.iter
    (fun c ->
      let out = Segmentation.segment ~c d in
      row "    %d      %2d        %2d          %b\n" c
        (List.length (Ti.Finite.facts out.Segmentation.ti))
        (Schema.max_arity (Ti.Finite.schema out.Segmentation.ti))
        out.Segmentation.exact)
    [ 1; 2; 3; 6 ];
  (* (4) Theorem 4.1: the number of copies k grows as the distinguished
     world's probability p0 shrinks — the construction's cost driver. *)
  row "  deconditioning cost vs the distinguished world's probability p0:\n";
  row "    p0          k   J-facts\n";
  List.iter
    (fun den ->
      let ti =
        Ti.Finite.make schema_r1
          [ (fact "R" [ 1 ], Q.of_ints 1 den); (fact "R" [ 2 ], Q.of_ints 1 den) ]
      in
      let input = { Decondition.ti; condition = Fo.True; view = View.identity schema_r1 } in
      let out = Decondition.decondition ~max_copies:64 input in
      row "    %-10s %2d     %3d\n"
        (Q.to_decimal_string ~digits:4 out.Decondition.p0)
        out.Decondition.copies
        (List.length (Ti.Finite.facts out.Decondition.ti')))
    [ 2; 3; 5; 9 ]

(* ------------------------------------------------------------------ *)
(* Bechamel timings                                                     *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  section "Bechamel timings (ns/run, OLS estimate) — construction costs";
  let open Bechamel in
  let pdb4 = random_pdb ~worlds:4 ~max_size:3 42 in
  let ti2 = Ti.Finite.make schema_r1 [ (fact "R" [ 1 ], Q.half); (fact "R" [ 2 ], Q.of_ints 1 3) ] in
  let decond_input =
    { Decondition.ti = ti2; condition = Fo.Exists ("x", Fo.atom "R" [ Fo.v "x" ]); view = View.identity schema_r1 }
  in
  let bid3 = Zoo.propD3_truncation ~blocks:3 in
  let b3_ti, b3_view = Zoo.example_b3 in
  let tests =
    Test.make_grouped ~name:"constructions"
      [ Test.make ~name:"finite-completeness(4 worlds)" (Staged.stage (fun () -> Finite_complete.represent pdb4));
        Test.make ~name:"decondition(2 facts)" (Staged.stage (fun () -> Decondition.decondition decond_input));
        Test.make ~name:"segmentation(c=max)" (Staged.stage (fun () -> Segmentation.bounded_size_representation pdb4));
        Test.make ~name:"bid-repr(3 blocks)" (Staged.stage (fun () -> Bid_repr.represent bid3));
        Test.make ~name:"monotone-to-cq(B.3)" (Staged.stage (fun () -> Finite_complete.monotone_to_cq b3_ti b3_view));
        Test.make ~name:"lemma36-bound(B.3 world)"
          (Staged.stage (fun () ->
               Criteria.lemma36_bound ~ti:b3_ti ~view:b3_view
                 ~world:(Instance.of_list [ Fact.make "T" [ Value.Str "a"; Value.Str "a" ] ])));
        Test.make ~name:"classify(example 5.5)" (Staged.stage (fun () -> Classifier.classify ~upto:300 Zoo.example_5_5))
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> row "  %-44s %12.0f ns/run\n" name est
      | _ -> row "  %-44s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let exp_figures ~pool () =
  section "The Hasse diagrams, re-verified edge by edge";
  out_string (Ipdb_core.Figure.to_text (Ipdb_core.Figure.figure1 ~pool ()));
  out_string "\n";
  out_string (Ipdb_core.Figure.to_text (Ipdb_core.Figure.figure4 ~pool ()))

(* ------------------------------------------------------------------ *)
(* Crash-safe resumable series                                          *)
(* ------------------------------------------------------------------ *)

(* A deliberately long certified summation that checkpoints its exact
   cross-iteration state into the journal every [progress_every] terms.
   Killed mid-run and resumed, it restarts from the last snapshot and
   — because the engine is a sequential left fold restored exactly —
   prints the bit-identical enclosure an uninterrupted run prints. All
   resume chatter goes to stderr so the stdout report compares equal. *)
let exp_resumable ~pool ~load_ckpt ~save_ckpt () =
  section "Crash-safe resumable series — checkpointed exact summation";
  let restore key =
    match load_ckpt key with
    | None -> None
    | Some s -> (
      match Series.Snapshot.of_string s with
      | Ok snap ->
        Printf.eprintf "  [resumable-series] %s: resuming from snapshot %s\n%!" key
          (Format.asprintf "%a" Series.Snapshot.pp snap);
        Some snap
      | Error msg ->
        Printf.eprintf "  [resumable-series] %s: ignoring damaged snapshot (%s)\n%!" key msg;
        None)
  in
  let progress key snap = save_ckpt key (Series.Snapshot.to_string snap) in
  (* (1) a convergent p-series summed over a long prefix *)
  let p = 2.5 in
  let upto = 3_000_000 in
  (match
     Series.sum_resumable ~pool ~start:1 ?from:(restore "sum-p2.5")
       ~progress:(progress "sum-p2.5") ~progress_every:150_000
       (fun i -> 1.0 /. (float_of_int i ** p))
       ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p })
       ~upto
   with
  | Ok (Series.Complete e, _) ->
    row "  Σ 1/i^2.5 over %d terms + analytic tail ∈ [%.17g, %.17g]\n" upto (Interval.lo e)
      (Interval.hi e)
  | Ok (Series.Exhausted _, _) -> row "  Σ 1/i^2.5: unexpected exhaustion (no budget was set)\n"
  | Error e -> row "  Σ 1/i^2.5: %s\n" (Run_error.to_string e));
  (* (2) a divergence certificate validated over a long prefix *)
  let upto_d = 1_500_000 in
  match
    Series.certify_divergence_resumable ~pool ~start:1 ?from:(restore "div-harmonic")
      ~progress:(progress "div-harmonic") ~progress_every:150_000
      (fun i -> 1.0 /. float_of_int i)
      ~certificate:(Series.Divergence.Harmonic { index = 1; coeff = 1.0 })
      ~upto:upto_d
  with
  | Ok (Series.Div_complete { partial; at }, _) ->
    row "  Σ 1/i: divergence certified on %d terms, witness partial %.17g\n" at partial
  | Ok (Series.Div_exhausted _, _) -> row "  Σ 1/i: unexpected exhaustion (no budget was set)\n"
  | Error e -> row "  Σ 1/i: %s\n" (Run_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Crash-safe driver: journal, resume, supervised experiments           *)
(* ------------------------------------------------------------------ *)

type run_cfg = {
  journal_path : string option;
  resume : bool;
  only : string list option;
  jobs : int option;
  json : string option;
  trace : string option;
  metrics : bool;
}

let usage_exit () =
  prerr_endline
    "usage: bench [--journal FILE] [--resume] [--only name,name,...] [--jobs N] [--json FILE] \
     [--trace FILE] [--metrics]";
  exit 2

let parse_argv () =
  let journal = ref None and resume = ref false and only = ref None in
  let jobs = ref None and json = ref None in
  let trace = ref None and metrics = ref false in
  let rec go = function
    | [] -> ()
    | "--journal" :: path :: rest ->
      journal := Some path;
      go rest
    | "--resume" :: rest ->
      resume := true;
      go rest
    | "--only" :: names :: rest ->
      only := Some (List.filter (fun s -> s <> "") (String.split_on_char ',' names));
      go rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j > 0 ->
        jobs := Some j;
        go rest
      | _ ->
        Printf.eprintf "bench: --jobs expects a positive integer, got %s\n" n;
        usage_exit ())
    | "--json" :: path :: rest ->
      json := Some path;
      go rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      go rest
    | "--metrics" :: rest ->
      metrics := true;
      go rest
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %s\n" arg;
      usage_exit ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !resume && !journal = None then begin
    Printf.eprintf "bench: --resume requires --journal FILE\n";
    usage_exit ()
  end;
  { journal_path = !journal;
    resume = !resume;
    only = !only;
    jobs = !jobs;
    json = !json;
    trace = !trace;
    metrics = !metrics
  }

(* Journal record payloads: "done <name> <ok|failed>\n<captured report>"
   for a finished experiment, "ckpt <key>\n<snapshot>" for an exact series
   snapshot. The journal framing makes the whole payload (newlines
   included) one atomic, checksummed record. *)
let split_record payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i -> (String.sub payload 0 i, String.sub payload (i + 1) (String.length payload - i - 1))

let recovered_state path =
  match Journal.recover ~path with
  | Error e ->
    Printf.eprintf "bench: cannot read journal %s: %s\n" path (Run_error.to_string e);
    exit 4
  | Ok { Journal.records; tail } ->
    (match tail with
    | Journal.Clean -> ()
    | Journal.Torn { line; reason } ->
      Printf.eprintf "bench: journal torn at line %d (%s); resuming from the valid prefix\n%!" line
        reason);
    let completed = Hashtbl.create 16 and ckpts = Hashtbl.create 16 in
    List.iter
      (fun payload ->
        let header, body = split_record payload in
        match String.split_on_char ' ' header with
        | [ "done"; name; status ] -> Hashtbl.replace completed name (status, body)
        | [ "ckpt"; key ] -> Hashtbl.replace ckpts key body
        | _ -> Printf.eprintf "bench: ignoring unknown journal record %S\n" header)
      records;
    (completed, ckpts)

(* What running one experiment (possibly on a worker domain) produced. The
   ordered fold on the main domain turns outcomes into journal records and
   printed report text in the canonical experiment order, so the report and
   the journal's "done" sequence are identical for every worker count. *)
type outcome =
  | Skipped
  | Replayed of { status : string; output : string }
  | Ran of { status : string; output : string; seconds : float; steps : int }

let run_experiment ~completed ~wanted (name, f) =
  if not (wanted name) then Skipped
  else
    match Hashtbl.find_opt completed name with
    | Some (status, output) -> Replayed { status; output }
    | None ->
      let t0 = Unix.gettimeofday () in
      (* One supervisor per task: the retry/quarantine bookkeeping is a
         Hashtbl, which must not be shared across worker domains. *)
      let sup = Supervisor.create () in
      let last_output = ref "" in
      let steps = ref 0 in
      let attempt () =
        (* A fresh ledger per attempt: a retried experiment reports only
           the steps of the attempt that produced its verdict. *)
        let ledger = ref [] in
        let saved = Domain.DLS.get budget_ledger in
        Domain.DLS.set budget_ledger (Some ledger);
        let output, result = capture f in
        Domain.DLS.set budget_ledger saved;
        steps := List.fold_left (fun acc b -> acc + Budget.steps_used b) 0 !ledger;
        last_output := output;
        match result with Ok () -> Ok output | Error e -> Error (Run_error.of_exn e)
      in
      let supervised () =
        match Supervisor.run sup ~task:name attempt with
        | Supervisor.Done output -> (output, "ok")
        | Supervisor.Failed { error; attempts } ->
          ( Printf.sprintf "%s\n  [%s] experiment aborted after %d attempt(s): %s\n" !last_output
              name attempts (Run_error.to_string error),
            "failed" )
        | Supervisor.Quarantined { failures } ->
          ( Printf.sprintf "\n  [%s] quarantined after %d consecutive failures\n" name failures,
            "failed" )
      in
      let output, status =
        Trace.with_span "bench.experiment" ~attrs:[ ("name", OJson.String name) ] (fun () ->
            let ((_, status) as r) = supervised () in
            Trace.annotate [ ("status", OJson.String status); ("steps", OJson.Int !steps) ];
            r)
      in
      Ran { status; output; seconds = Unix.gettimeofday () -. t0; steps = !steps }

let () =
  let cfg = parse_argv () in
  let completed, ckpts =
    match cfg.journal_path with
    | Some path when cfg.resume -> recovered_state path
    | _ -> (Hashtbl.create 1, Hashtbl.create 1)
  in
  let journal =
    match cfg.journal_path with
    | None -> None
    | Some path -> (
      match Journal.open_append ~path () with
      | Ok j -> Some j
      | Error e ->
        Printf.eprintf "bench: cannot open journal %s: %s\n" path (Run_error.to_string e);
        exit 4)
  in
  let append payload =
    match journal with
    | None -> ()
    | Some j -> (
      match Journal.append j payload with
      | Ok () -> ()
      | Error e -> Printf.eprintf "bench: journal append failed: %s\n%!" (Run_error.to_string e))
  in
  (* [ckpts] is filled by recovery before the pool starts and afterwards
     mutated only by the resumable-series experiment (one task, one
     domain); the journal itself serialises concurrent appends. *)
  let save_ckpt key snap =
    Hashtbl.replace ckpts key snap;
    append (Printf.sprintf "ckpt %s\n%s" key snap)
  in
  let load_ckpt key = Hashtbl.find_opt ckpts key in
  (* Observability before the pool: at_exit runs LIFO, so the sink
     uninstalls (flush + close) after the pool's own at_exit teardown —
     worker-emitted events are never written to a closed sink. *)
  (match cfg.trace with
  | None -> ()
  | Some path -> (
    match Sink.open_jsonl path with
    | Ok sink ->
      Sink.install sink;
      at_exit Sink.uninstall
    | Error msg ->
      Printf.eprintf "bench: cannot open trace file %s: %s\n" path msg;
      exit 2));
  if cfg.metrics || cfg.trace <> None then Metrics.enable ();
  let pool = Pool.create ?jobs:cfg.jobs () in
  Printf.printf "ipdb experiment harness — Carmeli, Grohe, Lindner, Standke (PODS 2021)\n%!";
  let failed = ref [] in
  let timings = ref [] in
  let wanted name = match cfg.only with None -> true | Some names -> List.mem name names in
  (* The canonical-order fold: journal the record, print the report, keep
     the books. Runs on the main domain only. *)
  let finish (name, _) outcome =
    match outcome with
    | Skipped -> ()
    | Replayed { status; output } ->
      Printf.eprintf "  [%s] already journaled (%s); replaying recorded report\n%!" name status;
      print_string output;
      if status <> "ok" then failed := name :: !failed;
      (* Replayed experiments consumed no series steps in this process. *)
      timings := (name, status, 0.0, 0) :: !timings;
      Printf.printf "  -- %s: %.2fs\n" name 0.0;
      flush stdout
    | Ran { status; output; seconds; steps } ->
      if status <> "ok" then failed := name :: !failed;
      append (Printf.sprintf "done %s %s\n%s" name status output);
      print_string output;
      timings := (name, status, seconds, steps) :: !timings;
      Printf.printf "  -- %s: %.2fs\n" name seconds;
      flush stdout
  in
  (* Every experiment except the two timing sections runs as a pool task;
     the pipeline journals and prints each one in canonical order as soon
     as it and all its predecessors are done. The Bechamel sections time
     construction micro-benchmarks, so they keep the machine to
     themselves at the end. *)
  let pooled_experiments =
    [ ("figures", exp_figures ~pool);
      ("figure-1", exp_f1);
      ("theorem-4.1", exp_thm41);
      ("theorem-5.9", exp_thm59);
      ("corollary-5.4", exp_cor54);
      ("example-3.5", exp_ex35);
      ("example-3.9", exp_ex39);
      ("lemma-3.6", exp_lem36);
      ("example-5.5", exp_ex55);
      ("example-5.6", exp_ex56);
      ("section-6", exp_sec6);
      ("theorem-2.4", exp_thm24);
      ("resumable-series", exp_resumable ~pool ~load_ckpt ~save_ckpt);
      ("classifier", exp_classifier ~pool);
      ("pqe", exp_pqe)
    ]
  in
  (match
     Reduce.map_fold (Some pool)
       ~map:(fun exp -> (exp, run_experiment ~completed ~wanted exp))
       ~fold:(fun () (exp, outcome) ->
         finish exp outcome;
         Ok ())
       ~init:()
       (List.to_seq pooled_experiments)
   with
  | Ok () -> ()
  | Error (_ : unit) -> ());
  List.iter
    (fun exp -> finish exp (run_experiment ~completed ~wanted exp))
    [ ("ablations", ablation_section); ("bechamel", bechamel_section) ];
  Pool.shutdown pool;
  Option.iter Journal.close journal;
  (* The final metrics snapshot goes everywhere the run is observable:
     as a schema-valid "metrics" trace event, as a trailing JSON line,
     and as human-readable "metric ..." lines on stderr. *)
  let snapshot = if Metrics.enabled () then Some (Metrics.snapshot ()) else None in
  Option.iter Trace.metrics_event snapshot;
  (match cfg.json with
  | None -> ()
  | Some path ->
    (* Line-oriented JSON: one object per line, trivially awk/jq-able. *)
    let oc = open_out path in
    Printf.fprintf oc "{\"jobs\": %d}\n" (Pool.jobs pool);
    List.iter
      (fun (name, status, seconds, steps) ->
        Printf.fprintf oc "{\"name\": %S, \"status\": %S, \"seconds\": %.3f, \"steps\": %d}\n" name
          status seconds steps)
      (List.rev !timings);
    Option.iter
      (fun snap -> output_string oc (OJson.to_string (OJson.Obj [ ("metrics", snap) ]) ^ "\n"))
      snapshot;
    close_out oc);
  if cfg.metrics then
    List.iter (fun l -> Printf.eprintf "metric %s\n" l) (Metrics.summary_lines ());
  match !failed with
  | [] -> Printf.printf "\nAll experiments executed.\n"
  | names ->
    Printf.printf "\n%d experiment(s) aborted: %s\n" (List.length names)
      (String.concat ", " (List.rev names));
    exit 4
