(* The kb subsystem (lib/kb): columnar store invariants, the ipdbkb1 file
   format, and — the heart of it — agreement of the lifted UCQ engine with
   brute-force world enumeration on every sub-gate instance (and an answer
   for every union that is safe as whole CQs), plus the metamorphic
   guarantees (union reordering and bound-variable renaming leave the
   exact marginal bit-identical, and parallel evaluation matches the
   serial run step for step) and the coverage of the Monte-Carlo
   fallback's intervals. *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Fo = Ipdb_logic.Fo
module Ti = Ipdb_pdb.Ti
module Pqe = Ipdb_pdb.Pqe
module Generate = Ipdb_pdb.Generate
module Budget = Ipdb_run.Budget
module Error = Ipdb_run.Error
module Pool = Ipdb_par.Pool
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile
module Lifted = Ipdb_kb.Lifted

let prop ?(count = 200) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)
let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make [ ("R", 2); ("S", 2); ("T", 1) ]

let q_str = Q.to_string

(* ------------------------------------------------------------------ *)
(* Random sub-gate UCQs over {R/2, S/2, T/1}                           *)
(* ------------------------------------------------------------------ *)

(* Small closed UCQs: 1–3 union terms, 1–3 atoms each, variables from a
   3-name supply, constants occasionally outside the generated universe so
   the absent-constant (probability-0) path is exercised too. *)
let arb_ucq =
  let ucq_print ucq = Fo.to_string (Pqe.ucq_to_formula ucq) in
  let gen_term st =
    match Random.State.int st 4 with
    | 0 -> Fo.C (Value.int (Random.State.int st 5))
    | _ -> Fo.V [| "x"; "y"; "z" |].(Random.State.int st 3)
  in
  let gen_atom st =
    let rel, arity = [| ("R", 2); ("S", 2); ("T", 1) |].(Random.State.int st 3) in
    { Pqe.rel; args = List.init arity (fun _ -> gen_term st) }
  in
  let gen_cq st =
    let atoms = List.init (1 + Random.State.int st 3) (fun _ -> gen_atom st) in
    let vars =
      List.sort_uniq compare
        (List.concat_map (fun a -> List.filter_map (function Fo.V v -> Some v | Fo.C _ -> None) a.Pqe.args) atoms)
    in
    { Pqe.exists = vars; atoms }
  in
  QCheck.make ~print:ucq_print (fun st -> List.init (1 + Random.State.int st 3) (fun _ -> gen_cq st))

type kb_case = { seed : int; facts : int; ucq : Pqe.ucq }

let arb_kb_case =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "seed=%d facts=%d %s" c.seed c.facts (Fo.to_string (Pqe.ucq_to_formula c.ucq)))
    QCheck.Gen.(
      let* seed = 0 -- 10_000 in
      let* facts = 0 -- 8 in
      let* ucq = QCheck.gen arb_ucq in
      return { seed; facts; ucq })

let instance_of c = Store.of_ti (Generate.ti (Generate.rng c.seed) ~schema ~facts:c.facts ~universe:3)

let ti_of c = Generate.ti (Generate.rng c.seed) ~schema ~facts:c.facts ~universe:3

(* ------------------------------------------------------------------ *)
(* Agreement: lifted UCQ = enumeration on every safe instance          *)
(* ------------------------------------------------------------------ *)

(* The classical whole-CQ safety condition: at most [max_union_terms]
   deduplicated union terms, and every normalised inclusion–exclusion
   conjunction self-join-free and hierarchical as a whole. *)
let safe_as_whole_cqs ucq =
  let terms = Pqe.dedupe_ucq ucq in
  let k = List.length terms in
  k <= Pqe.max_union_terms
  && List.for_all
       (fun mask ->
         let sel = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) terms in
         let q = Pqe.normalize_closed_cq (Pqe.conjoin_cqs sel) in
         Pqe.is_self_join_free q && Pqe.is_hierarchical q)
       (List.init ((1 lsl k) - 1) succ)

let lifted_agrees_with_enumeration c =
  let ti = ti_of c in
  let store = Store.of_ti ti in
  let exact = Pqe.boolean_probability_exact ti (Pqe.ucq_to_formula c.ucq) in
  match Lifted.ucq_probability store c.ucq with
  | Error e -> fail "lifted errored: %s" (Error.message e)
  | Ok (Some p) ->
      if Q.equal p exact then true
      else fail "lifted %s <> enumeration %s" (q_str p) (q_str exact)
  | Ok None ->
      (* The kb safety check is per conjunction and more permissive than
         the whole-CQ one: whatever that admits, the engine must answer. *)
      (not (safe_as_whole_cqs c.ucq)) || fail "kb engine refused a union whose conjunctions are all safe"

(* ------------------------------------------------------------------ *)
(* Metamorphic: reordering and renaming leave the marginal bit-identical *)
(* ------------------------------------------------------------------ *)

let rename_cq i cq =
  let fresh = List.mapi (fun j v -> (v, Printf.sprintf "m%d_%d_%s" i j v)) cq.Pqe.exists in
  let tm = function Fo.V v -> Fo.V (try List.assoc v fresh with Not_found -> v) | c -> c in
  {
    Pqe.exists = List.map snd fresh;
    atoms = List.map (fun a -> { a with Pqe.args = List.map tm a.Pqe.args }) cq.Pqe.atoms;
  }

let metamorphic_invariance c =
  let store = instance_of c in
  let run ucq =
    match Lifted.ucq_probability store ucq with
    | Ok r -> r
    | Error e -> QCheck.Test.fail_report ("lifted errored: " ^ Error.message e)
  in
  let base = run c.ucq in
  let reordered = run (List.rev c.ucq) in
  let renamed = run (List.mapi rename_cq c.ucq) in
  match (base, reordered, renamed) with
  | None, None, None -> true
  | Some p, Some p', Some p'' ->
      (* Normalised rationals: numeric equality is structural equality, so
         the printed form must match byte for byte as well. *)
      if Q.equal p p' && Q.equal p p'' && String.equal (q_str p) (q_str p') && String.equal (q_str p) (q_str p'')
      then true
      else fail "marginal not invariant: %s / %s / %s" (q_str p) (q_str p') (q_str p'')
  | _ -> fail "safety verdict not invariant under reorder/rename"

(* ------------------------------------------------------------------ *)
(* Parallel determinism: pool fan-out is invisible                      *)
(* ------------------------------------------------------------------ *)

let test_parallel_matches_serial () =
  (* Enough leaf rows to clear par_threshold so the pool path runs. *)
  let n = Lifted.par_threshold + 500 in
  let sch = Schema.make [ ("T", 1) ] in
  let ti = Generate.ti (Generate.rng 11) ~schema:sch ~facts:n ~universe:(4 * n) in
  let store = Store.of_ti ti in
  let phi = Fo.Exists ("x", Fo.Atom ("T", [ Fo.V "x" ])) in
  let pool = Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let run ?pool () =
        let budget = Budget.make ~max_steps:1_000_000 () in
        match Lifted.query ?pool ~budget store phi with
        | Ok (Lifted.Exact p) -> (p, Budget.steps_used budget)
        | Ok (Lifted.Estimated _) -> Alcotest.fail "safe query fell back to sampling"
        | Error e -> Alcotest.fail (Error.message e)
      in
      let p_serial, steps_serial = run () in
      let p_par, steps_par = run ~pool () in
      Alcotest.(check bool) "parallel marginal bit-identical" true (Q.equal p_serial p_par);
      Alcotest.(check string) "identical printed form" (q_str p_serial) (q_str p_par);
      Alcotest.(check int) "step count independent of jobs" steps_serial steps_par;
      Alcotest.(check int) "one step per leaf row" n steps_serial)

(* ------------------------------------------------------------------ *)
(* Leaf rule, component memo and the lazy refusal                       *)
(* ------------------------------------------------------------------ *)

let parse text = match Ipdb_logic.Parser.sentence text with Ok phi -> phi | Error e -> failwith ("parse: " ^ e)

(* The exact answer and the budget steps it charged. *)
let exact_steps ?pool store text =
  let budget = Budget.make ~max_steps:max_int () in
  match Lifted.query ?pool ~budget store (parse text) with
  | Ok (Lifted.Exact p) -> (p, Budget.steps_used budget)
  | Ok (Lifted.Estimated _) -> fail "%s: estimated, not exact" text
  | Error e -> fail "%s: %s" text (Error.message e)

let agrees ti store text =
  let p, _ = exact_steps store text in
  let want = Pqe.boolean_probability_exact ti (parse text) in
  Q.equal p want || fail "%s: lifted %s <> enumeration %s" text (q_str p) (q_str want)

let rows_where ti rel pred =
  List.length (List.filter (fun (f, _) -> Fact.rel f = rel && pred (Fact.args f)) (Ti.Finite.facts ti))

(* A single open atom folds its consistent rows: repeated variables keep
   only rows whose positions agree, constants select the index bucket,
   and every folded row costs one step. *)
let leaf_rule_agrees c =
  let ti = ti_of c in
  let store = Store.of_ti ti in
  List.for_all (agrees ti store)
    [
      "exists x. R(x,x)";
      "exists y. R(1,y)";
      "exists x. S(x,2)";
      "exists x y. S(x,y)";
      "exists x. (R(x,x) & T(0))";
      "exists x y. (R(x,x) & S(y,1))";
    ]
  &&
  let steps text want = snd (exact_steps store text) = want || fail "%s: steps <> %d rows" text want in
  steps "exists x. R(x,x)" (rows_where ti "R" (function [ a; b ] -> Value.equal a b | _ -> false))
  && steps "exists y. R(1,y)" (rows_where ti "R" (function a :: _ -> Value.equal a (Value.int 1) | _ -> false))
  && steps "exists x y. S(x,y)" (rows_where ti "S" (fun _ -> true))

(* Union terms sharing components up to renaming: the answers match
   enumeration, and each distinct component is charged once per query. *)
let shared_components_agree c =
  let ti = ti_of c in
  let store = Store.of_ti ti in
  let a = "exists x. T(x)" and b = "exists x y. S(x,y)" in
  let qq = "(exists x y. S(x,y)) | (exists u v. S(u,v))" in
  let absorb = "(exists x. T(x)) | ((exists x. T(x)) & (exists x y. S(x,y)))" in
  let union = "(exists x. T(x)) | (exists x y. S(x,y))" in
  List.for_all (agrees ti store) [ qq; absorb; union ]
  &&
  let pa, sa = exact_steps store a and pb, sb = exact_steps store b in
  let steps text want = snd (exact_steps store text) = want || fail "%s: steps <> %d" text want in
  let indep () =
    let budget = Budget.make ~max_steps:max_int () in
    match Lifted.independence ~budget store (parse a) (parse b) with
    | Ok (_, p1, p2, p12) -> Q.equal p12 (Q.mul p1 p2) && Budget.steps_used budget = sa + sb
    | Error e -> fail "independence: %s" (Error.message e)
  in
  (* a zero factor short-circuits a conjunction, which would skip a
     component; the step identities hold when both are nonzero *)
  steps qq sb
  && (Q.is_zero pa || Q.is_zero pb || (steps absorb (sa + sb) && steps union (sa + sb) && indep ()))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A root with no candidates never looks at its body, so an unsafe
   sub-plan under it is never reached and the answer is an exact 0. *)
let test_lazy_unsafe () =
  let relations = [ ("U", 3); ("R", 2); ("S", 2) ] in
  let facts =
    [
      (Fact.make "R" [ Value.int 0; Value.int 1 ], Q.of_ints 1 2);
      (Fact.make "S" [ Value.int 0; Value.int 2 ], Q.of_ints 1 3);
    ]
  in
  let text = "exists x y z. (U(x,y,z) & R(x,y) & S(x,z))" in
  let ti = Ti.Finite.make (Schema.make relations) facts in
  (match Lifted.query (Store.of_ti ti) (parse text) with
  | Ok (Lifted.Exact p) ->
      Alcotest.(check string) "exact zero" "0" (q_str p);
      Alcotest.(check bool) "matches enumeration" true (Q.equal p (Pqe.boolean_probability_exact ti (parse text)))
  | Ok (Lifted.Estimated _) -> Alcotest.fail "estimated"
  | Error e -> Alcotest.fail (Error.message e));
  let u = (Fact.make "U" [ Value.int 0; Value.int 1; Value.int 2 ], Q.of_ints 1 2) in
  match Lifted.query (Store.of_ti (Ti.Finite.make (Schema.make relations) (u :: facts))) (parse text) with
  | Error (Error.Validation { msg; _ }) ->
      Alcotest.(check bool) "the sub-plan is refused once reached" true (contains msg "no root variable")
  | _ -> Alcotest.fail "a reachable unsafe sub-plan must be refused"

(* Leaf folds straddling par_threshold: answers and step counts are
   identical without a pool and at jobs 1, 2 and 3. *)
let test_leaf_jobs_invariance () =
  let pools = List.map (fun jobs -> Pool.create ~jobs ()) [ 1; 2; 3 ] in
  Fun.protect ~finally:(fun () -> List.iter Pool.shutdown pools) @@ fun () ->
  List.iter
    (fun n ->
      let store = Store.create [ ("S", 2); ("T", 1); ("U", 1) ] in
      let add rel args p = match Store.add store ~rel args p with Ok () -> () | Error m -> Alcotest.fail m in
      for i = 1 to n do
        add "S" [| Value.int i; Value.int (i mod 5) |] (Q.of_ints 1 (2 + (i mod 89)))
      done;
      for i = 0 to 9 do
        add "T" [| Value.int i |] (Q.of_ints (1 + i) 12)
      done;
      List.iter
        (fun text ->
          let label = Printf.sprintf "n=%d %s" n text in
          let show (p, steps) = Printf.sprintf "%s in %d steps" (q_str p) steps in
          let serial = show (exact_steps store text) in
          List.iteri
            (fun i pool ->
              Alcotest.(check string) (Printf.sprintf "%s: jobs=%d" label (i + 1)) serial (show (exact_steps ~pool store text)))
            pools)
        [ "exists x y. S(x,y)"; "exists x y. (S(x,y) & T(y))"; "(exists x. T(x)) | (exists x y. S(x,y))" ];
      Alcotest.(check int) (Printf.sprintf "n=%d: one step per leaf row" n) n (snd (exact_steps store "exists x y. S(x,y)"));
      (* a certain fact (marginal 1/1) makes its leaf certain, also when
         it is the only row of the relation *)
      add "T" [| Value.int 10 |] Q.one;
      add "U" [| Value.int 0 |] Q.one;
      Alcotest.(check string) "certain row" "1" (q_str (fst (exact_steps store "exists x. T(x)")));
      Alcotest.(check string) "lone certain row" "1" (q_str (fst (exact_steps store "exists x. U(x)"))))
    [ Lifted.par_threshold - 1; Lifted.par_threshold; Lifted.par_threshold + 1 ]

(* ucq_probability runs query's schema check: an unknown relation or a
   wrong argument count is a Validation error with query's message, never
   an answer read from the wrong columns or an out-of-bounds index. *)
let test_ucq_schema_check () =
  let r a b p = (Fact.make "R" [ Value.int a; Value.int b ], p) in
  let ti = Ti.Finite.make (Schema.make [ ("R", 2) ]) [ r 1 2 (Q.of_ints 1 2); r 2 3 (Q.of_ints 1 3) ] in
  let store = Store.of_ti ti in
  List.iter
    (fun (text, want) ->
      let phi = parse text in
      (match Lifted.query store phi with
      | Error (Error.Validation { msg; _ }) -> Alcotest.(check string) (text ^ ": query") want msg
      | _ -> Alcotest.failf "%s: query accepted it" text);
      match Lifted.ucq_probability store (Option.get (Pqe.ucq_of_formula phi)) with
      | Error (Error.Validation { msg; _ }) -> Alcotest.(check string) (text ^ ": ucq_probability") want msg
      | Ok (Some p) -> Alcotest.failf "%s: answered %s" text (q_str p)
      | Ok None -> Alcotest.failf "%s: refused as unsafe" text
      | Error e -> Alcotest.failf "%s: %s" text (Error.message e)
      | exception e -> Alcotest.failf "%s: raised %s" text (Printexc.to_string e))
    [
      ("exists x. R(x)", "relation R has arity 2, used with 1 arguments");
      ("exists x y z. R(x,y,z)", "relation R has arity 2, used with 3 arguments");
      ("R(1,2,3)", "relation R has arity 2, used with 3 arguments");
      ("exists x. U(x)", "unknown relation U");
    ]

(* Smallest [m] with [P(X > m) <= alpha] for [X ~ Binomial(n, p)]. *)
let binomial_quantile ~n ~p ~alpha =
  let pmf = ref ((1. -. p) ** float_of_int n) in
  let cdf = ref !pmf and m = ref 0 in
  while 1. -. !cdf > alpha do
    pmf := !pmf *. float_of_int (n - !m) /. float_of_int (!m + 1) *. p /. (1. -. p);
    incr m;
    cdf := !cdf +. !pmf
  done;
  !m

(* The Monte-Carlo fallback's Hoeffding interval covers the enumerated
   probability. Each interval misses with probability at most δ, and the
   seeded runs are independent, so the misses are dominated by
   Binomial(trials, δ): the test allows the count that binomial exceeds
   with probability at most 10⁻⁶. The seeds are fixed, so the verdict is
   deterministic. *)
let test_mc_coverage () =
  let delta = 0.05 in
  let queries =
    [ "exists x y. (R(x,y) & R(y,x))"; "exists x y z. (T(x) & S(x,y) & R(y,z))"; "exists x y. (T(x) & R(x,y) & T(y))" ]
  in
  let trials = ref 0 and covered = ref 0 in
  for seed = 1 to 100 do
    let ti = Generate.ti (Generate.rng seed) ~schema ~facts:8 ~universe:3 in
    let store = Store.of_ti ti in
    List.iter
      (fun text ->
        let phi = parse text in
        match Lifted.query ~mc:{ Lifted.samples = 200; seed; delta } store phi with
        | Ok (Lifted.Estimated e) ->
            incr trials;
            let exact = Q.to_float (Pqe.boolean_probability_exact ti phi) in
            if Ipdb_series.Interval.contains (Ipdb_pdb.Estimate.interval e) exact then incr covered
        | Ok (Lifted.Exact _) -> Alcotest.failf "%s: an unsafe query got an exact plan" text
        | Error e -> Alcotest.failf "%s: %s" text (Error.message e))
      queries
  done;
  let allowed = binomial_quantile ~n:!trials ~p:delta ~alpha:1e-6 in
  Alcotest.(check int) "every query sampled" 300 !trials;
  if !trials - !covered > allowed then
    Alcotest.failf "%d of %d intervals miss the exact probability; at confidence %.2f at most %d may"
      (!trials - !covered) !trials (1. -. delta) allowed

(* ------------------------------------------------------------------ *)
(* Store unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_store_basics () =
  let s = Store.create [ ("R", 2); ("T", 1) ] in
  let add rel args p = Store.add s ~rel args p in
  (match add "R" [| Value.int 1; Value.int 2 |] (Q.of_ints 1 2) with Ok () -> () | Error m -> Alcotest.fail m);
  (match add "R" [| Value.int 1; Value.int 2 |] (Q.of_ints 1 3) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate tuple accepted");
  (match add "R" [| Value.int 1 |] Q.one with Error _ -> () | Ok () -> Alcotest.fail "arity mismatch accepted");
  (match add "U" [| Value.int 1 |] Q.one with Error _ -> () | Ok () -> Alcotest.fail "unknown relation accepted");
  (match add "T" [| Value.str "a" |] Q.zero with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "zero marginal dropped" 1 (Store.fact_count s);
  (match add "T" [| Value.str "a" |] (Q.of_ints 2 3) with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "fact count" 2 (Store.fact_count s);
  Alcotest.(check bool) "marginal lookup" true (Q.equal (Q.of_ints 1 2) (Store.marginal s ~rel:"R" [| Value.int 1; Value.int 2 |]));
  Alcotest.(check bool) "absent fact has marginal 0" true (Q.is_zero (Store.marginal s ~rel:"T" [| Value.str "b" |]));
  Alcotest.(check bool) "expected size is the marginal sum" true
    (Q.equal (Q.add (Q.of_ints 1 2) (Q.of_ints 2 3)) (Store.expected_size s))

let test_store_spill () =
  (* A denominator far beyond the native-int fast path must round-trip
     exactly through the spill table. *)
  let s = Store.create [ ("T", 1) ] in
  let big = Q.div Q.one (Q.of_string "36893488147419103232") (* 2^65 *) in
  (match Store.add s ~rel:"T" [| Value.int 0 |] big with Ok () -> () | Error m -> Alcotest.fail m);
  (match Store.add s ~rel:"T" [| Value.int 1 |] (Q.of_ints 1 2) with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "one marginal spilled" 1 (Store.spilled s);
  Alcotest.(check bool) "spilled marginal exact" true (Q.equal big (Store.marginal s ~rel:"T" [| Value.int 0 |]))

let test_store_rows_matching () =
  let s = Store.create [ ("R", 2) ] in
  let tuples = [ (1, 10); (1, 20); (2, 10); (3, 30) ] in
  List.iter
    (fun (a, b) ->
      match Store.add s ~rel:"R" [| Value.int a; Value.int b |] (Q.of_ints 1 2) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    tuples;
  let h = Option.get (Store.handle s "R") in
  let id v = Option.get (Store.intern_find s (Value.int v)) in
  let col pos rows = Array.to_list (Array.map (fun r -> Store.cell h ~row:r ~pos) rows) in
  let rows_1x = Store.rows_matching h ~mask:0b01 ~key:[| id 1 |] in
  Alcotest.(check int) "two rows bind position 0 to 1" 2 (Array.length rows_1x);
  Alcotest.(check (list int)) "both match on position 0" [ id 1; id 1 ] (col 0 rows_1x);
  let rows_x10 = Store.rows_matching h ~mask:0b10 ~key:[| id 10 |] in
  Alcotest.(check int) "two rows bind position 1 to 10" 2 (Array.length rows_x10);
  let rows_exact = Store.rows_matching h ~mask:0b11 ~key:[| id 2; id 10 |] in
  Alcotest.(check int) "full-tuple probe" 1 (Array.length rows_exact);
  Alcotest.(check int) "no row for an absent key" 0 (Array.length (Store.rows_matching h ~mask:0b01 ~key:[| id 30 |]))

(* Random stores over relations of arity 0–3 holding Int, Str and Bot
   values; [late] facts arrive after every index has been built. *)
type store_case = { rels : (string * int) list; early : (string * Value.t list) list; late : (string * Value.t list) list }

let arb_store_case =
  let print c =
    let fact (rel, args) = rel ^ "(" ^ String.concat "," (List.map Value.to_string args) ^ ")" in
    Printf.sprintf "rels=%s early=%s late=%s"
      (String.concat "," (List.map (fun (r, a) -> Printf.sprintf "%s/%d" r a) c.rels))
      (String.concat " " (List.map fact c.early))
      (String.concat " " (List.map fact c.late))
  in
  let gen st =
    let rels = List.filteri (fun _ _ -> Random.State.bool st) [ ("A", 0); ("B", 1); ("C", 2); ("D", 3) ] in
    let rels = if rels = [] then [ ("D", 3) ] else rels in
    let value () =
      match Random.State.int st 3 with
      | 0 -> Value.int (Random.State.int st 4)
      | 1 -> Value.str [| "a"; "b"; "c" |].(Random.State.int st 3)
      | _ -> Value.bot
    in
    let fact () =
      let rel, arity = List.nth rels (Random.State.int st (List.length rels)) in
      (rel, List.init arity (fun _ -> value ()))
    in
    let facts n = List.init (Random.State.int st n) (fun _ -> fact ()) in
    { rels; early = facts 40; late = facts 10 }
  in
  QCheck.make ~print gen

let naive_rows h ~mask ~key =
  let bound = List.filter (fun pos -> mask land (1 lsl pos) <> 0) (List.init (Store.handle_arity h) Fun.id) in
  List.init (Store.handle_rows h) Fun.id
  |> List.filter (fun row -> List.for_all2 (fun pos id -> Store.cell h ~row ~pos = id) bound (Array.to_list key))

(* Every mask of every relation, probed with each row's own key and with
   keys over every id up to two past the last interned one. *)
let probes store =
  let nv = Store.distinct_values store in
  List.concat_map
    (fun (rel, arity) ->
      let h = Option.get (Store.handle store rel) in
      List.concat_map
        (fun mask ->
          let bound = List.filter (fun pos -> mask land (1 lsl pos) <> 0) (List.init arity Fun.id) in
          let own = List.init (Store.handle_rows h) (fun row -> Array.of_list (List.map (fun pos -> Store.cell h ~row ~pos) bound)) in
          let spread = List.init (nv + 2) (fun id -> Array.of_list (List.mapi (fun j _ -> (id + j) mod (nv + 2)) bound)) in
          List.map (fun key -> (h, mask, key)) (own @ spread))
        (List.init (1 lsl arity) Fun.id))
    (Store.schema store)

let answers probes = List.map (fun (h, mask, key) -> Array.to_list (Store.rows_matching h ~mask ~key)) probes

let rows_matching_is_a_filter c =
  let s = Store.create c.rels in
  let add (rel, args) = ignore (Store.add s ~rel (Array.of_list args) (Q.of_ints 1 2)) in
  List.iter add c.early;
  let check what probes got =
    List.for_all2
      (fun (h, mask, key) rows ->
        rows = naive_rows h ~mask ~key
        || fail "%s: %s mask %d key [%s]: got [%s]" what (Store.handle_name h) mask
             (String.concat ";" (Array.to_list (Array.map string_of_int key)))
             (String.concat ";" (List.map string_of_int rows)))
      probes got
  in
  (* first use from two domains at once *)
  let ps = probes s in
  let d1 = Domain.spawn (fun () -> answers ps) and d2 = Domain.spawn (fun () -> answers ps) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check "domain 1" ps r1 && check "domain 2" ps r2
  && begin
       (* inserts after the builds invalidate them *)
       List.iter add c.late;
       let ps = probes s in
       check "after add" ps (answers ps)
     end

(* ------------------------------------------------------------------ *)
(* ipdbkb1 file format                                                 *)
(* ------------------------------------------------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "ipdb_test_kb" ".kb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_kbfile_roundtrip () =
  with_tmp (fun path ->
      let big = Q.div Q.one (Q.of_string "36893488147419103232") in
      let facts =
        [
          ("R", [| Value.int 1; Value.str "alice" |], Q.of_ints 1 3);
          ("R", [| Value.bot; Value.int (-4) |], big);
          ("T", [| Value.str "x2" |], Q.one);
          ("T", [| Value.int 7 |], Q.zero);
        ]
      in
      (match Kbfile.write ~path ~relations:[ ("R", 2); ("T", 1) ] (List.to_seq facts) with
      | Ok n -> Alcotest.(check int) "four fact lines written" 4 n
      | Error e -> Alcotest.fail (Error.message e));
      match Kbfile.load path with
      | Error e -> Alcotest.fail (Error.message e)
      | Ok loaded ->
          Alcotest.(check int) "three facts survive" 3 loaded.Kbfile.facts;
          Alcotest.(check int) "zero marginal dropped on load" 1 loaded.Kbfile.zero_dropped;
          Alcotest.(check bool) "no torn tail" false loaded.Kbfile.torn_tail;
          List.iter
            (fun (rel, args, p) ->
              let got = Store.marginal loaded.Kbfile.store ~rel args in
              let want = if Q.is_zero p then Q.zero else p in
              if not (Q.equal got want) then
                Alcotest.fail (Printf.sprintf "marginal of %s drifted: %s <> %s" rel (q_str got) (q_str want)))
            facts;
          (* The digest is a pure function of the bytes consumed. *)
          (match Kbfile.load path with
          | Ok again -> Alcotest.(check int64) "digest stable across loads" loaded.Kbfile.digest again.Kbfile.digest
          | Error e -> Alcotest.fail (Error.message e)))

let test_kbfile_torn_tail () =
  with_tmp (fun path ->
      let facts = [ ("T", [| Value.int 1 |], Q.of_ints 1 2); ("T", [| Value.int 2 |], Q.of_ints 1 4) ] in
      (match Kbfile.write ~path ~relations:[ ("T", 1) ] (List.to_seq facts) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Error.message e));
      (match Kbfile.load path with
      | Ok l -> Alcotest.(check bool) "clean file has no torn tail" false l.Kbfile.torn_tail
      | Error e -> Alcotest.fail (Error.message e));
      (* Simulate a crash mid-append: a final line with no newline. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "T 1/8 3";
      close_out oc;
      match Kbfile.load path with
      | Error e -> Alcotest.fail ("torn tail rejected: " ^ Error.message e)
      | Ok l ->
          Alcotest.(check bool) "torn tail flagged" true l.Kbfile.torn_tail;
          Alcotest.(check int) "partial record ignored" 2 l.Kbfile.facts;
          Alcotest.(check bool) "partial fact absent" true (Q.is_zero (Store.marginal l.Kbfile.store ~rel:"T" [| Value.int 3 |])))

let write_raw path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_kbfile_malformed () =
  with_tmp (fun path ->
      write_raw path "not-a-kb-file\n";
      (match Kbfile.load path with
      | Error (Error.Parse _) -> ()
      | Error e -> Alcotest.fail ("wrong error for bad magic: " ^ Error.message e)
      | Ok _ -> Alcotest.fail "bad magic accepted");
      write_raw path "ipdbkb1\nrel T 1\nT nonsense 5\nT 1/2 6\n";
      (match Kbfile.load path with
      | Error (Error.Parse _) -> ()
      | Error e -> Alcotest.fail ("wrong error for bad marginal: " ^ Error.message e)
      | Ok _ -> Alcotest.fail "malformed mid-file record accepted");
      write_raw path "ipdbkb1\nrel T 1\nT 1/2 5\nT 1/3 5\n";
      (match Kbfile.load path with
      | Error (Error.Validation _) -> ()
      | Error e -> Alcotest.fail ("wrong error for duplicate fact: " ^ Error.message e)
      | Ok _ -> Alcotest.fail "duplicate fact accepted");
      (* A zero denominator is a parse error, native spelling or not. *)
      List.iter
        (fun marginal ->
          write_raw path (Printf.sprintf "ipdbkb1\nrel T 1\nT %s 5\n" marginal);
          match Kbfile.load path with
          | Error (Error.Parse { msg; _ }) ->
              Alcotest.(check string) ("zero denominator " ^ marginal) (Printf.sprintf "line 3: unparsable marginal %S" marginal) msg
          | Error e -> Alcotest.fail ("wrong error for a zero denominator: " ^ Error.message e)
          | Ok _ -> Alcotest.fail ("zero denominator accepted: " ^ marginal))
        [ "1/0"; "0/0"; "1/00"; "+1/0"; "1_0/0" ];
      write_raw path "ipdbkb1\nrel T 1\n# comment\n\nT 3/4 9\n";
      match Kbfile.load path with
      | Ok l -> Alcotest.(check int) "comments and blank lines skipped" 1 l.Kbfile.facts
      | Error e -> Alcotest.fail (Error.message e))

(* ------------------------------------------------------------------ *)
(* The reader against a whitespace-split reference                     *)
(* ------------------------------------------------------------------ *)

(* The ipdbkb1 semantics as a plain reference: split each complete line
   on blanks, read the marginal with [Q.of_string] and each value with
   [int_of_string_opt], insert through [Store.add]. The reader must agree
   with it on every input: the same error kind and message, or the same
   counts, digest, torn flag, intern table size and facts in order. *)
let reference_load path text =
  let store = Store.create [] in
  let facts = ref 0 and zero = ref 0 and seen_magic = ref false in
  let parse lineno fmt =
    Printf.ksprintf (fun msg -> Stdlib.Error (Error.Parse { what = path; msg = Printf.sprintf "line %d: %s" lineno msg })) fmt
  in
  let invalid lineno msg = Stdlib.Error (Error.Validation { what = path; msg = Printf.sprintf "line %d: %s" lineno msg }) in
  let tokens line =
    String.split_on_char ' ' (String.map (function '\t' | '\r' -> ' ' | c -> c) line) |> List.filter (( <> ) "")
  in
  let value tok = if tok = "_" then Value.bot else match int_of_string_opt tok with Some n -> Value.int n | None -> Value.str tok in
  let line lineno text =
    match tokens text with
    | [] -> Ok ()
    | tok :: _ when tok.[0] = '#' -> Ok ()
    | toks when not !seen_magic ->
        if toks = [ "ipdbkb1" ] then Ok (seen_magic := true) else parse lineno "expected ipdbkb1 magic, got %S" text
    | [ "rel"; name; arity ] -> (
        match int_of_string_opt arity with
        | None -> parse lineno "relation %s: unparsable arity %S" name arity
        | Some _ when not (name.[0] >= 'A' && name.[0] <= 'Z') ->
            parse lineno "relation name %S must start with an upper-case letter" name
        | Some arity -> ( match Store.declare store name arity with Ok () -> Ok () | Error msg -> parse lineno "%s" msg))
    | "rel" :: _ -> parse lineno "rel needs a name and an arity"
    | [ _ ] -> parse lineno "fact line needs a marginal"
    | rel :: marginal :: values -> (
        match Q.of_string marginal with
        | exception (Invalid_argument _ | Division_by_zero) -> parse lineno "unparsable marginal %S" marginal
        | p -> (
            match Store.add store ~rel (Array.of_list (List.map value values)) p with
            | Ok () -> Ok (if Q.is_zero p then incr zero else incr facts)
            | Error msg -> invalid lineno msg))
  in
  let lines = String.split_on_char '\n' text in
  let tail = List.nth lines (List.length lines - 1) in
  let complete = List.rev (List.tl (List.rev lines)) in
  let torn = tail <> "" in
  let rec go lineno = function
    | [] -> Ok ()
    | l :: rest -> ( match line lineno l with Ok () -> go (lineno + 1) rest | Error _ as e -> e)
  in
  match go 1 complete with
  | Error e -> Error e
  | Ok () when not !seen_magic -> Error (Error.Parse { what = path; msg = "empty or magic-less file (expected ipdbkb1)" })
  | Ok () ->
      let consumed = String.length text - String.length tail in
      let digest = ref 0xcbf29ce484222325L in
      String.iteri
        (fun i c -> if i < consumed then digest := Int64.mul (Int64.logxor !digest (Int64.of_int (Char.code c))) 0x100000001b3L)
        text;
      Ok (store, !facts, !zero, !digest, torn)

let kb_facts store =
  let out = ref [] in
  Store.iter store (fun rel args p -> out := (rel, Array.to_list args, Q.to_string p) :: !out);
  List.rev !out

(* Near-valid ipdbkb1 text from the grammar: the native spellings, their
   edges (18 vs 19 digits, zero denominators, signs, separators) and the
   layout cases the line handler sees. Each line goes wrong with a small
   chance, so most files load far enough to compare their facts. *)
let kb_good_marginals =
  [| "0/5"; "5/5"; "0"; "00"; "1"; "0.25"; "0.5"; "1_0/30"; "+1/2"; "007/010"; "999999999999999999/999999999999999999";
     "1/999999999999999999"; "1/1000000000000000000"; "1/9999999999999999999"; "0/1000000000000000000";
     "1000000000000000000/3000000000000000000";
     "123456789012345678/987654321098765432" |]

let kb_bad_marginals = [| "6/5"; "2"; "1/0"; "0/0"; "1/00"; "+1/0"; "-1/2"; "1/2/3"; "/2"; "1/"; "0.5.5"; "abc"; "1e3" |]

let kb_odd_values =
  [| "0"; "5"; "007"; "-0"; "+5"; "05"; "0x1F"; "31"; "-5"; "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
     "-4611686018427387905"; "123456789012345678"; "1234567890123456789"; "9999999999999999999"; "-123456789012345678"; "_"; "_x"; "__"; "alice";
     "-"; "1_000"; "1000"; "0b11"; "#c" |]

let gen_kb_text st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let chance n = Random.State.int st n = 0 in
  let sep () = pick [| " "; " "; " "; "\t"; "  "; " \t " |] in
  let buf = Buffer.create 256 in
  let line toks =
    if chance 8 then Buffer.add_string buf (sep ());
    Buffer.add_string buf (String.concat (sep ()) toks);
    if chance 8 then Buffer.add_string buf (sep ());
    if chance 6 then Buffer.add_char buf '\r';
    Buffer.add_char buf '\n'
  in
  let rels = [| ("R", 2); ("T", 1); ("P", 0); ("U", 3) |] in
  let decl (name, arity) = line [ "rel"; name; string_of_int arity ] in
  if chance 10 then line [ "#"; "header" ];
  if chance 10 then Buffer.add_char buf '\n';
  if not (chance 40) then line [ (if chance 40 then "ipdbkb2" else "ipdbkb1") ];
  (* U is often declared mid-file, after its first facts may have appeared *)
  Array.iter (fun r -> if fst r <> "U" || Random.State.bool st then decl r) rels;
  let value () = if chance 4 then pick kb_odd_values else string_of_int (Random.State.int st 200) in
  let last = ref [] in
  for _ = 1 to Random.State.int st 40 do
    match Random.State.int st 150 with
    | 0 -> decl (pick rels)
    | 1 -> line [ "rel"; pick [| "r"; "T"; "X"; "Y" |]; pick [| "1"; "2"; "-1"; "two" |] ]
    | 2 -> line [ "#"; value () ]
    | 3 -> Buffer.add_char buf '\n'
    | 4 -> line [ pick [| "rel"; "T"; "rel T" |] ]
    | 5 -> line !last
    | _ ->
        let name, arity = if chance 150 then ("V", 1) else pick (Array.sub rels 0 (if chance 10 then 4 else 2)) in
        let arity = if chance 100 then arity + pick [| -1; 1 |] else arity in
        let marginal =
          if chance 80 then pick kb_bad_marginals else if chance 3 then pick kb_good_marginals else pick [| "1/2"; "1/3"; "3/4" |]
        in
        last := name :: marginal :: List.init (max 0 arity) (fun _ -> value ());
        line !last
  done;
  if chance 4 then Buffer.add_string buf (pick [| "T 1/2"; "R"; "garbage"; " " |]);
  Buffer.contents buf

let arb_kb_text = QCheck.make ~print:(fun s -> s) gen_kb_text

let reader_matches_reference text =
  with_tmp (fun path ->
      write_raw path text;
      match (Kbfile.load path, reference_load path text) with
      | Error e, Error e' ->
          if e = e' then true else fail "error %s <> reference %s" (Error.to_string e) (Error.to_string e')
      | Ok l, Ok (store, facts, zero, digest, torn) ->
          if l.Kbfile.facts <> facts || l.Kbfile.zero_dropped <> zero then
            fail "counts %d/%d <> reference %d/%d" l.Kbfile.facts l.Kbfile.zero_dropped facts zero
          else if l.Kbfile.digest <> digest then fail "digest %016Lx <> reference %016Lx" l.Kbfile.digest digest
          else if l.Kbfile.torn_tail <> torn then fail "torn flag differs"
          else if Store.distinct_values l.Kbfile.store <> Store.distinct_values store then
            fail "distinct values %d <> reference %d" (Store.distinct_values l.Kbfile.store) (Store.distinct_values store)
          else if kb_facts l.Kbfile.store <> kb_facts store then fail "facts differ from the reference"
          else true
      | Ok _, Error e -> fail "accepted; the reference fails with %s" (Error.to_string e)
      | Error e, Ok _ -> fail "failed with %s; the reference accepts" (Error.to_string e))

(* Files larger than the reader's 64 KiB window: lines straddle refills,
   and a 150 KB token makes the window grow twice. *)
let test_reader_window () =
  let st = Random.State.make [| 16 |] in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "ipdbkb1\nrel R 2\nrel T 1\n";
  for i = 0 to 20_000 do
    if i = 7_000 then Buffer.add_string buf ("T 1/1" ^ String.make 40 '0' ^ " 5\n");
    if i = 9_000 then Buffer.add_string buf ("T 1/3 " ^ String.make 150_000 'x' ^ "\n");
    Buffer.add_string buf (Printf.sprintf "R %d/7 %d %d\n" (Random.State.int st 8) i (Random.State.int st 50))
  done;
  Buffer.add_string buf "R 1/2 0";
  if not (reader_matches_reference (Buffer.contents buf)) then Alcotest.fail "reader differs from the reference"

(* ------------------------------------------------------------------ *)
(* Generator exactness                                                 *)
(* ------------------------------------------------------------------ *)

type gen_case = { gseed : int; guniverse : int; gfacts : int }

let arb_gen_case =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "seed=%d universe=%d facts=%d" c.gseed c.guniverse c.gfacts)
    QCheck.Gen.(
      let* gseed = 0 -- 10_000 in
      let* guniverse = 1 -- 5 in
      (* capacity of {R/2, S/2, T/1} at this universe *)
      let cap = (2 * guniverse * guniverse) + guniverse in
      let* gfacts = 0 -- cap in
      return { gseed; guniverse; gfacts })

let generator_fact_count_exact c =
  let ti = Generate.ti (Generate.rng c.gseed) ~schema ~facts:c.gfacts ~universe:c.guniverse in
  let facts = Ti.Finite.facts ti in
  let distinct = List.sort_uniq (fun (a, _) (b, _) -> Fact.compare a b) facts in
  if List.length facts <> c.gfacts then fail "ti yielded %d facts, wanted %d" (List.length facts) c.gfacts
  else if List.length distinct <> c.gfacts then fail "ti yielded duplicate facts"
  else true

let kb_stream_count_exact c =
  let seq = Generate.kb_stream (Generate.rng c.gseed) ~relations:(Schema.relations schema) ~facts:c.gfacts ~universe:c.guniverse in
  let facts = List.of_seq seq in
  let key (rel, args, _) = (rel, Array.to_list args) in
  let distinct = List.sort_uniq compare (List.map key facts) in
  if List.length facts <> c.gfacts then fail "kb_stream yielded %d facts, wanted %d" (List.length facts) c.gfacts
  else if List.length distinct <> c.gfacts then fail "kb_stream yielded duplicate facts"
  else if not (List.for_all (fun (_, _, p) -> Q.compare p Q.zero > 0 && Q.compare p Q.one <= 0) facts) then
    fail "kb_stream marginal outside (0, 1]"
  else true

let test_generator_at_capacity () =
  (* facts = capacity must enumerate the whole fact space, and one more
     must be refused loudly. *)
  let u = 3 in
  let cap = (2 * u * u) + u in
  let ti = Generate.ti (Generate.rng 5) ~schema ~facts:cap ~universe:u in
  Alcotest.(check int) "all facts at capacity" cap (List.length (Ti.Finite.facts ti));
  match Generate.ti (Generate.rng 5) ~schema ~facts:(cap + 1) ~universe:u with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-capacity request accepted"

(* ------------------------------------------------------------------ *)
(* Independence                                                        *)
(* ------------------------------------------------------------------ *)

let test_independence () =
  let s = Store.create [ ("R", 2); ("T", 1) ] in
  let ok = function Ok () -> () | Error m -> Alcotest.fail m in
  ok (Store.add s ~rel:"R" [| Value.int 1; Value.int 2 |] (Q.of_ints 1 2));
  ok (Store.add s ~rel:"T" [| Value.int 9 |] (Q.of_ints 1 3));
  let q1 = Fo.Exists ("x", Fo.Exists ("y", Fo.Atom ("R", [ Fo.V "x"; Fo.V "y" ]))) in
  let q2 = Fo.Exists ("x", Fo.Atom ("T", [ Fo.V "x" ])) in
  (match Lifted.independence s q1 q2 with
  | Ok (indep, p1, p2, p12) ->
      Alcotest.(check bool) "disjoint relations are independent" true indep;
      Alcotest.(check bool) "product law" true (Q.equal p12 (Q.mul p1 p2))
  | Error e -> Alcotest.fail (Error.message e));
  match Lifted.independence s q1 q1 with
  | Ok (indep, p1, _, p12) ->
      (* Q ∧ Q ≡ Q: independent only when Pr(Q) ∈ {0, 1}. *)
      Alcotest.(check bool) "query not independent of itself" false indep;
      Alcotest.(check bool) "conjunction collapses" true (Q.equal p12 p1)
  | Error e -> Alcotest.fail (Error.message e)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kb"
    [
      ( "lifted",
        [
          prop "lifted UCQ = boolean_probability_exact on sub-gate instances" arb_kb_case lifted_agrees_with_enumeration;
          prop ~count:150 "union reordering and CQ renaming are invisible" arb_kb_case metamorphic_invariance;
          Alcotest.test_case "pool fan-out is bit-identical and step-invariant" `Quick test_parallel_matches_serial;
          Alcotest.test_case "exact independence certification" `Quick test_independence;
          prop ~count:150 "leaf rule = enumeration, one step per folded row" arb_kb_case leaf_rule_agrees;
          prop ~count:150 "shared components: enumeration, each charged once" arb_kb_case shared_components_agree;
          Alcotest.test_case "no candidates: an unsafe sub-plan is never reached" `Quick test_lazy_unsafe;
          Alcotest.test_case "leaf folds at par_threshold±1: jobs 1/2/3 identical" `Quick test_leaf_jobs_invariance;
          Alcotest.test_case "ucq_probability checks the schema like query" `Quick test_ucq_schema_check;
          Alcotest.test_case "Monte-Carlo intervals cover the exact probability" `Quick test_mc_coverage;
        ] );
      ( "store",
        [
          Alcotest.test_case "insert contract and marginal lookup" `Quick test_store_basics;
          Alcotest.test_case "bignum marginals spill exactly" `Quick test_store_spill;
          Alcotest.test_case "per-mask indexes answer bound-position probes" `Quick test_store_rows_matching;
          prop ~count:150 "rows_matching = ascending filter, every mask, two domains, after add" arb_store_case
            rows_matching_is_a_filter;
        ] );
      ( "kbfile",
        [
          Alcotest.test_case "write/load roundtrip with stable digest" `Quick test_kbfile_roundtrip;
          Alcotest.test_case "torn tail is ignored and flagged" `Quick test_kbfile_torn_tail;
          Alcotest.test_case "malformed records are typed errors" `Quick test_kbfile_malformed;
          prop ~count:500 "reader = whitespace-split reference on near-valid text" arb_kb_text reader_matches_reference;
          Alcotest.test_case "reader = reference across 64 KiB window refills" `Quick test_reader_window;
        ] );
      ( "generate",
        [
          prop ~count:150 "ti yields exactly the requested distinct facts" arb_gen_case generator_fact_count_exact;
          prop ~count:100 "kb_stream yields exactly the requested facts" arb_gen_case kb_stream_count_exact;
          Alcotest.test_case "capacity boundary" `Quick test_generator_at_capacity;
        ] );
    ]
