(* The execution engine's robustness contract: budgets degrade to certified
   partial verdicts, injected faults surface as typed errors (never escaped
   exceptions), and the repo stays hygienic. *)

module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Faultinj = Ipdb_run.Faultinj
module Series = Ipdb_series.Series
module Interval = Ipdb_series.Interval
module Q = Ipdb_bignum.Q
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Value = Ipdb_relational.Value
module Ti = Ipdb_pdb.Ti
module Serialize = Ipdb_pdb.Serialize
module Env = Ipdb_env.Env
module Simenv = Ipdb_env.Simenv
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Zoo = Ipdb_core.Zoo

let geom_term n = Float.ldexp 1.0 (-n) (* 2^{-n}, sums to 1 from n = 1 *)
let geom_tail = Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 }

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

let test_error_codes () =
  let cases =
    [ (Run_error.Parse { what = "ti"; msg = "m" }, "E_PARSE", 2);
      (Run_error.Validation { what = "x"; msg = "m" }, "E_VALIDATION", 2);
      (Run_error.Certificate { what = "tail"; msg = "m" }, "E_CERTIFICATE", 4);
      (Run_error.Io { path = "/p"; msg = "m" }, "E_IO", 2);
      ( Run_error.Exhausted { what = "sum"; reason = Run_error.Steps { used = 3; limit = 2 } },
        "E_BUDGET", 3 );
      (Run_error.Injected_fault { site = "sampling" }, "E_FAULT", 4);
      (Run_error.Internal { msg = "m" }, "E_INTERNAL", 4)
    ]
  in
  List.iter
    (fun (e, code, exit_code) ->
      Alcotest.(check string) code code (Run_error.code e);
      Alcotest.(check int) (code ^ " exit") exit_code (Run_error.exit_code e);
      (* to_string leads with the stable code *)
      Alcotest.(check bool) (code ^ " prefix") true
        (String.length (Run_error.to_string e) > String.length code
        && String.sub (Run_error.to_string e) 0 (String.length code) = code))
    cases

let test_of_exn () =
  (match Run_error.of_exn (Sys_error "no such file") with
  | Run_error.Io _ -> ()
  | e -> Alcotest.failf "Sys_error -> %s" (Run_error.code e));
  (match Run_error.of_exn (Invalid_argument "bad") with
  | Run_error.Validation _ -> ()
  | e -> Alcotest.failf "Invalid_argument -> %s" (Run_error.code e));
  (match Run_error.of_exn (Failure "bad") with
  | Run_error.Validation _ -> ()
  | e -> Alcotest.failf "Failure -> %s" (Run_error.code e));
  match Run_error.of_exn Not_found with
  | Run_error.Internal _ -> ()
  | e -> Alcotest.failf "Not_found -> %s" (Run_error.code e)

(* ------------------------------------------------------------------ *)
(* Budget mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.make ~max_steps:10 () in
  for i = 1 to 10 do
    match Budget.check b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "tripped early at step %d: %s" i (Run_error.exhaustion_to_string e)
  done;
  (match Budget.check b with
  | Error (Run_error.Steps { limit = 10; _ }) -> ()
  | Error e -> Alcotest.failf "wrong exhaustion: %s" (Run_error.exhaustion_to_string e)
  | Ok () -> Alcotest.fail "step budget did not trip");
  (* tripped budgets stay tripped *)
  (match Budget.check b with
  | Error (Run_error.Steps _) -> ()
  | _ -> Alcotest.fail "budget reset after tripping");
  Alcotest.(check bool) "steps counted" true (Budget.steps_used b >= 10)

let test_budget_cancel () =
  let cancelled = ref false in
  let b = Budget.make ~cancel:(fun () -> !cancelled) () in
  (match Budget.check b with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "cancel tripped before the flag was raised");
  cancelled := true;
  (* the flag is polled every few steps: it must trip within the poll window *)
  let tripped = ref false in
  for _ = 1 to 40 do
    match Budget.check b with
    | Error Run_error.Cancelled -> tripped := true
    | Error e -> Alcotest.failf "wrong exhaustion: %s" (Run_error.exhaustion_to_string e)
    | Ok () -> ()
  done;
  Alcotest.(check bool) "cancellation observed within the poll window" true !tripped

let test_budget_timeout () =
  let b = Budget.make ~timeout:0.005 () in
  Unix.sleepf 0.02;
  let tripped = ref false in
  for _ = 1 to 40 do
    match Budget.check b with
    | Error (Run_error.Timeout { elapsed; limit }) ->
      tripped := true;
      Alcotest.(check bool) "elapsed >= limit" true (elapsed >= limit)
    | Error e -> Alcotest.failf "wrong exhaustion: %s" (Run_error.exhaustion_to_string e)
    | Ok () -> ()
  done;
  Alcotest.(check bool) "deadline observed within the poll window" true !tripped

let test_budget_validation () =
  Alcotest.check_raises "negative timeout" (Invalid_argument "Budget.make: timeout must be positive")
    (fun () -> ignore (Budget.make ~timeout:(-1.0) ()));
  Alcotest.check_raises "zero steps" (Invalid_argument "Budget.make: max_steps must be positive")
    (fun () -> ignore (Budget.make ~max_steps:0 ()));
  Alcotest.(check bool) "unlimited is unlimited" true (Budget.is_unlimited Budget.unlimited);
  for _ = 1 to 1000 do
    match Budget.check Budget.unlimited with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unlimited budget tripped"
  done

(* ------------------------------------------------------------------ *)
(* Budgeted summation: the Partial-verdict soundness contract          *)
(* ------------------------------------------------------------------ *)

let test_sum_budgeted_partial_sound () =
  let budget = Budget.make ~max_steps:100 () in
  match Series.sum_budgeted ~start:1 ~budget geom_term ~tail:geom_tail ~upto:1_000_000 with
  | Ok (Series.Exhausted p) ->
    Alcotest.(check int) "requested prefix" 1_000_000 p.Series.requested;
    Alcotest.(check bool) "stopped within the budget" true (p.Series.last <= 101 && p.Series.last >= 1);
    (match p.Series.exhausted with
    | Run_error.Steps _ -> ()
    | e -> Alcotest.failf "wrong exhaustion: %s" (Run_error.exhaustion_to_string e));
    (* soundness: the enclosure (prefix + analytic tail bound at the stop
       index) must contain the true infinite sum, 1.0 *)
    (match p.Series.enclosure with
    | Some e -> Alcotest.(check bool) "enclosure contains the true sum" true (Interval.contains e 1.0)
    | None -> Alcotest.fail "geometric tail must be boundable at any stop index");
    (* the prefix's certified lower bound must lie below the true sum *)
    Alcotest.(check bool) "prefix lower bound below full sum" true (Interval.lo p.Series.prefix < 1.0)
  | Ok (Series.Complete _) -> Alcotest.fail "100-step budget cannot complete 10^6 terms"
  | Error e -> Alcotest.failf "unexpected error: %s" (Run_error.to_string e)

let test_sum_budgeted_complete_matches_sum () =
  let budget = Budget.make ~max_steps:10_000 () in
  match
    ( Series.sum_budgeted ~start:1 ~budget geom_term ~tail:geom_tail ~upto:60,
      Series.sum ~start:1 geom_term ~tail:geom_tail ~upto:60 )
  with
  | Ok (Series.Complete b), Ok u ->
    Alcotest.(check (float 0.0)) "lo agrees" (Interval.lo u) (Interval.lo b);
    Alcotest.(check (float 0.0)) "hi agrees" (Interval.hi u) (Interval.hi b)
  | Ok (Series.Exhausted _), _ -> Alcotest.fail "budget should not trip on 60 terms"
  | Error e, _ -> Alcotest.failf "budgeted: %s" (Run_error.to_string e)
  | _, Error m -> Alcotest.failf "unbudgeted: %s" m

let test_divergence_budgeted () =
  let harmonic n = 1.0 /. float_of_int n in
  let certificate = Series.Divergence.Harmonic { index = 1; coeff = 1.0 } in
  let budget = Budget.make ~max_steps:1_000 () in
  match Series.certify_divergence_budgeted ~start:1 ~budget harmonic ~certificate ~upto:10_000_000 with
  | Ok (Series.Div_exhausted { partial; minorant; last; requested; exhausted }) ->
    Alcotest.(check int) "requested" 10_000_000 requested;
    Alcotest.(check bool) "stopped early" true (last < 2_000);
    Alcotest.(check bool) "witness partial positive" true (partial > 0.0);
    Alcotest.(check bool) "minorant positive" true (minorant > 0.0);
    (match exhausted with
    | Run_error.Steps _ -> ()
    | e -> Alcotest.failf "wrong exhaustion: %s" (Run_error.exhaustion_to_string e))
  | Ok (Series.Div_complete _) -> Alcotest.fail "1000-step budget cannot validate 10^7 terms"
  | Error e -> Alcotest.failf "unexpected error: %s" (Run_error.to_string e)

let test_cancel_mid_sum () =
  let count = ref 0 in
  let budget = Budget.make ~cancel:(fun () -> incr count; !count > 3) () in
  match Series.sum_budgeted ~start:1 ~budget geom_term ~tail:geom_tail ~upto:1_000_000 with
  | Ok (Series.Exhausted p) -> (
    match p.Series.exhausted with
    | Run_error.Cancelled -> ()
    | e -> Alcotest.failf "wrong exhaustion: %s" (Run_error.exhaustion_to_string e))
  | Ok (Series.Complete _) -> Alcotest.fail "cancelled run completed"
  | Error e -> Alcotest.failf "unexpected error: %s" (Run_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Fault injection: every degradation path returns a typed error       *)
(* ------------------------------------------------------------------ *)

let with_faults ?seed ?rate sites f =
  Faultinj.arm ?seed ?rate sites;
  Fun.protect ~finally:Faultinj.disarm f

let test_fault_term_eval () =
  with_faults [ Faultinj.Term_eval ] @@ fun () ->
  match Series.sum_budgeted ~start:1 geom_term ~tail:geom_tail ~upto:100 with
  | Error (Run_error.Injected_fault _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Run_error.to_string e)
  | Ok _ -> Alcotest.fail "armed Term_eval fault did not surface"

let test_fault_term_eval_divergence () =
  with_faults [ Faultinj.Term_eval ] @@ fun () ->
  let certificate = Series.Divergence.Harmonic { index = 1; coeff = 1.0 } in
  match
    Series.certify_divergence_budgeted ~start:1 (fun n -> 1.0 /. float_of_int n) ~certificate ~upto:100
  with
  | Error (Run_error.Injected_fault _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Run_error.to_string e)
  | Ok _ -> Alcotest.fail "armed Term_eval fault did not surface"

let test_fault_sampling () =
  with_faults [ Faultinj.Sampling ] @@ fun () ->
  let ti =
    Ti.Finite.make (Schema.make [ ("R", 1) ]) [ (Fact.make "R" [ Value.Int 1 ], Q.half) ]
  in
  let rng = Random.State.make [| 1 |] in
  match Faultinj.protect ~what:"sample" (fun () -> Ti.Finite.sample ti rng) with
  | Error (Run_error.Injected_fault { site }) -> Alcotest.(check string) "site" "sampling" site
  | Error e -> Alcotest.failf "wrong error: %s" (Run_error.to_string e)
  | Ok _ -> Alcotest.fail "armed Sampling fault did not surface"

(* Serialize.load reads through Env, so the simulated backend reaches it:
   an EIO at any operation of the read comes back as a typed Io error,
   never an exception. Only an EIO at the final close is ignored, and
   then the text read is complete. *)
let test_fault_io () =
  let path = "pdb.ti" in
  let text = "(ti (schema (R 1)) ((R 1) 1/2))" in
  let sim = Simenv.create () in
  Env.with_env (Simenv.env sim) @@ fun () ->
  Ioutil.atomic_replace ~path text;
  let load plan =
    Simenv.set_plan sim plan;
    Simenv.reset_ops sim;
    match Serialize.load ~path with
    | r -> r
    | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e)
  in
  Alcotest.(check (result string reject)) "quiet read" (Ok text) (load Simenv.quiet);
  let ops = Simenv.op_log sim in
  let kinds = List.map (fun (op : Simenv.op) -> op.kind) ops in
  Alcotest.(check bool) "the read opens and reads" true (List.mem Simenv.Open kinds && List.mem Simenv.Read kinds);
  List.iter
    (fun (op : Simenv.op) ->
      let where = Simenv.op_kind_name op.kind in
      match load { Simenv.faults = [ Simenv.Err { at = op.index; errno = Unix.EIO } ]; agitate = None } with
      | Error (Run_error.Io { path = p; msg }) ->
        Alcotest.(check string) (where ^ ": path") path p;
        Alcotest.(check string) (where ^ ": msg") (Unix.error_message Unix.EIO) msg
      | Ok t when op.kind = Simenv.Close -> Alcotest.(check string) "close fault after a full read" text t
      | Ok _ -> Alcotest.failf "EIO at %s was not reported" where
      | Error e -> Alcotest.failf "EIO at %s: wrong error %s" where (Run_error.to_string e))
    ops

let test_fault_certificate () =
  with_faults [ Faultinj.Certificate ] @@ fun () ->
  match Series.sum_budgeted ~start:1 geom_term ~tail:geom_tail ~upto:100 with
  | Error (Run_error.Injected_fault _) | Error (Run_error.Certificate _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Run_error.to_string e)
  | Ok _ -> Alcotest.fail "armed Certificate fault did not surface"

let test_fault_seeded_deterministic () =
  let run () =
    with_faults ~seed:42 ~rate:0.3 [ Faultinj.Sampling ] @@ fun () ->
    List.init 200 (fun _ -> Result.is_error (Faultinj.protect (fun () -> Faultinj.fire Faultinj.Sampling)))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same failure pattern" true (a = b);
  Alcotest.(check bool) "rate 0.3 fires sometimes" true (List.exists Fun.id a);
  Alcotest.(check bool) "rate 0.3 spares sometimes" true (List.exists not a)

let test_disarmed_is_inert () =
  Faultinj.disarm ();
  Alcotest.(check bool) "not armed" false (Faultinj.armed Faultinj.Term_eval);
  (* fire at every site: must be a no-op *)
  List.iter Faultinj.fire [ Faultinj.Term_eval; Faultinj.Sampling; Faultinj.Certificate; Faultinj.Serve_worker ]

(* ------------------------------------------------------------------ *)
(* Budgets through the verdict stack                                   *)
(* ------------------------------------------------------------------ *)

let test_criteria_partial () =
  let cf = Zoo.geometric in
  let cert = Option.get (cf.Zoo.moment_cert 1) in
  let budget = Budget.make ~max_steps:50 () in
  match Criteria.moment_verdict ~budget cf.Zoo.family ~k:1 ~cert ~upto:1_000_000 with
  | Criteria.Partial { enclosure; partial; at; requested; exhausted = _ } ->
    Alcotest.(check int) "requested" 1_000_000 requested;
    Alcotest.(check bool) "stopped within budget" true (at <= 51);
    Alcotest.(check bool) "partial sum positive" true (partial > 0.0);
    (match enclosure with
    | Some e -> Alcotest.(check bool) "sound enclosure of E|D| = 1" true (Interval.contains e 1.0)
    | None -> Alcotest.fail "geometric tail must bound the remainder")
  | v -> Alcotest.failf "expected Partial, got %s" (Criteria.verdict_to_string v)

let test_criteria_fault_is_typed () =
  with_faults [ Faultinj.Term_eval ] @@ fun () ->
  let cf = Zoo.geometric in
  let cert = Option.get (cf.Zoo.moment_cert 1) in
  match Criteria.moment_verdict cf.Zoo.family ~k:1 ~cert ~upto:100 with
  | Criteria.Check_failed (Run_error.Injected_fault _) -> ()
  | v -> Alcotest.failf "expected Check_failed(Injected_fault), got %s" (Criteria.verdict_to_string v)

let test_classifier_partial () =
  let budget = Budget.make ~max_steps:100 () in
  let cf = Zoo.example_5_5 in
  (match Classifier.classify ~budget cf with
  | Classifier.Partial _ as v ->
    Alcotest.(check bool) "partial agrees with any expectation" true (Classifier.agrees_with_paper cf v)
  | v -> Alcotest.failf "expected Partial, got %s" (Classifier.verdict_to_string v));
  (* a bounded-size family classifies instantly, budget or not *)
  match Classifier.classify ~budget:(Budget.make ~max_steps:1 ()) Zoo.geometric with
  | Classifier.In_FOTI (Classifier.Bounded_size 1) -> ()
  | v -> Alcotest.failf "geometric: %s" (Classifier.verdict_to_string v)

let test_classifier_unbudgeted_unchanged () =
  (* the budget thread must not perturb certified verdicts *)
  List.iter
    (fun (name, cf) ->
      let v = Classifier.classify cf in
      Alcotest.(check bool) (name ^ " agrees with paper") true (Classifier.agrees_with_paper cf v);
      match v with
      | Classifier.Partial _ -> Alcotest.failf "%s: partial verdict without a budget" name
      | _ -> ())
    Zoo.all_families

(* ------------------------------------------------------------------ *)
(* Repo hygiene: build artifacts must never be tracked                 *)
(* ------------------------------------------------------------------ *)

let test_build_not_in_index () =
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir ".git") then Some dir
    else begin
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent
    end
  in
  match find_root (Sys.getcwd ()) with
  | None -> () (* not running inside a git checkout: nothing to assert *)
  | Some root -> (
    let cmd = Printf.sprintf "git -C %s ls-files -- _build" (Filename.quote root) in
    let ic = Unix.open_process_in cmd in
    let tracked = ref [] in
    (try
       while true do
         tracked := input_line ic :: !tracked
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 ->
      if !tracked <> [] then
        Alcotest.failf "%d _build file(s) tracked in the git index (e.g. %s); run: git rm -r --cached _build"
          (List.length !tracked) (List.hd !tracked)
    | _ -> () (* git unavailable in this environment *))

let () =
  Alcotest.run "run"
    [ ( "errors",
        [ Alcotest.test_case "codes and exit codes" `Quick test_error_codes;
          Alcotest.test_case "of_exn classification" `Quick test_of_exn
        ] );
      ( "budget",
        [ Alcotest.test_case "step limit" `Quick test_budget_steps;
          Alcotest.test_case "cancellation" `Quick test_budget_cancel;
          Alcotest.test_case "deadline" `Quick test_budget_timeout;
          Alcotest.test_case "parameter validation" `Quick test_budget_validation
        ] );
      ( "partial verdicts",
        [ Alcotest.test_case "exhausted sum is sound" `Quick test_sum_budgeted_partial_sound;
          Alcotest.test_case "complete budgeted = unbudgeted" `Quick test_sum_budgeted_complete_matches_sum;
          Alcotest.test_case "exhausted divergence" `Quick test_divergence_budgeted;
          Alcotest.test_case "cancellation mid-sum" `Quick test_cancel_mid_sum;
          Alcotest.test_case "criteria Partial verdict" `Quick test_criteria_partial;
          Alcotest.test_case "classifier Partial verdict" `Quick test_classifier_partial;
          Alcotest.test_case "unbudgeted classifier unchanged" `Quick test_classifier_unbudgeted_unchanged
        ] );
      ( "fault injection",
        [ Alcotest.test_case "term eval (convergent)" `Quick test_fault_term_eval;
          Alcotest.test_case "term eval (divergent)" `Quick test_fault_term_eval_divergence;
          Alcotest.test_case "sampling" `Quick test_fault_sampling;
          Alcotest.test_case "serializer io" `Quick test_fault_io;
          Alcotest.test_case "certificate validation" `Quick test_fault_certificate;
          Alcotest.test_case "criteria fault is typed" `Quick test_criteria_fault_is_typed;
          Alcotest.test_case "seeded and deterministic" `Quick test_fault_seeded_deterministic;
          Alcotest.test_case "disarmed is inert" `Quick test_disarmed_is_inert
        ] );
      ("hygiene", [ Alcotest.test_case "_build untracked" `Quick test_build_not_in_index ])
    ]
