(* ipdb — command-line interface to the library.

   Subcommands:
     classify     run the representability classifier on a zoo family
     moments      certified size moments of a zoo family
     criterion    the Theorem 5.3 series of a zoo family
     sample       sample possible worlds from zoo PDBs
     construct    run a construction (completeness / segment / bid / decondition)
     prob         exact probability of an FO sentence on a built-in TI-PDB
     lineage      Boolean provenance of a sentence
     figures      re-verify and render the paper's Hasse diagrams
     check        analyse a view (fragment, safe-range, plan, PQE safety)
     export       serialise a built-in TI-PDB
     import       load a serialised PDB and summarise it
     zoo          list the built-in PDBs *)

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
module Bid = Ipdb_pdb.Bid
module Family = Ipdb_pdb.Family
module Zoo = Ipdb_core.Zoo
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Finite_complete = Ipdb_core.Finite_complete
module Segmentation = Ipdb_core.Segmentation
module Bid_repr = Ipdb_core.Bid_repr
module Decondition = Ipdb_core.Decondition
module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Checkpoint = Ipdb_run.Checkpoint
module Series = Ipdb_series.Series
module Pool = Ipdb_par.Pool
module Metrics = Ipdb_obs.Metrics
module Sink = Ipdb_obs.Sink

open Cmdliner

(* Exit-code contract (documented in README.md):
     0  success / certified-positive verdict
     1  certified-negative verdict
     2  usage error (bad arguments, unreadable input, missing certificate,
        I/O failure, or a journal/cache path locked by another writer —
        E_IO and E_LOCKED both land here)
     3  budget exhausted: a sound partial verdict was printed
     4  internal error (invalid certificate, injected fault, bug) *)

(* Last-resort boundary: anything escaping a subcommand becomes a one-line
   diagnostic plus the taxonomy's exit code — never an uncaught exception. *)
let guard f =
  try f () with
  | Ipdb_run.Faultinj.Injected site ->
    let err = Run_error.Injected_fault { site = Ipdb_run.Faultinj.site_name site } in
    Printf.eprintf "ipdb: %s\n" (Run_error.to_string err);
    exit (Run_error.exit_code err)
  | e ->
    let err = Run_error.of_exn e in
    Printf.eprintf "ipdb: %s\n" (Run_error.to_string err);
    exit (Run_error.exit_code err)

let fail_typed e =
  Printf.eprintf "ipdb: %s\n" (Run_error.to_string e);
  exit (Run_error.exit_code e)

let family_names = List.map fst Zoo.all_families

let find_family name =
  match List.assoc_opt name Zoo.all_families with
  | Some cf -> cf
  | None ->
    Printf.eprintf "unknown family %s; available: %s\n" name (String.concat ", " family_names);
    exit 2

let family_arg =
  let doc = "Zoo family (" ^ String.concat ", " family_names ^ ")." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)

let upto_arg default =
  Arg.(value & opt int default & info [ "upto" ] ~docv:"N" ~doc:"Number of series terms to compute.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Wall-clock budget in seconds. Exceeding it stops the run with a certified partial verdict (exit 3).")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Term-evaluation budget. Exceeding it stops the run with a certified partial verdict (exit 3).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel series engines (default: $(b,IPDB_JOBS), else the \
           machine's core count). Results are bit-identical for every $(docv); only wall-clock \
           time changes.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL trace of the run to $(docv): hierarchical spans for every \
           series engine and criterion probe, plus budget, journal and error events (schema in \
           DESIGN.md §9).")

let metrics_arg =
  Arg.(
    value
    & flag
    & info [ "metrics" ]
        ~doc:
          "Collect runtime counters (terms evaluated, budget steps, pool tasks, fsyncs, …) and \
           print a summary to stderr on exit.")

(* The at_exit hooks close the trace sink and print the metric summary
   while the pool's workers are still alive. They are parked by then (see
   [make_pool]), and a parked worker emits no event and changes no
   metric, so nothing is lost. *)
let setup_obs trace metrics =
  (match trace with
  | None -> ()
  | Some path -> (
    match Sink.open_jsonl path with
    | Ok s ->
      Sink.install s;
      at_exit Sink.uninstall
    | Error msg ->
      Printf.eprintf "ipdb: %s\n" msg;
      exit 2));
  if metrics || trace <> None then begin
    Metrics.enable ();
    if metrics then
      at_exit (fun () ->
          List.iter (fun l -> Printf.eprintf "metric %s\n" l) (Metrics.summary_lines ()))
  end

(* The CLI never shuts its pool down. Its only fan-out is
   [Pool.map_ordered] (directly or through [Reduce.map_fold]), which
   returns or raises only after all of its tasks have settled; it never
   calls [Pool.async]. So on every exit path, the non-zero exit codes
   included, the workers are parked in [Condition.wait]: they hold no
   task, write no trace line (lines are written synchronously) and update
   no metric (metrics are global atomics). Process exit ends them; joining
   them first would only wait for the runtime's domain teardown, ~3.5 ms
   of a ~5 ms [--jobs 2] process on a 2-vCPU VM. The serve daemon, whose
   handlers do run asynchronously, drains and joins its own pool. *)
let make_pool jobs = Pool.create ?jobs ()

let budget_of timeout max_steps =
  match (timeout, max_steps) with
  | None, None -> Budget.unlimited
  | _ -> Budget.make ?timeout ?max_steps ()

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Persist progress to $(docv) (atomic, checksummed) while the check runs, and on budget \
           exhaustion. A later run with $(b,--resume) continues from the saved state.")

let resume_arg =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "Continue from the state saved in the $(b,--checkpoint) file. The resumed run reproduces \
           the uninterrupted result exactly; a missing file starts fresh.")

let require_checkpoint_for_resume checkpoint resume =
  if resume && checkpoint = None then begin
    Printf.eprintf "ipdb: --resume requires --checkpoint FILE\n";
    exit 2
  end

let load_payload ~path =
  match Checkpoint.load ~path with Ok v -> v | Error e -> fail_typed e

let save_payload ~path payload =
  match Checkpoint.save ~path payload with Ok () -> () | Error e -> fail_typed e

(* Shared reporting for a budgeted series check: print the verdict, exit per
   the contract. [negative_exit] is what a certified Infinite_sum means for
   this command (moments: not in FO(TI); criterion: condition fails). *)
let finish_series_verdict ~render v =
  match v with
  | Criteria.Finite_sum _ | Criteria.Infinite_sum _ ->
    print_endline (render v);
    exit (match v with Criteria.Infinite_sum _ -> 1 | _ -> 0)
  | Criteria.Partial _ ->
    print_endline (render v);
    exit 3
  | Criteria.Invalid_certificate m ->
    Printf.eprintf "ipdb: certificate failed: %s\n" m;
    exit 4
  | Criteria.Check_failed e -> fail_typed e

(* Budgeted series check with optional durable progress: resume from the
   snapshot in the checkpoint file, save periodically while running, and
   leave a resumable snapshot behind on exhaustion (exit 3). *)
let run_series_check ~pool ~checkpoint ~resume ~budget ~start ~cert ~upto ~render term =
  require_checkpoint_for_resume checkpoint resume;
  let from =
    match checkpoint with
    | Some path when resume -> (
      match load_payload ~path with
      | None -> None
      | Some payload -> (
        match Series.Snapshot.of_string payload with
        | Ok s -> Some s
        | Error msg -> fail_typed (Run_error.Validation { what = "checkpoint " ^ path; msg })))
    | _ -> None
  in
  let save_snap =
    Option.map (fun path snap -> save_payload ~path (Series.Snapshot.to_string snap)) checkpoint
  in
  let v, snap =
    Criteria.check_series_resumable ~pool ~budget ?from ?progress:save_snap ~start ~cert ~upto term
  in
  (match (save_snap, v, snap) with
  | Some save, Criteria.Partial _, Some s -> save s
  | _ -> ());
  finish_series_verdict ~render v

(* classify *)
let classify_cmd =
  let run name upto timeout max_steps checkpoint resume jobs trace metrics =
    guard @@ fun () ->
    setup_obs trace metrics;
    require_checkpoint_for_resume checkpoint resume;
    let cf = find_family name in
    let budget = budget_of timeout max_steps in
    let pool = make_pool jobs in
    let v =
      match checkpoint with
      | None -> Classifier.classify ~pool ~budget ~upto cf
      | Some path ->
        let from =
          if resume then begin
            match load_payload ~path with
            | None -> Classifier.empty_checkpoint
            | Some payload -> (
              match Classifier.checkpoint_of_string payload with
              | Ok cp -> cp
              | Error msg -> fail_typed (Run_error.Validation { what = "checkpoint " ^ path; msg }))
          end
          else Classifier.empty_checkpoint
        in
        Classifier.classify_resumable ~pool ~budget ~upto ~from
          ~save:(fun cp -> save_payload ~path (Classifier.checkpoint_to_string cp))
          cf
    in
    print_endline (Classifier.verdict_to_string v);
    exit
      (match v with
      | Classifier.In_FOTI _ | Classifier.Undetermined _ -> 0
      | Classifier.Not_in_FOTI _ -> 1
      | Classifier.Partial _ -> 3)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Representability verdict for a zoo family")
    Term.(const run $ family_arg $ upto_arg 2000 $ timeout_arg $ max_steps_arg $ checkpoint_arg $ resume_arg $ jobs_arg $ trace_arg $ metrics_arg)

(* moments *)
let moments_cmd =
  let run name k upto timeout max_steps checkpoint resume jobs trace metrics =
    guard @@ fun () ->
    setup_obs trace metrics;
    let cf = find_family name in
    let upto = Stdlib.min upto cf.Zoo.check_upto in
    let budget = budget_of timeout max_steps in
    let pool = make_pool jobs in
    match cf.Zoo.moment_cert k with
    | None ->
      Printf.eprintf "ipdb: no certificate for k=%d\n" k;
      exit 2
    | Some cert ->
      run_series_check ~pool ~checkpoint ~resume ~budget ~start:cf.Zoo.family.Family.start ~cert ~upto
        ~render:(function
          | Criteria.Finite_sum e -> Printf.sprintf "E(|D|^%d) ∈ [%.9g, %.9g]" k (Interval.lo e) (Interval.hi e)
          | Criteria.Infinite_sum { partial; at } ->
            Printf.sprintf "E(|D|^%d) = ∞ (certified; partial sum %.6g after %d terms)" k partial at
          | v -> Printf.sprintf "E(|D|^%d): %s" k (Criteria.verdict_to_string v))
        (Family.moment_term cf.Zoo.family ~k)
  in
  let k_arg = Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Moment order.") in
  Cmd.v (Cmd.info "moments" ~doc:"Certified size moments")
    Term.(const run $ family_arg $ k_arg $ upto_arg 2000 $ timeout_arg $ max_steps_arg $ checkpoint_arg $ resume_arg $ jobs_arg $ trace_arg $ metrics_arg)

(* criterion *)
let criterion_cmd =
  let run name c upto timeout max_steps checkpoint resume jobs trace metrics =
    guard @@ fun () ->
    setup_obs trace metrics;
    let cf = find_family name in
    let upto = Stdlib.min upto cf.Zoo.check_upto in
    let budget = budget_of timeout max_steps in
    let pool = make_pool jobs in
    match cf.Zoo.thm53_cert c with
    | None ->
      Printf.eprintf "ipdb: no certificate for c=%d\n" c;
      exit 2
    | Some cert ->
      run_series_check ~pool ~checkpoint ~resume ~budget ~start:cf.Zoo.family.Family.start ~cert ~upto
        ~render:(function
          | Criteria.Finite_sum e ->
            Printf.sprintf "Σ|D|·P(D)^(%d/|D|) ∈ [%.9g, %.9g] < ∞ ⟹ in FO(TI) (Theorem 5.3)" c (Interval.lo e)
              (Interval.hi e)
          | Criteria.Infinite_sum { partial; at } ->
            Printf.sprintf "Σ|D|·P(D)^(%d/|D|) = ∞ (partial %.6g after %d terms)" c partial at
          | v -> Printf.sprintf "Σ|D|·P(D)^(%d/|D|): %s" c (Criteria.verdict_to_string v))
        (Family.theorem53_term cf.Zoo.family ~c)
  in
  let c_arg = Arg.(value & opt int 1 & info [ "c" ] ~docv:"C" ~doc:"Segment capacity.") in
  Cmd.v
    (Cmd.info "criterion" ~doc:"The Theorem 5.3 sufficient-condition series")
    Term.(const run $ family_arg $ c_arg $ upto_arg 2000 $ timeout_arg $ max_steps_arg $ checkpoint_arg $ resume_arg $ jobs_arg $ trace_arg $ metrics_arg)

(* sample *)
let sample_cmd =
  let run name count seed =
    guard @@ fun () ->
    let rng = Random.State.make [| seed |] in
    match name with
    | "car-accidents" ->
      for _ = 1 to count do
        print_endline (Instance.to_string (Bid.Infinite.sample Zoo.car_accidents rng))
      done
    | "example-b2" ->
      for _ = 1 to count do
        print_endline (Instance.to_string (Bid.Finite.sample Zoo.example_b2 rng))
      done
    | "example-5.6" ->
      for _ = 1 to count do
        let w, tv = Ti.Infinite.sample Zoo.example_5_6_ti ~n:50 rng in
        Printf.printf "%s  (truncation TV <= %.2e)\n" (Instance.to_string w) tv
      done
    | name ->
      let cf = find_family name in
      (* sample by inverse CDF over the family prefix *)
      for _ = 1 to count do
        let u = Random.State.float rng 1.0 in
        let rec pick n acc =
          let acc = acc +. cf.Zoo.family.Family.prob n in
          if u < acc || n > 200 then n else pick (n + 1) acc
        in
        let n = pick cf.Zoo.family.Family.start 0.0 in
        print_endline (Instance.to_string (cf.Zoo.family.Family.instance n))
      done
  in
  let count_arg = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of samples.") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "sample" ~doc:"Sample possible worlds (zoo families, car-accidents, example-b2, example-5.6)")
    Term.(const run $ family_arg $ count_arg $ seed_arg)

(* construct *)
let construct_cmd =
  let run which =
    guard @@ fun () ->
    match which with
    | "completeness" ->
      let schema = Schema.make [ ("R", 1) ] in
      let w k = Instance.of_list (List.init k (fun j -> Fact.make "R" [ Value.Int j ])) in
      let d = Finite_pdb.make schema [ (w 0, Q.of_ints 1 4); (w 1, Q.of_ints 1 4); (w 2, Q.half) ] in
      let repr = Finite_complete.represent d in
      Format.printf "%a@.%a@.exact: %b@." Ti.Finite.pp repr.Finite_complete.ti View.pp
        repr.Finite_complete.view
        (Finite_complete.verify d repr)
    | "segment" ->
      let d = Family.truncate_exact Zoo.sensor_bounded.Zoo.family ~n:4 in
      let out = Segmentation.bounded_size_representation d in
      Format.printf "%a@.condition: %s@.exact: %b@." Ti.Finite.pp out.Segmentation.ti
        (Fo.to_string out.Segmentation.condition)
        (Segmentation.verify_exact d out)
    | "bid" ->
      let bid = Zoo.propD3_truncation ~blocks:3 in
      let out = Bid_repr.represent bid in
      Format.printf "%a@.condition: %s@.exact: %b@." Ti.Finite.pp out.Bid_repr.ti
        (Fo.to_string out.Bid_repr.condition)
        (Bid_repr.verify bid out)
    | "decondition" ->
      let schema = Schema.make [ ("R", 1) ] in
      let ti =
        Ti.Finite.make schema
          [ (Fact.make "R" [ Value.Int 1 ], Q.half); (Fact.make "R" [ Value.Int 2 ], Q.of_ints 1 3) ]
      in
      let input =
        { Decondition.ti; condition = Fo.Exists ("x", Fo.atom "R" [ Fo.v "x" ]); view = View.identity schema }
      in
      let out = Decondition.decondition input in
      Format.printf "k = %d copies, q0 = %s@.%a@.exact: %b@." out.Decondition.copies
        (Q.to_string out.Decondition.q0) Ti.Finite.pp out.Decondition.ti'
        (Decondition.verify input out)
    | other ->
      Printf.eprintf "unknown construction %s (completeness|segment|bid|decondition)\n" other;
      exit 2
  in
  let which_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CONSTRUCTION"
           ~doc:"One of completeness, segment, bid, decondition.")
  in
  Cmd.v
    (Cmd.info "construct" ~doc:"Run one of the paper's constructions on a demo input")
    Term.(const run $ which_arg)

(* built-in finite TI-PDBs to query against (shared with the serve daemon,
   so `ipdb prob` and a served `pqe` answer over the same PDBs) *)
let builtin_tis = Ipdb_serve.Server.builtin_tis

let find_ti name =
  match List.assoc_opt name (builtin_tis ()) with
  | Some ti -> ti
  | None ->
    Printf.eprintf "unknown TI-PDB %s; available: %s\n" name
      (String.concat ", " (List.map fst (builtin_tis ())));
    exit 2

let ti_arg =
  Arg.(value & opt string "example-b3" & info [ "ti" ] ~docv:"PDB" ~doc:"Built-in TI-PDB to query.")

(* prob: exact sentence probability via lineage *)
let prob_cmd =
  let run ti_name query =
    guard @@ fun () ->
    let ti = find_ti ti_name in
    match Ipdb_logic.Parser.sentence query with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 2
    | Ok phi ->
      let l = Ipdb_pdb.Lineage.of_sentence ti phi in
      let p = Ipdb_pdb.Lineage.probability ti l in
      Printf.printf "P(%s) = %s ≈ %s\n" (Ipdb_logic.Fo.to_string phi) (Q.to_string p)
        (Q.to_decimal_string ~digits:8 p)
  in
  let query_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE" ~doc:"FO sentence, e.g. \"exists x. R(x,x)\".") in
  Cmd.v
    (Cmd.info "prob" ~doc:"Exact probability of an FO sentence on a built-in TI-PDB (via lineage)")
    Term.(const run $ ti_arg $ query_arg)

(* lineage: print the Boolean provenance *)
let lineage_cmd =
  let run ti_name query =
    guard @@ fun () ->
    let ti = find_ti ti_name in
    match Ipdb_logic.Parser.sentence query with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 2
    | Ok phi ->
      let l = Ipdb_pdb.Lineage.of_sentence ti phi in
      Format.printf "lineage: %a@.variables: %d, size: %d@." Ipdb_pdb.Lineage.pp l
        (List.length (Ipdb_pdb.Lineage.vars l))
        (Ipdb_pdb.Lineage.size l)
  in
  let query_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE" ~doc:"FO sentence.") in
  Cmd.v
    (Cmd.info "lineage" ~doc:"Boolean provenance of an FO sentence over a built-in TI-PDB")
    Term.(const run $ ti_arg $ query_arg)

(* check: analyse a view definition *)
let check_cmd =
  let run spec =
    guard @@ fun () ->
    match Ipdb_logic.Parser.view spec with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 2
    | Ok v ->
      List.iter
        (fun (d : Ipdb_logic.View.def) ->
          Printf.printf "%s(%s) := %s\n" d.Ipdb_logic.View.rel (String.concat "," d.Ipdb_logic.View.head)
            (Fo.to_string d.Ipdb_logic.View.body);
          Printf.printf "  fragment      : %s\n"
            (if Ipdb_logic.Classify.is_cq d.Ipdb_logic.View.body then "CQ"
             else if Ipdb_logic.Classify.is_ucq d.Ipdb_logic.View.body then "UCQ (positive existential)"
             else "full FO");
          (match Ipdb_logic.Safe_range.classify d.Ipdb_logic.View.body with
          | Ipdb_logic.Safe_range.Safe_range ->
            Printf.printf "  safe-range    : yes (domain independent)\n"
          | Ipdb_logic.Safe_range.Not_safe_range m -> Printf.printf "  safe-range    : no — %s\n" m);
          (match Ipdb_logic.Plan.compile_def d with
          | Ok plan -> Printf.printf "  algebra plan  : %s\n" (Ipdb_relational.Algebra.to_string plan)
          | Error m -> Printf.printf "  algebra plan  : unavailable — %s\n" m);
          match Ipdb_pdb.Pqe.cq_of_formula (Fo.exists_many d.Ipdb_logic.View.head d.Ipdb_logic.View.body) with
          | Some cq ->
            Printf.printf "  PQE (boolean) : self-join-free=%b hierarchical=%b (lifted plan %s)\n"
              (Ipdb_pdb.Pqe.is_self_join_free cq) (Ipdb_pdb.Pqe.is_hierarchical cq)
              (if Ipdb_pdb.Pqe.is_self_join_free cq && Ipdb_pdb.Pqe.is_hierarchical cq then "applies"
               else "refuses: needs lineage")
          | None -> Printf.printf "  PQE (boolean) : not a CQ\n")
        (Ipdb_logic.View.defs v)
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VIEW"
           ~doc:"View definitions, e.g. \"T(x) := exists y. R(x,y); U(x) := S(x)\".")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Analyse view definitions: fragment, safe-range, algebra plan, PQE safety")
    Term.(const run $ spec_arg)

(* export / import *)
let export_cmd =
  let run name =
    guard @@ fun () -> print_endline (Ipdb_pdb.Serialize.ti_to_string (find_ti name))
  in
  let name_arg = Arg.(value & pos 0 string "example-b3" & info [] ~docv:"PDB" ~doc:"Built-in TI-PDB.") in
  Cmd.v (Cmd.info "export" ~doc:"Serialise a built-in TI-PDB to stdout") Term.(const run $ name_arg)

let import_cmd =
  let run path =
    guard @@ fun () ->
    let text =
      match Ipdb_pdb.Serialize.load ~path with
      | Ok text -> text
      | Error e -> fail_typed e
    in
    let summarise_ti ti =
      Printf.printf "tuple-independent PDB: %d facts
" (List.length (Ipdb_pdb.Ti.Finite.facts ti));
      Printf.printf "  E|D|  = %s (= Σ marginals)
" (Q.to_string (Ipdb_pdb.Moments.expected_size ti));
      Printf.printf "  Var|D| = %s
" (Q.to_string (Ipdb_pdb.Moments.variance ti))
    in
    match Ipdb_pdb.Serialize.ti_of_string text with
    | Ok ti -> summarise_ti ti
    | Error _ -> (
      match Ipdb_pdb.Serialize.bid_of_string text with
      | Ok bid ->
        Printf.printf "BID-PDB: %d blocks, E|D| = %s
"
          (List.length (Ipdb_pdb.Bid.Finite.blocks bid))
          (Q.to_string (Ipdb_pdb.Bid.Finite.expected_size bid))
      | Error _ -> (
        match Ipdb_pdb.Serialize.pdb_of_string text with
        | Ok d ->
          Printf.printf "finite PDB: %d worlds, E|D| = %s
" (Finite_pdb.num_worlds d)
            (Q.to_string (Finite_pdb.expected_size d))
        | Error m ->
          Printf.eprintf "cannot parse %s: %s
" path m;
          exit 2))
  in
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Serialised PDB file.") in
  Cmd.v (Cmd.info "import" ~doc:"Load a serialised PDB and print a summary") Term.(const run $ path_arg)

(* figures *)
let figures_cmd =
  let run dot jobs trace metrics =
    guard @@ fun () ->
    setup_obs trace metrics;
    let pool = make_pool jobs in
    let emit d = print_string (if dot then Ipdb_core.Figure.to_dot d else Ipdb_core.Figure.to_text d) in
    emit (Ipdb_core.Figure.figure1 ~pool ());
    print_newline ();
    emit (Ipdb_core.Figure.figure4 ~pool ())
  in
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.") in
  Cmd.v
    (Cmd.info "figures" ~doc:"Re-verify and render the paper's Hasse diagrams (Figures 1 and 4)")
    Term.(const run $ dot_arg $ jobs_arg $ trace_arg $ metrics_arg)

(* zoo *)
let zoo_cmd =
  let run () =
    List.iter (fun (name, cf) -> Printf.printf "%-16s %s\n" name cf.Zoo.description) Zoo.all_families;
    Printf.printf "%-16s %s\n" "example-b2" "one BID block, two 1/2-facts (Figure 1 separation)";
    Printf.printf "%-16s %s\n" "example-5.6" "TI-PDB with marginals 1/(i²+1) (Prop. D.2)";
    Printf.printf "%-16s %s\n" "car-accidents" "Poisson counts per country (Section 1)"
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the built-in probabilistic databases") Term.(const run $ const ())

(* kb: million-fact TI knowledge bases (lib/kb) *)
let kb_cmd =
  let module Store = Ipdb_kb.Store in
  let module Kbfile = Ipdb_kb.Kbfile in
  let module Lifted = Ipdb_kb.Lifted in
  let parse_relations spec =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun part ->
           match String.index_opt part '/' with
           | Some i -> (
             let name = String.sub part 0 i in
             match int_of_string_opt (String.sub part (i + 1) (String.length part - i - 1)) with
             | Some arity when arity >= 0 -> (name, arity)
             | _ ->
               Printf.eprintf "bad relation spec %S (want Name/arity)\n" part;
               exit 2)
           | None ->
             Printf.eprintf "bad relation spec %S (want Name/arity)\n" part;
             exit 2)
  in
  let load_kb path =
    match Kbfile.load path with
    | Error e -> fail_typed e
    | Ok loaded ->
      if loaded.Kbfile.torn_tail then
        Printf.eprintf "ipdb: warning: %s has a torn final line (ignored)\n" path;
      loaded
  in
  let parse_sentence q =
    match Ipdb_logic.Parser.sentence q with
    | Ok phi -> phi
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 2
  in
  let gen_cmd =
    let run out facts seed relations universe =
      guard @@ fun () ->
      let relations = parse_relations relations in
      let st = Random.State.make [| seed |] in
      let stream =
        try Ipdb_pdb.Generate.kb_stream st ~relations ~facts ~universe
        with Invalid_argument msg -> fail_typed (Run_error.Validation { what = "kb gen"; msg })
      in
      match Kbfile.write ~path:out ~relations stream with
      | Error e -> fail_typed e
      | Ok n -> Printf.printf "wrote %d facts to %s\n" n out
    in
    let out_arg =
      Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output kb file.")
    in
    let facts_arg =
      Arg.(value & opt int 10_000 & info [ "facts" ] ~docv:"N" ~doc:"Number of distinct facts to generate.")
    in
    let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
    let relations_arg =
      Arg.(
        value
        & opt string "R/2,S/2,T/1"
        & info [ "relations" ] ~docv:"SPEC" ~doc:"Comma-separated Name/arity relation list.")
    in
    let universe_arg =
      Arg.(
        value
        & opt int 1000
        & info [ "universe" ] ~docv:"N"
            ~doc:
              "Active-domain size per position; the fact capacity is the sum of $(docv)^arity over \
               the relations and must cover --facts.")
    in
    Cmd.v
      (Cmd.info "gen" ~doc:"Generate a seeded random TI knowledge base (collision-free, streaming)")
      Term.(const run $ out_arg $ facts_arg $ seed_arg $ relations_arg $ universe_arg)
  in
  let kb_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Knowledge-base file (ipdbkb1).") in
  let print_stats loaded =
    let store = loaded.Kbfile.store in
    List.iter
      (fun (name, arity) ->
        let rows = match Store.handle store name with Some h -> Store.handle_rows h | None -> 0 in
        Printf.printf "relation %s/%d: %d facts\n" name arity rows)
      (Store.schema store);
    Printf.printf "facts: %d\n" (Store.fact_count store);
    Printf.printf "distinct values: %d\n" (Store.distinct_values store);
    Printf.printf "spilled marginals: %d\n" (Store.spilled store);
    Printf.printf "zero-marginal lines dropped: %d\n" loaded.Kbfile.zero_dropped;
    Printf.printf "expected instance size: %s\n" (Q.to_decimal_string ~digits:4 (Store.expected_size store));
    Printf.printf "digest: %016Lx\n" loaded.Kbfile.digest
  in
  let ingest_cmd =
    let run path trace metrics =
      guard @@ fun () ->
      setup_obs trace metrics;
      print_stats (load_kb path)
    in
    Cmd.v
      (Cmd.info "ingest" ~doc:"Load a kb file, verifying every record, and print a summary")
      Term.(const run $ kb_arg $ trace_arg $ metrics_arg)
  in
  let stats_cmd =
    let run path trace metrics =
      guard @@ fun () ->
      setup_obs trace metrics;
      print_stats (load_kb path)
    in
    Cmd.v (Cmd.info "stats" ~doc:"Summarise a kb file") Term.(const run $ kb_arg $ trace_arg $ metrics_arg)
  in
  let query_cmd =
    let run path query timeout max_steps jobs mc_samples seed delta trace metrics =
      guard @@ fun () ->
      setup_obs trace metrics;
      let pool = make_pool jobs in
      let loaded = load_kb path in
      let phi = parse_sentence query in
      let budget = budget_of timeout max_steps in
      let mc = if mc_samples > 0 then Some { Lifted.samples = mc_samples; seed; delta } else None in
      match Lifted.query ~pool ~budget ?mc loaded.Kbfile.store phi with
      | Error e -> fail_typed e
      | Ok (Lifted.Exact p) ->
        Printf.printf "P(%s) = %s ≈ %s\n" (Fo.to_string phi) (Q.to_string p)
          (Q.to_decimal_string ~digits:8 p);
        if Q.is_zero p then exit 1
      | Ok (Lifted.Estimated est) ->
        let iv = Ipdb_pdb.Estimate.interval est in
        Printf.printf "P(%s) ≈ %.6f ± %.6f (mc, %d samples, confidence %g, interval [%g, %g])\n"
          (Fo.to_string phi) est.Ipdb_pdb.Estimate.mean est.Ipdb_pdb.Estimate.statistical_halfwidth
          est.Ipdb_pdb.Estimate.samples est.Ipdb_pdb.Estimate.confidence iv.Interval.lo iv.Interval.hi;
        if est.Ipdb_pdb.Estimate.samples < mc_samples then begin
          Printf.eprintf "ipdb: budget exhausted after %d of %d samples (degraded estimate)\n"
            est.Ipdb_pdb.Estimate.samples mc_samples;
          exit 3
        end
    in
    let query_arg =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"SENTENCE" ~doc:"Positive-existential sentence, e.g. \"exists x y. R(x,y)\".")
    in
    let mc_samples_arg =
      Arg.(
        value
        & opt int 0
        & info [ "mc-samples" ] ~docv:"N"
            ~doc:
              "Monte-Carlo sample count for queries with no safe lifted plan (0 = exact only; an \
               unsafe query is then refused with a validation error).")
    in
    let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Monte-Carlo RNG seed.") in
    let delta_arg =
      Arg.(value & opt float 0.05 & info [ "delta" ] ~docv:"D" ~doc:"Hoeffding failure probability.")
    in
    Cmd.v
      (Cmd.info "query"
         ~doc:
           "Exact lifted UCQ probability over a kb file (inclusion-exclusion over safe plans; \
            Monte-Carlo fallback with --mc-samples)")
      Term.(
        const run $ kb_arg $ query_arg $ timeout_arg $ max_steps_arg $ jobs_arg $ mc_samples_arg
        $ seed_arg $ delta_arg $ trace_arg $ metrics_arg)
  in
  let indep_cmd =
    let run path q1 q2 timeout max_steps jobs trace metrics =
      guard @@ fun () ->
      setup_obs trace metrics;
      let pool = make_pool jobs in
      let loaded = load_kb path in
      let phi1 = parse_sentence q1 and phi2 = parse_sentence q2 in
      let budget = budget_of timeout max_steps in
      match Lifted.independence ~pool ~budget loaded.Kbfile.store phi1 phi2 with
      | Error e -> fail_typed e
      | Ok (indep, p1, p2, p12) ->
        Printf.printf "P(Q1) = %s\nP(Q2) = %s\nP(Q1 and Q2) = %s\nP(Q1)*P(Q2) = %s\n" (Q.to_string p1)
          (Q.to_string p2) (Q.to_string p12)
          (Q.to_string (Q.mul p1 p2));
        Printf.printf "independent: %b\n" indep;
        if not indep then exit 1
    in
    let q1_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"Q1" ~doc:"First sentence.") in
    let q2_arg = Arg.(required & pos 2 (some string) None & info [] ~docv:"Q2" ~doc:"Second sentence.") in
    Cmd.v
      (Cmd.info "indep"
         ~doc:"Exact independence test: is P(Q1 and Q2) = P(Q1) * P(Q2)? (exit 1 when dependent)")
      Term.(
        const run $ kb_arg $ q1_arg $ q2_arg $ timeout_arg $ max_steps_arg $ jobs_arg $ trace_arg
        $ metrics_arg)
  in
  Cmd.group
    (Cmd.info "kb" ~doc:"Million-fact TI knowledge bases: generate, ingest, query, independence")
    [ gen_cmd; ingest_cmd; query_cmd; stats_cmd; indep_cmd ]

(* serve: the persistent query daemon *)
let serve_cmd =
  let run port jobs queue_limit degraded_steps default_timeout journal cache kb_file fault_rate
      fault_seed slow_worker force_lock follow trace metrics =
    guard @@ fun () ->
    setup_obs trace metrics;
    let cfg =
      {
        Ipdb_serve.Server.default_config with
        port;
        jobs;
        queue_limit;
        degraded_max_steps = degraded_steps;
        default_timeout;
        journal;
        cache_file = cache;
        kb_file;
        fault_rate;
        fault_seed;
        slow_worker;
        force_lock;
        follow;
      }
    in
    match Ipdb_serve.Server.run cfg with Ok () -> () | Error e -> fail_typed e
  in
  let port_arg =
    Arg.(value & opt int 7411 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 for ephemeral).")
  in
  let queue_arg =
    Arg.(
      value
      & opt int 16
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Admitted-beyond-workers bound; connections beyond it are shed with E_BUSY.")
  in
  let degraded_arg =
    Arg.(
      value
      & opt int 20000
      & info [ "degraded-max-steps" ] ~docv:"N"
          ~doc:
            "Step cap applied to requests admitted while all workers are busy — they return sound \
             partial verdicts (status 3) instead of queueing unboundedly.")
  in
  let default_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-timeout" ] ~docv:"SECS" ~doc:"Per-request deadline when the client sends none.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal accepted requests to $(docv) (fsync before compute). After a crash, requests \
             that were accepted but never answered are replayed on restart.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:"Persist the verdict cache to $(docv) (atomic checkpoints; loaded on start).")
  in
  let kb_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kb" ] ~docv:"FILE"
          ~doc:
            "Serve exact lifted UCQ queries (the $(b,kb) op) over this ipdbkb1 knowledge base. The \
             file is fully verified at startup and its content digest keys the verdict cache.")
  in
  let fault_rate_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P" ~doc:"Arm the serve-worker fault-injection site (tests).")
  in
  let fault_seed_arg = Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault PRNG seed.") in
  let slow_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "slow-worker" ] ~docv:"SECS" ~doc:"Injected per-request delay (tests/bench).")
  in
  let force_lock_arg =
    Arg.(
      value
      & flag
      & info [ "force-lock" ]
          ~doc:
            "Skip the advisory single-writer locks on the journal and cache files. Without it a \
             second daemon on the same paths is refused with E_LOCKED (exit 2). Use only to \
             reclaim paths after an unclean platform — never to share them between live daemons.")
  in
  let follow_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "follow" ] ~docv:"PORT"
          ~doc:
            "Start as a hot-standby follower of the leader at 127.0.0.1:$(docv): tail its journal \
             over the repl wire op into our own --journal (required), serve cached reads, shed \
             uncached ones with E_STALE. Promote with $(b,ipdb promote) or SIGUSR1.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Fault-tolerant persistent query daemon (framed TCP protocol)")
    Term.(
      const run $ port_arg $ jobs_arg $ queue_arg $ degraded_arg $ default_timeout_arg $ journal_arg
      $ cache_arg $ kb_file_arg $ fault_rate_arg $ fault_seed_arg $ slow_arg $ force_lock_arg
      $ follow_arg $ trace_arg $ metrics_arg)

(* request: one-shot client, exit code mirrors the response status *)
let request_cmd =
  let run port ports retries retry_base_ms retry_seed timeout raw payload =
    guard @@ fun () ->
    if raw then begin
      match Ipdb_serve.Client.request_raw ~retries ~port payload with
      | Ok line ->
        print_string line;
        if not (String.length line > 0 && line.[String.length line - 1] = '\n') then print_newline ()
      | Error msg ->
        Printf.eprintf "ipdb: %s\n" msg;
        exit 2
    end
    else
      let backoff =
        {
          Ipdb_serve.Client.default_backoff with
          retries;
          base_delay = float_of_int retry_base_ms /. 1000.0;
          seed = retry_seed;
        }
      in
      let result =
        match ports with
        | [] -> Ipdb_serve.Client.request_with_retry ~backoff ?timeout ~port payload
        | ports -> Ipdb_serve.Client.request_failover ~backoff ?timeout ~ports payload
      in
      match result with
      | Error msg ->
        Printf.eprintf "ipdb: %s\n" msg;
        exit 2
      | Ok { Ipdb_serve.Protocol.status; body } ->
        Printf.printf "%s %s\n" (Ipdb_serve.Protocol.status_token status) body;
        exit (Ipdb_serve.Protocol.status_exit_code status)
  in
  let port_arg = Arg.(value & opt int 7411 & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port.") in
  let ports_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "ports" ] ~docv:"P1,P2,..."
          ~doc:
            "Failover address list: try each daemon in order until one answers definitively. \
             E_BUSY, E_STALE and transport failures (refused, reset, --timeout) move to the next \
             address; a whole failed round backs off and sweeps again per --retries. Overrides \
             --port.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Bound the whole response read: a stalled or byte-trickling server cannot hang the \
             client past this deadline.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) times on connection-refused and E_BUSY sheds, with seeded \
             exponential backoff and jitter (deterministic for a fixed --retry-seed). With --raw: \
             plain connect retries, 0.1s apart.")
  in
  let retry_base_arg =
    Arg.(
      value
      & opt int 100
      & info [ "retry-base-ms" ] ~docv:"MS" ~doc:"First-retry backoff delay, before jitter.")
  in
  let retry_seed_arg =
    Arg.(value & opt int 0 & info [ "retry-seed" ] ~docv:"SEED" ~doc:"Backoff jitter seed.")
  in
  let raw_arg =
    Arg.(value & flag & info [ "raw" ] ~doc:"Send the payload bytes verbatim, unframed (protocol tests).")
  in
  let payload_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST" ~doc:"Request payload, e.g. \"classify geometric upto=2000\".")
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Send one request to a running ipdb serve daemon")
    Term.(
      const run $ port_arg $ ports_arg $ retries_arg $ retry_base_arg $ retry_seed_arg $ timeout_arg
      $ raw_arg $ payload_arg)

(* promote: turn a follower into the leader (epoch-fenced failover) *)
let promote_cmd =
  let run port retries =
    guard @@ fun () ->
    match Ipdb_serve.Client.request ~retries ~port "promote" with
    | Error msg ->
      Printf.eprintf "ipdb: %s\n" msg;
      exit 2
    | Ok { Ipdb_serve.Protocol.status; body } ->
      Printf.printf "%s %s\n" (Ipdb_serve.Protocol.status_token status) body;
      exit (Ipdb_serve.Protocol.status_exit_code status)
  in
  let port_arg = Arg.(value & opt int 7411 & info [ "port" ] ~docv:"PORT" ~doc:"Follower port.") in
  let retries_arg =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc:"Connect retries, 0.1s apart.")
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a follower daemon to leader: complete its journaled pending requests under \
          their original ids and bump the epoch, fencing the old leader (E_FENCED)")
    Term.(const run $ port_arg $ retries_arg)

(* version: package plus every on-disk/wire format version *)
let version_cmd =
  let run () = print_endline (Ipdb_serve.Server.version_string ()) in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the package version and all on-disk/wire format versions")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "ipdb"
      ~version:(Ipdb_serve.Server.version_string ())
      ~doc:"Tuple-independent representations of infinite PDBs"
  in
  let code =
    Cmd.eval (Cmd.group info [ classify_cmd; moments_cmd; criterion_cmd; sample_cmd; construct_cmd; prob_cmd; lineage_cmd; figures_cmd; check_cmd; export_cmd; import_cmd; zoo_cmd; kb_cmd; serve_cmd; request_cmd; promote_cmd; version_cmd ])
  in
  (* map cmdliner's reserved codes onto the documented contract:
     124 (cli error) → 2 usage, 125 (internal) → 4 internal *)
  exit (if code = 124 then 2 else if code = 125 then 4 else code)
