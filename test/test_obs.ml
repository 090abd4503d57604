(* The observability layer (lib/obs) and its instrumentation contract:
   span trees are well-nested per domain even when several domains emit
   concurrently, hot-path counters are exact and independent of the
   worker count, every emitted JSONL line round-trips through the schema
   validator, and a fault-injection drive proves each E_* error code of
   the taxonomy surfaces as a structured trace event. *)

module OJson = Ipdb_obs.Json
module Metrics = Ipdb_obs.Metrics
module Sink = Ipdb_obs.Sink
module Trace = Ipdb_obs.Trace
module Schema = Ipdb_obs.Schema
module Interval = Ipdb_series.Interval
module Series = Ipdb_series.Series
module Budget = Ipdb_run.Budget
module Checkpoint = Ipdb_run.Checkpoint
module Supervisor = Ipdb_run.Supervisor
module Run_error = Ipdb_run.Error
module Faultinj = Ipdb_run.Faultinj
module Pool = Ipdb_par.Pool

let prop ?(count = 100) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)
let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* Shared pools, as in test_par: spawning domains per case would dominate. *)
let pools = lazy (Pool.create ~jobs:1 (), Pool.create ~jobs:4 ())
let pool1 () = fst (Lazy.force pools)
let pool4 () = snd (Lazy.force pools)

(* Install a fresh in-memory sink around a thunk and return what it
   emitted. The sink is uninstalled even on exceptions, so a failing
   test cannot leave tracing on for its successors. *)
let with_trace f =
  let sink, lines = Sink.memory () in
  Sink.install sink;
  let r = try f () with e -> Sink.uninstall (); raise e in
  Sink.uninstall ();
  (r, lines ())

let parsed lines =
  List.map
    (fun l ->
      match OJson.parse l with
      | Ok j -> j
      | Error m -> QCheck.Test.fail_reportf "unparsable trace line %S: %s" l m)
    lines

let schema_ok label lines =
  (match Schema.validate_lines lines with
  | Ok () -> ()
  | Error m -> QCheck.Test.fail_reportf "%s: schema violation: %s" label m);
  match Schema.check_nesting (parsed lines) with
  | Ok () -> true
  | Error m -> fail "%s: nesting violation: %s" label m

(* ------------------------------------------------------------------ *)
(* Span trees are well-nested per domain                               *)
(* ------------------------------------------------------------------ *)

type shape = T of shape list

let rec shape_size (T kids) = 1 + List.fold_left (fun a s -> a + shape_size s) 0 kids

let arb_shape =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then return (T [])
    else
      let* n = 0 -- 3 in
      let* kids = list_repeat n (gen (depth - 1)) in
      return (T kids)
  in
  let rec print (T kids) = "(" ^ String.concat "" (List.map print kids) ^ ")" in
  QCheck.make ~print (gen 3)

let rec emit_shape (T kids) =
  Trace.with_span "node" (fun () ->
      Trace.event "visit";
      List.iter emit_shape kids)

let spans_well_nested (s1, s2, s3) =
  let (), lines =
    with_trace (fun () ->
        (* Three domains interleave into one sink: per-domain well-nesting
           must hold even though the global line order is arbitrary. *)
        let d1 = Domain.spawn (fun () -> emit_shape s1) in
        let d2 = Domain.spawn (fun () -> emit_shape s2) in
        emit_shape s3;
        Domain.join d1;
        Domain.join d2)
  in
  let expected = 2 * (shape_size s1 + shape_size s2 + shape_size s3) in
  let spans =
    List.length
      (List.filter
         (fun j ->
           match OJson.member "ev" j with
           | Some (OJson.String ("span_begin" | "span_end")) -> true
           | _ -> false)
         (parsed lines))
  in
  if spans <> expected then fail "expected %d span events, got %d" expected spans
  else schema_ok "concurrent spans" lines

let exception_still_closes_spans (s, depth) =
  let depth = 1 + (depth mod 3) in
  let (), lines =
    with_trace (fun () ->
        let rec blow d =
          Trace.with_span "doomed" (fun () -> if d = 0 then failwith "boom" else blow (d - 1))
        in
        (try blow depth with Failure _ -> ());
        emit_shape s)
  in
  (* Every span the exception unwound must still have emitted its end
     event (with the "raised" attribute), so the trace stays well-nested
     and later spans on the same domain get the right parents. *)
  schema_ok "exception unwind" lines

(* ------------------------------------------------------------------ *)
(* Counter exactness and jobs-invariance                               *)
(* ------------------------------------------------------------------ *)

(* Same registry handles the library uses: counter is get-or-create. *)
let m_terms = Metrics.counter "series.terms"
let m_steps = Metrics.counter "budget.steps"
let m_widenings = Metrics.counter "series.widenings"

type sum_case = { start : int; len : int; chunk : int }

let arb_sum_case =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "start=%d len=%d chunk=%d" c.start c.len c.chunk)
    QCheck.Gen.(
      let* start = 0 -- 3 in
      let* len = 1 -- 300 in
      let* chunk = 1 -- 40 in
      return { start; len; chunk })

let term_of c n = 0.5 ** float_of_int (n - c.start)
let tail_of c = Series.Tail.Geometric { index = c.start; first = 1.0; ratio = 0.5 }

let run_sum ?pool ?budget c =
  Series.sum_resumable ?pool ?budget ~chunk:c.chunk ~start:c.start (term_of c) ~tail:(tail_of c)
    ~upto:(c.start + c.len - 1)

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

(* The widening oracle: a per-term [Interval.add] fold over the terms
   start..last, counting the steps that strictly grew the width. *)
let widenings_upto c last =
  let acc = ref Interval.zero and widened = ref 0 in
  for n = c.start to last do
    let acc' = Interval.add !acc (Interval.point (term_of c n)) in
    if Interval.width acc' > Interval.width !acc then incr widened;
    acc := acc'
  done;
  !widened

(* Every way to run an engine: inline without a pool, and on 1 and 4
   workers. The counters must not depend on which. *)
let engines () = [ ("pool=None", None); ("jobs=1", Some (pool1 ())); ("jobs=4", Some (pool4 ())) ]

let terms_counted_exactly c =
  with_metrics (fun () ->
      let want_widenings = widenings_upto c (c.start + c.len - 1) in
      let budgets =
        [ ("unlimited", fun () -> None); ("step budget", fun () -> Some (Budget.make ~max_steps:(c.len + 7) ())) ]
      in
      List.for_all
        (fun (engine, pool) ->
          List.for_all
            (fun (label, budget) ->
              Metrics.reset ();
              (match run_sum ?pool ?budget:(budget ()) c with
              | Ok (Series.Complete _, _) -> ()
              | Ok (Series.Exhausted _, _) -> QCheck.Test.fail_report "unexpected exhaustion"
              | Error e -> QCheck.Test.fail_reportf "engine error: %s" (Run_error.to_string e));
              let terms = Metrics.value m_terms and widenings = Metrics.value m_widenings in
              if terms <> c.len then
                fail "%s, %s: evaluated %d terms for a %d-term prefix" engine label terms c.len
              else if widenings <> want_widenings then
                fail "%s, %s: %d widenings, a per-term fold has %d" engine label widenings want_widenings
              else true)
            budgets)
        (engines ()))

let steps_counted_exactly (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  with_metrics (fun () ->
      let count (engine, pool) =
        Metrics.reset ();
        let budget = Budget.make ~max_steps () in
        let last =
          match run_sum ?pool ~budget c with
          | Ok (Series.Complete _, _) -> c.start + c.len - 1
          | Ok (Series.Exhausted p, _) -> p.Series.last
          | Error e -> QCheck.Test.fail_reportf "%s: engine error: %s" engine (Run_error.to_string e)
        in
        let steps = Metrics.value m_steps and used = Budget.steps_used budget in
        let terms = Metrics.value m_terms and widenings = Metrics.value m_widenings in
        if steps <> used then fail "%s: steps counter %d disagrees with Budget.steps_used %d" engine steps used
        else if terms <> last - c.start + 1 then
          fail "%s: %d terms counted, %d evaluated up to %d" engine terms (last - c.start + 1) last
        else if terms <> used then fail "%s: %d terms for %d steps" engine terms used
        else if widenings <> widenings_upto c last then
          fail "%s: %d widenings, a per-term fold has %d" engine widenings (widenings_upto c last)
        else (steps, terms, widenings)
      in
      match List.map count (engines ()) with
      | first :: rest ->
        List.for_all (fun r -> r = first) rest
        || fail "counters depend on the engine (pool=None, jobs=1, jobs=4)"
      | [] -> true)

(* A term that fails still counts as evaluated: raising, NaN, over its
   certified bound, or stopped by an armed Term_eval site before the term
   function ran. One chunk per run on the pools, so the count is exactly
   the failing index's position. *)
let test_failing_terms_counted () =
  with_metrics @@ fun () ->
  let tail = Series.Tail.Geometric { index = 1; first = 1.0; ratio = 0.5 } in
  let geo n = 0.5 ** float_of_int (n - 1) in
  let bad = 23 in
  let counted label run =
    Metrics.reset ();
    (match run () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: the failing term went unnoticed" label);
    Alcotest.(check int) label bad (Metrics.value m_terms)
  in
  List.iter
    (fun (what, term) ->
      List.iter
        (fun (engine, pool, chunk) ->
          counted (what ^ ", sum, " ^ engine) (fun () ->
              Series.sum_resumable ?pool ~chunk ~start:1 term ~tail ~upto:100);
          counted (what ^ ", divergence, " ^ engine) (fun () ->
              Series.certify_divergence_resumable ?pool ~chunk
                (fun n -> if n = bad then term n else 1.0)
                ~certificate:(Series.Divergence.Bounded_below { index = 1; bound = 0.5 })
                ~upto:100))
        [ ("pool=None", None, 8); ("jobs=1", Some (pool1 ()), 100); ("jobs=4", Some (pool4 ()), 100) ])
    [ ("raising term", fun n -> if n = bad then failwith "boom" else geo n);
      ("NaN term", fun n -> if n = bad then Float.nan else geo n);
      ("term over its bound", fun n -> if n = bad then 0.25 else geo n) ];
  Faultinj.arm [ Faultinj.Term_eval ];
  Fun.protect ~finally:Faultinj.disarm @@ fun () ->
  Metrics.reset ();
  (match Series.sum_resumable ~start:1 geo ~tail ~upto:100 with
  | Error (Run_error.Injected_fault _) -> ()
  | _ -> Alcotest.fail "armed Term_eval site did not fire");
  Alcotest.(check int) "armed Term_eval site counts the term it stopped" 1 (Metrics.value m_terms)

let test_gauge_max_monotone () =
  with_metrics (fun () ->
      let g = Metrics.gauge "test.gauge" in
      Metrics.set_gauge g 0.0;
      Metrics.max_gauge g 4.0;
      Metrics.max_gauge g 2.0;
      (* Regression: gauges once stored IEEE bits in a 63-bit int, which
         overflowed (and went negative) for any value >= 2.0. *)
      Alcotest.(check (float 0.0)) "max_gauge keeps the max" 4.0 (Metrics.gauge_value g);
      Metrics.max_gauge g 5.5;
      Alcotest.(check (float 0.0)) "max_gauge raises" 5.5 (Metrics.gauge_value g))

(* ------------------------------------------------------------------ *)
(* JSONL schema round-trips                                            *)
(* ------------------------------------------------------------------ *)

let arb_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return OJson.Null;
        map (fun b -> OJson.Bool b) bool;
        map (fun i -> OJson.Int i) int;
        map (fun f -> OJson.Float f) (float_range (-1e15) 1e15);
        map (fun s -> OJson.String s) (string_size ~gen:char (0 -- 12)) ]
  in
  let rec gen depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (1, map (fun xs -> OJson.List xs) (list_size (0 -- 4) (gen (depth - 1))));
          ( 1,
            map
              (fun kvs -> OJson.Obj kvs)
              (list_size (0 -- 4)
                 (pair (string_size ~gen:printable (0 -- 8)) (gen (depth - 1)))) ) ]
  in
  QCheck.make ~print:OJson.to_string (gen 3)

let json_roundtrip j =
  match OJson.parse (OJson.to_string j) with
  | Ok j' -> j = j' || fail "reparse differs: %s vs %s" (OJson.to_string j) (OJson.to_string j')
  | Error m -> fail "rendered JSON does not parse: %s" m

(* Random trace programs — nested spans carrying arbitrary attributes,
   events, errors, a metrics snapshot — always emit schema-valid lines. *)
let trace_program_validates (s, attr_val) =
  let attrs = [ ("x", attr_val); ("weird \"key\"\n", OJson.String "\ttab") ] in
  let (), lines =
    with_trace (fun () ->
        let rec emit (T kids) =
          Trace.with_span ~attrs "node" (fun () ->
              Trace.annotate [ ("note", attr_val) ];
              Trace.event ~attrs "tick";
              List.iter emit kids;
              Trace.error ~code:"E_INTERNAL" ~msg:"synthetic")
        in
        emit s;
        Metrics.enable ();
        Metrics.incr m_terms;
        Trace.metrics_event (Metrics.snapshot ());
        Metrics.disable ())
  in
  schema_ok "trace program" lines

let test_schema_rejects_malformed () =
  let bad =
    [ (* unknown top-level key *)
      {|{"ev": "event", "ts": 0.0, "dom": 0, "span": null, "name": "x", "bogus": 1}|};
      (* missing required field *)
      {|{"ev": "span_begin", "ts": 0.0, "dom": 0, "id": 1, "name": "x"}|};
      (* wrong type *)
      {|{"ev": "event", "ts": "late", "dom": 0, "span": null, "name": "x"}|};
      (* unknown discriminator *)
      {|{"ev": "spam", "ts": 0.0, "dom": 0}|};
      (* not an object *)
      {|[1, 2]|}
    ]
  in
  List.iter
    (fun line ->
      match Schema.validate_line line with
      | Ok () -> Alcotest.failf "validator accepted %s" line
      | Error _ -> ())
    bad

let test_nesting_detects_interleaving () =
  let mk ev id parent =
    OJson.Obj
      ([ ("ev", OJson.String ev); ("ts", OJson.Float 0.0); ("dom", OJson.Int 0);
         ("id", OJson.Int id); ("name", OJson.String "s") ]
      @
      match ev with
      | "span_begin" -> [ ("parent", parent) ]
      | _ -> [ ("dur", OJson.Float 0.0) ])
  in
  (* begin 1, begin 2, end 1: closes a span that is not innermost. *)
  let torn = [ mk "span_begin" 1 OJson.Null; mk "span_begin" 2 (OJson.Int 1); mk "span_end" 1 OJson.Null ] in
  (match Schema.check_nesting torn with
  | Ok () -> Alcotest.fail "nesting checker missed an out-of-order close"
  | Error _ -> ());
  (* Open spans at end-of-trace are fine: a crash tears traces. *)
  match Schema.check_nesting [ mk "span_begin" 1 OJson.Null ] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "torn trace rejected: %s" m

(* ------------------------------------------------------------------ *)
(* Fault drive: every E_* code surfaces as a trace event               *)
(* ------------------------------------------------------------------ *)

let error_codes lines =
  List.filter_map
    (fun j ->
      match (OJson.member "ev" j, OJson.member "name" j, OJson.member "attrs" j) with
      | Some (OJson.String "event"), Some (OJson.String "error"), Some attrs -> (
        match OJson.member "code" attrs with Some (OJson.String c) -> Some c | _ -> None)
      | _ -> None)
    (parsed lines)

let drive code f =
  let (), lines = with_trace (fun () -> ignore (f ())) in
  ignore (schema_ok code lines : bool);
  let codes = error_codes lines in
  if not (List.mem code codes) then
    Alcotest.failf "no %s error event surfaced (saw: %s)" code (String.concat ", " codes)

let quiet_supervisor () = Supervisor.create ~sleep:(fun _ -> ()) ()

let test_fault_drive () =
  let c = { start = 1; len = 50; chunk = 8 } in
  (* Budget exhaustion: the trip latch emits exactly one E_BUDGET event. *)
  drive "E_BUDGET" (fun () -> run_sum ~budget:(Budget.make ~max_steps:3 ()) c);
  (* A violated tail certificate: constant terms against a geometric tail. *)
  drive "E_CERTIFICATE" (fun () ->
      Series.sum_resumable ~start:1
        (fun _ -> 1.0)
        ~tail:(Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 })
        ~upto:10);
  (* An armed fault-injection site firing inside term evaluation. *)
  drive "E_FAULT" (fun () ->
      Faultinj.arm [ Faultinj.Term_eval ];
      Fun.protect ~finally:Faultinj.disarm (fun () -> run_sum c));
  (* Unwritable checkpoint destination. *)
  drive "E_IO" (fun () -> Checkpoint.save ~path:"/nonexistent-ipdb-dir/ckpt" "payload");
  (* A damaged checkpoint frame. *)
  drive "E_VALIDATION" (fun () ->
      let path = Filename.temp_file "ipdb_obs" ".ckpt" in
      let oc = open_out path in
      output_string oc "not a checkpoint frame\n";
      close_out oc;
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Checkpoint.load ~path));
  (* Permanent failures surfacing through the supervisor boundary. *)
  drive "E_INTERNAL" (fun () ->
      Supervisor.run (quiet_supervisor ()) ~task:"t" (fun () ->
          Error (Run_error.Internal { msg = "synthetic" })));
  drive "E_PARSE" (fun () ->
      Supervisor.run (quiet_supervisor ()) ~task:"t" (fun () ->
          Error (Run_error.Parse { what = "synthetic"; msg = "bad token" })))

(* The supervisor's retry path emits one retry event per re-execution. *)
let test_supervisor_retry_events () =
  let (), lines =
    with_trace (fun () ->
        let attempts = ref 0 in
        match
          Supervisor.run (quiet_supervisor ()) ~task:"flaky" (fun () ->
              incr attempts;
              if !attempts < 3 then Error (Run_error.Io { path = "x"; msg = "transient" })
              else Ok ())
        with
        | Supervisor.Done () -> ()
        | _ -> Alcotest.fail "expected eventual success")
  in
  let retries =
    List.filter
      (fun j ->
        match (OJson.member "ev" j, OJson.member "name" j) with
        | Some (OJson.String "event"), Some (OJson.String "supervisor.retry") -> true
        | _ -> false)
      (parsed lines)
  in
  Alcotest.(check int) "one retry event per re-execution" 2 (List.length retries)

(* A null sink must swallow everything without touching the filesystem. *)
let test_null_sink () =
  Sink.install Sink.null;
  Fun.protect ~finally:Sink.uninstall (fun () ->
      Trace.with_span "s" (fun () -> Trace.event "e");
      Alcotest.(check bool) "sink counts as active" true (Trace.enabled ()));
  Alcotest.(check bool) "uninstalled" false (Trace.enabled ())

let () =
  let at_exit_shutdown () =
    if Lazy.is_val pools then (
      let p1, p4 = Lazy.force pools in
      Pool.shutdown p1;
      Pool.shutdown p4)
  in
  Stdlib.at_exit at_exit_shutdown;
  Alcotest.run "obs"
    [
      ( "nesting",
        [
          prop ~count:25 "concurrent span trees stay well-nested per domain"
            (QCheck.triple arb_shape arb_shape arb_shape)
            spans_well_nested;
          prop ~count:50 "exceptions close every span they unwind"
            (QCheck.pair arb_shape QCheck.small_nat)
            exception_still_closes_spans;
        ] );
      ( "counters",
        [
          prop ~count:60 "series.terms is exact and jobs-invariant" arb_sum_case
            terms_counted_exactly;
          prop ~count:60 "budget.steps equals Budget.steps_used, jobs=1 ≡ jobs=4"
            (QCheck.pair arb_sum_case QCheck.(1 -- 400))
            steps_counted_exactly;
          Alcotest.test_case "failing terms are counted" `Quick test_failing_terms_counted;
          Alcotest.test_case "max_gauge is monotone (bits-overflow regression)" `Quick
            test_gauge_max_monotone;
        ] );
      ( "schema",
        [
          prop ~count:300 "Json.to_string/parse round-trips" arb_json json_roundtrip;
          prop ~count:50 "random trace programs emit schema-valid JSONL"
            (QCheck.pair arb_shape arb_json)
            trace_program_validates;
          Alcotest.test_case "validator rejects malformed events" `Quick
            test_schema_rejects_malformed;
          Alcotest.test_case "nesting checker detects out-of-order closes" `Quick
            test_nesting_detects_interleaving;
        ] );
      ( "faults",
        [
          Alcotest.test_case "every E_* code surfaces as an error event" `Quick test_fault_drive;
          Alcotest.test_case "supervisor retries emit retry events" `Quick
            test_supervisor_retry_events;
          Alcotest.test_case "null sink" `Quick test_null_sink;
        ] );
    ]
