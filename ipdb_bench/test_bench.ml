(* Tests of the benchmark itself: the order statistics, the open-loop
   generator on a simulated clock and server, the span recorder's self
   times, and the schema smoke run. No timing is ever asserted. *)

open Bench_core
module J = Ipdb_obs.Json

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let s = ints 10 in
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (Stats.percentile ~pm:500 s);
  Alcotest.(check (float 0.0)) "p90 of 1..10" 9.0 (Stats.percentile ~pm:900 s);
  Alcotest.(check (float 0.0)) "p100 of 1..10" 10.0 (Stats.percentile ~pm:1000 s);
  Alcotest.(check (float 0.0)) "p1 of 1..10 is the minimum" 1.0 (Stats.percentile ~pm:10 s);
  Alcotest.(check (float 0.0)) "p99 of 1..1000 is rank 990" 990.0 (Stats.percentile ~pm:990 (ints 1000));
  Alcotest.(check (float 0.0)) "p99.9 of 1..10000" 9990.0 (Stats.percentile ~pm:999 (ints 10_000))

let test_summary () =
  let shuffled = [| 7.0; 1.0; 4.0; 8.0; 2.0; 6.0; 3.0; 5.0 |] in
  let s = Stats.summary shuffled in
  Alcotest.(check (float 0.0)) "median (lower middle)" 4.0 s.Stats.median;
  Alcotest.(check (float 0.0)) "q1" 2.0 s.Stats.q1;
  Alcotest.(check (float 0.0)) "q3" 6.0 s.Stats.q3;
  Alcotest.(check int) "n" 8 s.Stats.n;
  let one = Stats.summary [| 3.5 |] in
  Alcotest.(check (float 0.0)) "single sample" 3.5 one.Stats.median

let test_supported_percentile () =
  let sp n = Option.map Stats.pm_label (Stats.supported_percentile n) in
  let check = Alcotest.(check (option string)) in
  (* 400 samples leave only 4 beyond p99: they support p95, not p99. *)
  check "400 samples do not support p99" (Some "p95") (sp 400);
  check "1000 samples support p99" (Some "p99") (sp 1000);
  check "999 samples do not" (Some "p95") (sp 999);
  check "10000 samples support p99.9" (Some "p99.9") (sp 10_000);
  check "20 samples support the median" (Some "p50") (sp 20);
  check "19 samples support nothing" None (sp 19);
  Alcotest.(check int) "beyond p99 of 400" 4 (Stats.beyond ~pm:990 400);
  Alcotest.(check (pair string (float 0.0))) "tail of 1..400" ("p95", 380.0) (Stats.tail (ints 400));
  Alcotest.(check (pair string (float 0.0))) "tail of 3 samples is the max" ("max", 3.0) (Stats.tail (ints 3))

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)
(* ------------------------------------------------------------------ *)

(* A server with [slots] connections in flight at most, each answered
   [service] seconds after it was sent, on a simulated clock. *)
let simulated ~service =
  let clock = ref 0.0 in
  let pending = ref [] in
  let io =
    {
      Openloop.now = (fun () -> !clock);
      send = (fun i -> pending := (i, !clock +. service) :: !pending; true);
      wait =
        (fun ~until ->
          let next = List.fold_left (fun a (_, t) -> Float.min a t) Float.infinity !pending in
          let t = Float.min next until in
          if Float.is_finite t then clock := Float.max !clock t;
          let ready, rest = List.partition (fun (_, d) -> d <= !clock) !pending in
          pending := rest;
          List.map (fun (i, d) -> (i, true, d)) ready);
    }
  in
  io

let test_due_time_latency () =
  (* 10 requests per second against a 0.05 s server: nothing queues, so
     every latency is the service time and nothing is late. *)
  let due = Openloop.due_times ~start:0.0 ~rate:10.0 ~n:20 in
  let o = Openloop.run (simulated ~service:0.05) ~slots:2 ~due in
  Array.iter (fun l -> Alcotest.(check (float 1e-9)) "latency = service" 0.05 l) (Openloop.latencies o);
  Alcotest.(check bool) "no backlog" false (Openloop.backlog_growing o ~limit:0.1);
  Alcotest.(check bool) "meets a 0.1 s limit" true (Openloop.meets o ~limit:0.1);
  Alcotest.(check bool) "misses a 0.01 s limit" false (Openloop.meets o ~limit:0.01)

let test_due_time_counts_queueing () =
  (* 100/s against one slot that takes 0.02 s per request: request i
     starts at 0.02·i but was due at 0.01·i, so its latency counts the
     wait since it was due, not just its service. *)
  let due = Openloop.due_times ~start:0.0 ~rate:100.0 ~n:50 in
  let o = Openloop.run (simulated ~service:0.02) ~slots:1 ~due in
  let lat = Openloop.latencies o in
  Alcotest.(check (float 1e-9)) "first request" 0.02 lat.(0);
  Alcotest.(check (float 1e-9)) "last request waited" ((0.02 *. 50.0) -. (0.01 *. 49.0)) lat.(49);
  Alcotest.(check bool) "backlog grows" true (Openloop.backlog_growing o ~limit:0.1);
  Alcotest.(check bool) "does not meet the limit" false (Openloop.meets o ~limit:0.1);
  (* The server, not the generator, made it late. *)
  Array.iter (fun l -> Alcotest.(check (float 1e-9)) "generator lateness" 0.0 l) o.Openloop.lateness

let test_two_slots_keep_up () =
  (* The same rate with two slots at 0.015 s keeps up. *)
  let due = Openloop.due_times ~start:0.0 ~rate:100.0 ~n:200 in
  let o = Openloop.run (simulated ~service:0.015) ~slots:2 ~due in
  Alcotest.(check bool) "no backlog" false (Openloop.backlog_growing o ~limit:0.05);
  Alcotest.(check int) "no failures" 0 (Openloop.failures o)

let test_refused_is_failure () =
  let server = simulated ~service:0.01 in
  let io = { server with Openloop.send = (fun i -> i mod 2 = 0 && server.Openloop.send i) } in
  let o = Openloop.run io ~slots:2 ~due:(Openloop.due_times ~start:0.0 ~rate:10.0 ~n:10) in
  Alcotest.(check int) "refused requests fail" 5 (Openloop.failures o);
  Array.iteri
    (fun i l -> if i mod 2 = 1 then Alcotest.(check (float 0.0)) "a refused request misses every limit" Float.infinity l)
    (Openloop.latencies o);
  Alcotest.(check bool) "a probe with failures fails" false (Openloop.meets o ~limit:1.0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let busy secs = let t0 = Clock.now () in while Clock.now () -. t0 < secs do () done

let test_self_time () =
  Spans.reset ();
  Spans.on := true;
  Spans.with_span ~req:7 "root" (fun () ->
      busy 0.002;
      Spans.with_span "a" (fun () -> busy 0.003);
      Spans.with_span "b" (fun () -> Spans.with_span "c" (fun () -> busy 0.001)));
  Spans.on := false;
  let spans = Spans.all () in
  let find n = List.find (fun s -> s.Spans.name = n) spans in
  let root = find "root" and a = find "a" and b = find "b" and c = find "c" in
  Alcotest.(check int) "a's parent" root.Spans.id a.Spans.parent;
  Alcotest.(check int) "c's parent" b.Spans.id c.Spans.parent;
  Alcotest.(check int) "children inherit the request id" 7 c.Spans.req;
  Alcotest.(check int64) "self = duration - children" (Int64.sub (Spans.duration_ns root) (Int64.add (Spans.duration_ns a) (Spans.duration_ns b))) (Spans.self_ns root);
  Alcotest.(check int64) "a leaf's self time is its duration" (Spans.duration_ns a) (Spans.self_ns a);
  let covered = Spans.attributed_ratio () in
  Alcotest.(check bool) "children cover part of the root" true (covered > 0.0 && covered < 1.0);
  Spans.reset ();
  Alcotest.(check int) "off records nothing" 0 (Spans.with_span "x" (fun () -> List.length (Spans.all ())))

(* ------------------------------------------------------------------ *)
(* Schema smoke                                                        *)
(* ------------------------------------------------------------------ *)

let json_file path = match J.parse (In_channel.with_open_text path In_channel.input_all) with Ok j -> j | Error e -> Alcotest.failf "%s: %s" path e

let member k j = match J.member k j with Some v -> v | None -> Alcotest.failf "missing %s" k
let list = function J.List l -> l | _ -> Alcotest.fail "not a list"
let str = function J.String s -> s | _ -> Alcotest.fail "not a string"

let spec_metrics spec key = List.map (fun m -> (str (member "name" m), str (member "unit" m))) (list (member key spec))

let smoke_run dir tag =
  let out = Filename.concat dir (tag ^ ".json") in
  let code = Sys.command (Printf.sprintf "./ipdb_bench.exe run all --seed 1 --smoke --json %s > %s.log 2>&1" (Filename.quote out) (Filename.quote (Filename.concat dir tag))) in
  if code <> 0 then Alcotest.failf "smoke run %s exited %d (see %s.log)" tag code (Filename.concat dir tag);
  json_file out

let records run = List.map (fun r -> (str (member "metric" r), r)) (list (member "records" run))

let test_smoke () =
  let spec = json_file "../BENCHMARK.json" in
  let dir = Filename.concat (Sys.getcwd ()) "smoke" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let a = smoke_run dir "a" and b = smoke_run dir "b" in
  let skipped = List.map str (list (member "skipped" a)) in
  if skipped <> [] then Printf.printf "smoke: SKIP %s (no loopback TCP)\n" (String.concat ", " skipped);
  let expected =
    List.filter (fun w -> not (List.mem w skipped)) (List.map (fun w -> str (member "name" w)) (list (member "workloads" spec)))
  in
  let declared =
    spec_metrics spec "end_to_end"
    @ List.filter (fun (n, _) -> skipped = [] || not (List.mem n Layers.tcp_metrics)) (spec_metrics spec "per_layer")
  in
  Alcotest.(check (list (pair string string))) "BENCHMARK.json end_to_end = the harness's" Report.end_to_end (spec_metrics spec "end_to_end");
  Alcotest.(check (list (pair string string))) "BENCHMARK.json per_layer = the harness's" Report.per_layer (spec_metrics spec "per_layer");
  let runs j = List.map (fun run -> (str (member "workload" run), run)) (list (member "runs" j)) in
  Alcotest.(check (list string)) "every workload ran" expected (List.map fst (runs a));
  List.iter
    (fun (w, run) ->
      Alcotest.(check bool) (w ^ ": every correctness check passes") true (member "correct" run = J.Bool true);
      let recs = records run in
      List.iter
        (fun (name, unit_) ->
          match List.assoc_opt name recs with
          | None -> Alcotest.failf "%s: %s not emitted" w name
          | Some r -> Alcotest.(check string) (w ^ ": unit of " ^ name) unit_ (str (member "unit" r)))
        declared;
      (* Counts are functions of the seed: identical across two runs. *)
      let recs_b = records (List.assoc w (runs b)) in
      List.iter
        (fun name ->
          let median recs = member "median" (List.assoc name recs) in
          Alcotest.(check string) (w ^ ": " ^ name ^ " repeats") (J.to_string (median recs)) (J.to_string (median recs_b)))
        [ "series.terms"; "kb.query.candidates"; "journal.fsyncs_per_req"; "disk_bytes_per_req" ])
    (runs a)

let () =
  Alcotest.run ~argv:[| "test_bench" |] "ipdb_bench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "median and quartiles" `Quick test_summary;
          Alcotest.test_case "supported percentile" `Quick test_supported_percentile;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "due-time latency" `Quick test_due_time_latency;
          Alcotest.test_case "queueing counts from due time" `Quick test_due_time_counts_queueing;
          Alcotest.test_case "two slots keep up" `Quick test_two_slots_keep_up;
          Alcotest.test_case "refused requests fail" `Quick test_refused_is_failure;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("smoke", [ Alcotest.test_case "schema and count determinism" `Slow test_smoke ]);
    ]
