(* Determinism of the parallel runtime (lib/par) and the chunked series
   engines: for random series, chunk sizes, pool sizes, and resume points,
   the parallel enclosure, verdict, and serialized checkpoint must be
   byte-identical to the sequential run. *)

module Interval = Ipdb_series.Interval
module Series = Ipdb_series.Series
module Budget = Ipdb_run.Budget
module Pool = Ipdb_par.Pool
module Chunk = Ipdb_par.Chunk
module Reduce = Ipdb_par.Reduce

(* Shared pools: spawning domains per QCheck case would dominate runtime.
   Sizes 1, 2 and 8 cover the degenerate, small and oversubscribed cases. *)
let pools = lazy [| Pool.create ~jobs:1 (); Pool.create ~jobs:2 (); Pool.create ~jobs:8 () |]
let pool_of_index i = (Lazy.force pools).(i mod 3)

let prop ?(count = 200) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let bits = Int64.bits_of_float
let interval_bits i = (bits (Interval.lo i), bits (Interval.hi i))

let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A geometric series together with its matching tail certificate. *)
type sum_case = { start : int; upto : int; first : float; ratio : float; chunk : int; pool : int }

let arb_sum_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "start=%d upto=%d first=%h ratio=%h chunk=%d pool=%d" c.start c.upto c.first c.ratio c.chunk c.pool)
    QCheck.Gen.(
      let* start = 0 -- 3 in
      let* len = 0 -- 400 in
      let* first = float_range 0.1 10.0 in
      let* ratio = float_range 0.1 0.9 in
      let* chunk = 1 -- 50 in
      let* pool = 0 -- 2 in
      return { start; upto = start + len - 1; first; ratio; chunk; pool })

let term_of c n = c.first *. (c.ratio ** float_of_int (n - c.start))
let tail_of c = Series.Tail.Geometric { index = c.start; first = c.first; ratio = c.ratio }

let run_sum ?pool ?chunk ?budget ?from c =
  Series.sum_resumable ?pool ?chunk ?budget ?from ~start:c.start (term_of c) ~tail:(tail_of c) ~upto:c.upto

(* Divergence cases: terms constructed to satisfy the certificate. *)
type div_case = { cert : Series.Divergence.t; dterm : Series.term; dupto : int; dchunk : int; dpool : int }

let arb_div_case =
  let build kind index coeff len chunk pool =
    let cert, term =
      match kind mod 4 with
      | 0 -> (Series.Divergence.Harmonic { index; coeff }, fun n -> coeff /. float_of_int n)
      | 1 -> (Series.Divergence.Bounded_below { index; bound = coeff }, fun n -> coeff +. (0.001 *. float_of_int n))
      | 2 ->
          (* nondecreasing terms above the floor *)
          (Series.Divergence.Eventually_ratio_ge_one { index; floor = coeff }, fun n -> coeff +. (0.01 *. float_of_int n))
      | _ ->
          let pick k = (2 * k) + 1 in
          (* f (pick k) = 2c/2k = c/k: meets the minorant exactly *)
          ( Series.Divergence.Subsequence_harmonic { index; pick; coeff },
            fun n -> (2.0 *. coeff) /. float_of_int (n - 1) )
    in
    { cert; dterm = term; dupto = index + len; dchunk = chunk; dpool = pool }
  in
  QCheck.make
    ~print:(fun c ->
      Format.asprintf "cert=(%a) upto=%d chunk=%d pool=%d" Series.Divergence.pp c.cert c.dupto c.dchunk c.dpool)
    QCheck.Gen.(
      let* kind = 0 -- 3 in
      let* index = 1 -- 3 in
      let* coeff = float_range 0.1 2.0 in
      let* len = 0 -- 300 in
      let* chunk = 1 -- 50 in
      let* pool = 0 -- 2 in
      return (build kind index coeff len chunk pool))

let run_div ?pool ?chunk ?budget ?from c =
  Series.certify_divergence_resumable ?pool ?chunk ?budget ?from c.dterm ~certificate:c.cert ~upto:c.dupto

(* ------------------------------------------------------------------ *)
(* Result comparison                                                   *)
(* ------------------------------------------------------------------ *)

let same_sum_outcome label a b =
  match (a, b) with
  | Ok (va, sa), Ok (vb, sb) ->
      let same_verdict =
        match (va, vb) with
        | Series.Complete ia, Series.Complete ib -> interval_bits ia = interval_bits ib
        | Series.Exhausted pa, Series.Exhausted pb ->
            interval_bits pa.Series.prefix = interval_bits pb.Series.prefix
            && pa.Series.last = pb.Series.last
            && (match (pa.Series.enclosure, pb.Series.enclosure) with
               | None, None -> true
               | Some x, Some y -> interval_bits x = interval_bits y
               | _ -> false)
        | _ -> false
      in
      if not same_verdict then fail "%s: verdicts differ" label
      else if Series.Snapshot.to_string sa <> Series.Snapshot.to_string sb then
        fail "%s: snapshots differ: %s vs %s" label (Series.Snapshot.to_string sa) (Series.Snapshot.to_string sb)
      else true
  | Error ea, Error eb ->
      Ipdb_run.Error.message ea = Ipdb_run.Error.message eb || fail "%s: errors differ" label
  | _ -> fail "%s: one run failed, the other did not" label

let same_div_outcome label a b =
  match (a, b) with
  | Ok (va, sa), Ok (vb, sb) ->
      let same_verdict =
        match (va, vb) with
        | Series.Div_complete { partial = pa; at = aa }, Series.Div_complete { partial = pb; at = ab } ->
            bits pa = bits pb && aa = ab
        | ( Series.Div_exhausted { partial = pa; last = la; _ },
            Series.Div_exhausted { partial = pb; last = lb; _ } ) ->
            bits pa = bits pb && la = lb
        | _ -> false
      in
      if not same_verdict then fail "%s: verdicts differ" label
      else if Series.Snapshot.to_string sa <> Series.Snapshot.to_string sb then
        fail "%s: snapshots differ: %s vs %s" label (Series.Snapshot.to_string sa) (Series.Snapshot.to_string sb)
      else true
  | Error ea, Error eb ->
      Ipdb_run.Error.message ea = Ipdb_run.Error.message eb || fail "%s: errors differ" label
  | _ -> fail "%s: one run failed, the other did not" label

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let parallel_sum_equals_sequential c =
  let seq = run_sum c in
  let par = run_sum ~pool:(pool_of_index c.pool) ~chunk:c.chunk c in
  same_sum_outcome "complete sum" seq par

let parallel_sum_jobs_invariant (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  (* Step budgets exhaust at a chunk-aligned index that must not depend on
     the worker count (fresh budget per run: steps are consumed). *)
  let a = run_sum ~pool:(pool_of_index 0) ~chunk:c.chunk ~budget:(Budget.make ~max_steps ()) c in
  let b = run_sum ~pool:(pool_of_index 2) ~chunk:c.chunk ~budget:(Budget.make ~max_steps ()) c in
  same_sum_outcome "budgeted sum jobs=1 vs jobs=8" a b

let parallel_sum_resume_equivalence (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  let uninterrupted = run_sum c in
  match run_sum ~pool:(pool_of_index c.pool) ~chunk:c.chunk ~budget:(Budget.make ~max_steps ()) c with
  | Error e -> fail "budgeted run errored: %s" (Ipdb_run.Error.message e)
  | Ok (Series.Complete _, _) -> same_sum_outcome "budget did not trip" uninterrupted (run_sum c)
  | Ok (Series.Exhausted _, snap) -> (
      (* The checkpoint must survive serialization and resume — in parallel
         AND sequentially — to the uninterrupted sequential result. *)
      match Series.Snapshot.of_string (Series.Snapshot.to_string snap) with
      | Error msg -> fail "snapshot did not roundtrip: %s" msg
      | Ok snap ->
          let resumed_par = run_sum ~pool:(pool_of_index c.pool) ~chunk:c.chunk ~from:snap c in
          let resumed_seq = run_sum ~from:snap c in
          same_sum_outcome "parallel resume" uninterrupted resumed_par
          && same_sum_outcome "sequential resume of a parallel checkpoint" uninterrupted resumed_seq)

let parallel_divergence_equals_sequential c =
  let seq = run_div c in
  let par = run_div ~pool:(pool_of_index c.dpool) ~chunk:c.dchunk c in
  same_div_outcome "complete divergence" seq par

let parallel_divergence_jobs_invariant (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  let a = run_div ~pool:(pool_of_index 0) ~chunk:c.dchunk ~budget:(Budget.make ~max_steps ()) c in
  let b = run_div ~pool:(pool_of_index 2) ~chunk:c.dchunk ~budget:(Budget.make ~max_steps ()) c in
  same_div_outcome "budgeted divergence jobs=1 vs jobs=8" a b

let parallel_divergence_resume_equivalence (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  let uninterrupted = run_div c in
  match run_div ~pool:(pool_of_index c.dpool) ~chunk:c.dchunk ~budget:(Budget.make ~max_steps ()) c with
  | Error e -> fail "budgeted run errored: %s" (Ipdb_run.Error.message e)
  | Ok (Series.Div_complete _, _) -> true
  | Ok (Series.Div_exhausted _, snap) -> (
      match Series.Snapshot.of_string (Series.Snapshot.to_string snap) with
      | Error msg -> fail "snapshot did not roundtrip: %s" msg
      | Ok snap ->
          let resumed_par = run_div ~pool:(pool_of_index c.dpool) ~chunk:c.dchunk ~from:snap c in
          let resumed_seq = run_div ~from:snap c in
          same_div_outcome "parallel resume" uninterrupted resumed_par
          && same_div_outcome "sequential resume of a parallel checkpoint" uninterrupted resumed_seq)

(* Without a pool the engines run the same chunk plan inline, so a
   pool-less run must equal a jobs=1 and a jobs=N run in everything it
   reports: verdict, final snapshot, the progress stream (emitted at
   chunk ends; [progress_every] below the chunk size so several fall due
   inside one chunk) and the exhaustion record, [Steps {used; limit}]
   included. Each run gets a fresh budget with the same step limit. *)
let every_below chunk salt = if chunk <= 1 then 1 else 1 + (salt mod (chunk - 1))

let progress_stream run =
  let snaps = ref [] in
  let r = run (fun s -> snaps := Series.Snapshot.to_string s :: !snaps) in
  (r, List.rev !snaps)

let same_streams label a b = a = b || fail "%s: progress streams differ (%d vs %d snapshots)" label (List.length a) (List.length b)
let same_exhaustion label a b = a = b || fail "%s: exhaustion records differ" label

let sum_exhaustion = function Ok (Series.Exhausted p, _) -> Some p.Series.exhausted | _ -> None
let div_exhaustion = function Ok (Series.Div_exhausted { exhausted; _ }, _) -> Some exhausted | _ -> None

let sum_poolless_equals_pooled (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  let progress_every = every_below c.chunk max_steps in
  let run pool =
    progress_stream (fun progress ->
        Series.sum_resumable ?pool ~chunk:c.chunk ~budget:(Budget.make ~max_steps ()) ~progress ~progress_every
          ~start:c.start (term_of c) ~tail:(tail_of c) ~upto:c.upto)
  in
  let none, s_none = run None in
  List.for_all
    (fun (label, pool) ->
      let r, s = run (Some pool) in
      same_sum_outcome label none r
      && same_streams label s_none s
      && same_exhaustion label (sum_exhaustion none) (sum_exhaustion r))
    [ ("sum: pool=None vs jobs=1", pool_of_index 0); ("sum: pool=None vs jobs=N", pool_of_index (1 + (c.pool mod 2))) ]

let divergence_poolless_equals_pooled (c, max_steps) =
  let max_steps = Stdlib.max 1 max_steps in
  let progress_every = every_below c.dchunk max_steps in
  let run pool =
    progress_stream (fun progress ->
        Series.certify_divergence_resumable ?pool ~chunk:c.dchunk ~budget:(Budget.make ~max_steps ()) ~progress
          ~progress_every c.dterm ~certificate:c.cert ~upto:c.dupto)
  in
  let none, s_none = run None in
  List.for_all
    (fun (label, pool) ->
      let r, s = run (Some pool) in
      same_div_outcome label none r
      && same_streams label s_none s
      && same_exhaustion label (div_exhaustion none) (div_exhaustion r))
    [ ("divergence: pool=None vs jobs=1", pool_of_index 0);
      ("divergence: pool=None vs jobs=N", pool_of_index (1 + (c.dpool mod 2))) ]

(* Every certificate kind, complete and exhausted, on a chunk plan of a
   few chunks: the generator above draws kinds uniformly, this pins each. *)
let test_divergence_poolless_all_certificates () =
  let cases =
    List.concat_map
      (fun kind ->
        let index = 1 + kind mod 3 and coeff = 0.5 in
        let cert, dterm =
          match kind with
          | 0 -> (Series.Divergence.Harmonic { index; coeff }, fun n -> coeff /. float_of_int n)
          | 1 -> (Series.Divergence.Bounded_below { index; bound = coeff }, fun n -> coeff +. (0.001 *. float_of_int n))
          | 2 -> (Series.Divergence.Eventually_ratio_ge_one { index; floor = coeff }, fun n -> coeff +. (0.01 *. float_of_int n))
          | _ ->
              ( Series.Divergence.Subsequence_harmonic { index; pick = (fun k -> (2 * k) + 1); coeff },
                fun n -> (2.0 *. coeff) /. float_of_int (n - 1) )
        in
        List.map (fun max_steps -> ({ cert; dterm; dupto = index + 200; dchunk = 16; dpool = kind }, max_steps)) [ 37; 1000 ])
      [ 0; 1; 2; 3 ]
  in
  List.iter
    (fun ((c, _) as case) ->
      let ok =
        try divergence_poolless_equals_pooled case
        with QCheck.Test.Test_fail (_, msgs) -> Alcotest.failf "%a: %s" Series.Divergence.pp c.cert (String.concat "; " msgs)
      in
      Alcotest.(check bool) (Format.asprintf "%a" Series.Divergence.pp c.cert) true ok)
    cases

(* ------------------------------------------------------------------ *)
(* Pool / Reduce / Budget unit behavior                                *)
(* ------------------------------------------------------------------ *)

let test_map_ordered_order () =
  let pool = pool_of_index 2 in
  let xs = List.init 500 Fun.id in
  let ys = Pool.map_ordered pool ~f:(fun x -> x * x) xs in
  Alcotest.(check (list int)) "results in input order" (List.map (fun x -> x * x) xs) ys

let test_map_ordered_exception () =
  let pool = pool_of_index 1 in
  match Pool.map_ordered pool ~f:(fun x -> if x = 7 then failwith "boom" else x) (List.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "first failing index wins" "boom" m

let test_map_ordered_jobs1_bypass () =
  (* jobs=1 runs inline without the deque round-trip; the bypass must be
     observationally identical to the fan-out path: same results in the
     same order, every item settles before the re-raise, and the
     smallest-index failure is the one re-raised. *)
  let p1 = pool_of_index 0 and p8 = pool_of_index 2 in
  let xs = List.init 321 Fun.id in
  let f x = (x * 37) mod 101 in
  Alcotest.(check (list int)) "jobs=1 equals jobs=8" (Pool.map_ordered p8 ~f xs) (Pool.map_ordered p1 ~f xs);
  let settled = Atomic.make 0 in
  (match
     Pool.map_ordered p1
       ~f:(fun x ->
         Atomic.incr settled;
         if x >= 5 then failwith (string_of_int x) else x)
       (List.init 12 Fun.id)
   with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "smallest failing index wins" "5" m);
  Alcotest.(check int) "every item settled before the re-raise" 12 (Atomic.get settled);
  let dead = Pool.create ~jobs:1 () in
  Pool.shutdown dead;
  match Pool.map_ordered dead ~f:Fun.id [ 1; 2 ] with
  | _ -> Alcotest.fail "map_ordered on a shut-down pool succeeded"
  | exception Invalid_argument _ -> ()

let test_nested_map_ordered () =
  (* A pool task that fans out on the same pool must not deadlock, even on
     a 1-worker pool (the waiting caller helps). *)
  let pool = pool_of_index 0 in
  let rows = Pool.map_ordered pool ~f:(fun i -> Pool.map_ordered pool ~f:(fun j -> (10 * i) + j) [ 0; 1; 2 ]) [ 0; 1; 2; 3 ] in
  Alcotest.(check (list (list int)))
    "nested results"
    [ [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
    rows

let test_reduce_stops_pulling () =
  (* On the pool a wave of [window] items is pulled at once; inline, one
     item at a time, so exactly the items up to the stop are pulled. *)
  List.iter
    (fun (pool, max_pulled) ->
      let pulled = ref 0 in
      let seq = Seq.ints 0 |> Seq.map (fun i -> incr pulled; i) in
      let r =
        Reduce.map_fold pool ~window:4 ~map:Fun.id ~init:0 seq ~fold:(fun acc i -> if i >= 10 then Error acc else Ok (acc + i))
      in
      (match r with Error acc -> Alcotest.(check int) "folded prefix" 45 acc | Ok _ -> Alcotest.fail "expected stop");
      Alcotest.(check bool) "lazy producer stopped early" true (!pulled <= max_pulled))
    [ (Some (pool_of_index 1), 20); (None, 11) ]

let test_chunk_plan () =
  let plan = Chunk.to_list (Chunk.plan ~size:10 ~start:3 ~upto:27 ()) in
  Alcotest.(check (list (pair int int)))
    "chunk boundaries"
    [ (3, 12); (13, 22); (23, 27) ]
    (List.map (fun c -> (c.Chunk.lo, c.Chunk.hi)) plan);
  Alcotest.(check (list (pair int int))) "empty plan" [] (List.map (fun c -> (c.Chunk.lo, c.Chunk.hi)) (Chunk.to_list (Chunk.plan ~start:5 ~upto:4 ())))

let test_budget_atomic_steps () =
  (* Hammer a shared step budget from 4 domains: exactly [limit] checks may
     succeed, no matter the interleaving. *)
  let limit = 10_000 in
  let budget = Budget.make ~max_steps:limit () in
  let ok_count = Atomic.make 0 in
  let worker () =
    for _ = 1 to 5_000 do
      match Budget.check budget with Ok () -> Atomic.incr ok_count | Error _ -> ()
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "exactly limit steps granted" limit (Atomic.get ok_count);
  Alcotest.(check bool) "steps_used >= limit" true (Budget.steps_used budget >= limit)

let test_budget_atomic_reserve () =
  let limit = 9_999 in
  let budget = Budget.make ~max_steps:limit () in
  let granted = Atomic.make 0 in
  let worker () =
    for _ = 1 to 2_000 do
      match Budget.reserve budget 7 with Ok g -> ignore (Atomic.fetch_and_add granted g) | Error _ -> ()
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "grants sum to the limit exactly" limit (Atomic.get granted)

let test_budget_cancel_latch () =
  let cancelled = Atomic.make false in
  let budget = Budget.make ~cancel:(fun () -> Atomic.get cancelled) () in
  (match Budget.check budget with Ok () -> () | Error _ -> Alcotest.fail "tripped early");
  Atomic.set cancelled true;
  (match Budget.poll budget with
  | Error Ipdb_run.Error.Cancelled -> ()
  | _ -> Alcotest.fail "poll missed the cancel");
  Atomic.set cancelled false;
  (* The trip is latched: clearing the flag cannot un-cancel. *)
  match Budget.check budget with
  | Error Ipdb_run.Error.Cancelled -> ()
  | _ -> Alcotest.fail "cancel was not latched"

(* ------------------------------------------------------------------ *)
(* kb fan-out threshold boundary                                        *)
(* ------------------------------------------------------------------ *)

(* The lifted engine hands a top-level fold to the pool only from
   par_threshold items up. ∃x T(x) is a single open atom, so it takes the
   leaf rule and the items are T's rows. Straddle the boundary exactly —
   threshold-1 (serial), threshold (one full chunk) and threshold+1 (a
   full chunk plus a 1-item tail) — and require the marginal, its printed
   form and the budget step count to be independent of the path taken. *)
let test_kb_par_threshold_boundary () =
  let module Store = Ipdb_kb.Store in
  let module Lifted = Ipdb_kb.Lifted in
  let module Q = Ipdb_bignum.Q in
  let module Value = Ipdb_relational.Value in
  let module Fo = Ipdb_logic.Fo in
  let module Metrics = Ipdb_obs.Metrics in
  let phi = Fo.Exists ("x", Fo.Atom ("T", [ Fo.V "x" ])) in
  let pool = pool_of_index 2 (* jobs=8 *) in
  let leaf_rows = Metrics.counter "kb.query.leaf_rows" in
  let was_on = Metrics.enabled () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Metrics.disable ()) @@ fun () ->
  List.iter
    (fun n ->
      let store = Store.create [ ("T", 1) ] in
      for i = 1 to n do
        match Store.add store ~rel:"T" [| Value.int i |] (Q.of_ints 1 (2 + (i mod 97))) with
        | Ok () -> ()
        | Error m -> Alcotest.fail m
      done;
      let run ?pool () =
        let budget = Budget.make ~max_steps:1_000_000 () in
        match Lifted.query ?pool ~budget store phi with
        | Ok (Lifted.Exact p) -> (p, Budget.steps_used budget)
        | Ok (Lifted.Estimated _) -> Alcotest.fail "safe query fell back to sampling"
        | Error e -> Alcotest.fail (Ipdb_run.Error.message e)
      in
      let before = Metrics.value leaf_rows in
      let p_serial, steps_serial = run () in
      let folded = Metrics.value leaf_rows - before in
      let p_par, steps_par = run ~pool () in
      let label = Printf.sprintf "n=%d (threshold%+d)" n (n - Lifted.par_threshold) in
      Alcotest.(check int) (label ^ ": takes the leaf rule, folding every row") n folded;
      Alcotest.(check bool) (label ^ ": bit-identical marginal") true (Q.equal p_serial p_par);
      Alcotest.(check string) (label ^ ": identical printed form") (Q.to_string p_serial) (Q.to_string p_par);
      Alcotest.(check int) (label ^ ": step count independent of path") steps_serial steps_par;
      Alcotest.(check int) (label ^ ": one step per leaf row") n steps_serial)
    [ Lifted.par_threshold - 1; Lifted.par_threshold; Lifted.par_threshold + 1 ]

let () =
  let at_exit_shutdown () = if Lazy.is_val pools then Array.iter Pool.shutdown (Lazy.force pools) in
  Stdlib.at_exit at_exit_shutdown;
  Alcotest.run "par"
    [
      ( "determinism",
        [
          prop "parallel_sum_equals_sequential" arb_sum_case parallel_sum_equals_sequential;
          prop "sum: jobs=1 ≡ jobs=8 under step budgets" (QCheck.pair arb_sum_case QCheck.(1 -- 450)) parallel_sum_jobs_invariant;
          prop ~count:100 "sum: parallel checkpoint resumes to the sequential enclosure"
            (QCheck.pair arb_sum_case QCheck.(1 -- 450))
            parallel_sum_resume_equivalence;
          prop "parallel_divergence_equals_sequential" arb_div_case parallel_divergence_equals_sequential;
          prop "divergence: jobs=1 ≡ jobs=8 under step budgets"
            (QCheck.pair arb_div_case QCheck.(1 -- 450))
            parallel_divergence_jobs_invariant;
          prop ~count:100 "divergence: parallel checkpoint resumes to the sequential verdict"
            (QCheck.pair arb_div_case QCheck.(1 -- 450))
            parallel_divergence_resume_equivalence;
          prop "sum: pool=None ≡ jobs=1 ≡ jobs=N (verdict, snapshots, progress, exhaustion)"
            (QCheck.pair arb_sum_case QCheck.(1 -- 450))
            sum_poolless_equals_pooled;
          prop "divergence: pool=None ≡ jobs=1 ≡ jobs=N (verdict, snapshots, progress, exhaustion)"
            (QCheck.pair arb_div_case QCheck.(1 -- 450))
            divergence_poolless_equals_pooled;
          Alcotest.test_case "divergence: pool=None ≡ pooled for all four certificates" `Quick
            test_divergence_poolless_all_certificates;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map_ordered preserves order" `Quick test_map_ordered_order;
          Alcotest.test_case "map_ordered re-raises the first exception" `Quick test_map_ordered_exception;
          Alcotest.test_case "jobs=1 inline bypass is observationally identical" `Quick test_map_ordered_jobs1_bypass;
          Alcotest.test_case "nested map_ordered does not deadlock" `Quick test_nested_map_ordered;
          Alcotest.test_case "map_fold stops pulling on Error" `Quick test_reduce_stops_pulling;
          Alcotest.test_case "chunk plans are size-deterministic" `Quick test_chunk_plan;
          Alcotest.test_case "kb fan-out at the par_threshold boundary" `Quick
            test_kb_par_threshold_boundary;
        ] );
      ( "budget",
        [
          Alcotest.test_case "atomic step counter never over-grants" `Quick test_budget_atomic_steps;
          Alcotest.test_case "atomic reserve never over-grants" `Quick test_budget_atomic_reserve;
          Alcotest.test_case "cancellation is latched" `Quick test_budget_cancel_latch;
        ] );
    ]
