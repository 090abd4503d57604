(* The crash-consistency layer's contract (DESIGN.md §7): journaled appends
   recover to an exact valid prefix whatever the kill point, checkpoints
   replace atomically, the supervisor's retry/quarantine schedule is
   deterministic, and resuming a budgeted series from a snapshot is
   bit-for-bit equivalent to never having been interrupted. *)

module Arith = Ipdb_bignum.Arith
module Qa = Ipdb_bignum.Q
module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Journal = Ipdb_run.Journal
module Checkpoint = Ipdb_run.Checkpoint
module Supervisor = Ipdb_run.Supervisor
module Series = Ipdb_series.Series
module Interval = Ipdb_series.Interval
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Zoo = Ipdb_core.Zoo
module Metrics = Ipdb_obs.Metrics

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let prop ?(count = 50) name f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb_seed f)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let temp_path suffix = Filename.temp_file "ipdb-crashsafe" suffix

let err_str e = Run_error.to_string e

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let interval_bits_equal a b =
  float_bits_equal (Interval.lo a) (Interval.lo b) && float_bits_equal (Interval.hi a) (Interval.hi b)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let sample_payloads =
  [ "alpha";
    "beta\nwith\nembedded\nnewlines";
    "backslashes \\ and \\n literals";
    "carriage\rreturn and tab\t";
    "";
    String.make 512 'x';
    "binary \x00\x01\xff bytes";
    "done example-3.5 ok\n  E(|D|) = 3\n"
  ]

let with_journal payloads k =
  let path = temp_path ".journal" in
  (match Journal.open_append ~path () with
  | Error e -> Alcotest.failf "open_append: %s" (err_str e)
  | Ok j ->
    List.iter
      (fun p ->
        match Journal.append j p with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append: %s" (err_str e))
      payloads;
    Journal.close j;
    Journal.close j (* idempotent *));
  let r = k path in
  Sys.remove path;
  r

let test_journal_roundtrip () =
  with_journal sample_payloads @@ fun path ->
  match Journal.recover ~path with
  | Error e -> Alcotest.failf "recover: %s" (err_str e)
  | Ok { Journal.records; tail } ->
    Alcotest.(check (list string)) "records" sample_payloads records;
    (match tail with
    | Journal.Clean -> ()
    | Journal.Torn { line; reason } -> Alcotest.failf "unexpected torn tail at %d: %s" line reason)

let test_journal_missing_file () =
  let path = temp_path ".journal" in
  Sys.remove path;
  match Journal.recover ~path with
  | Ok { Journal.records = []; tail = Journal.Clean } -> ()
  | Ok _ -> Alcotest.fail "missing journal should recover empty and clean"
  | Error e -> Alcotest.failf "missing journal should not error: %s" (err_str e)

let test_journal_torn_tail () =
  with_journal [ "one"; "two" ] @@ fun path ->
  (* simulate a crash mid-append: raw garbage after the last full record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "ipdbj1 999 deadbeef";
  close_out oc;
  match Journal.recover ~path with
  | Error e -> Alcotest.failf "recover: %s" (err_str e)
  | Ok { Journal.records; tail } ->
    Alcotest.(check (list string)) "valid prefix survives" [ "one"; "two" ] records;
    (match tail with
    | Journal.Torn { line = 3; _ } -> ()
    | Journal.Torn { line; _ } -> Alcotest.failf "torn at line %d, expected 3" line
    | Journal.Clean -> Alcotest.fail "tail should be torn")

(* Cutting the journal file at *every* byte boundary — every possible kill
   point inside a write — must recover a prefix of the appended records. *)
let test_journal_truncation_prefix () =
  with_journal sample_payloads @@ fun path ->
  let full = read_file path in
  let tmp = temp_path ".trunc" in
  let rec is_prefix shorter longer =
    match (shorter, longer) with
    | [], _ -> true
    | a :: ra, b :: rb -> String.equal a b && is_prefix ra rb
    | _ :: _, [] -> false
  in
  for cut = 0 to String.length full do
    write_file tmp (String.sub full 0 cut);
    match Journal.recover ~path:tmp with
    | Error e -> Alcotest.failf "cut %d: recover errored: %s" cut (err_str e)
    | Ok { Journal.records; _ } ->
      if not (is_prefix records sample_payloads) then
        Alcotest.failf "cut %d: recovered records are not a prefix" cut
  done;
  Sys.remove tmp

let test_checksum_vectors () =
  (* standard FNV-1a/64 test vectors *)
  Alcotest.(check string) "fnv64 of empty" "cbf29ce484222325"
    (Printf.sprintf "%016Lx" (Journal.checksum ""));
  Alcotest.(check string) "fnv64 of a" "af63dc4c8601ec8c"
    (Printf.sprintf "%016Lx" (Journal.checksum "a"));
  Alcotest.(check string) "fnv64 of foobar" "85944171f73967e8"
    (Printf.sprintf "%016Lx" (Journal.checksum "foobar"))

let prop_escape_roundtrip seed =
  let rng = Random.State.make [| seed; 0xE5C |] in
  let n = Random.State.int rng 200 in
  let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let escaped = Journal.escape s in
  (not (String.contains escaped '\n'))
  && (not (String.contains escaped '\r'))
  && match Journal.unescape escaped with Ok s' -> String.equal s s' | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let path = temp_path ".ckpt" in
  List.iter
    (fun payload ->
      (match Checkpoint.save ~path payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (err_str e));
      match Checkpoint.load ~path with
      | Ok (Some p) -> Alcotest.(check string) "payload" payload p
      | Ok None -> Alcotest.fail "checkpoint vanished"
      | Error e -> Alcotest.failf "load: %s" (err_str e))
    sample_payloads;
  (* the file holds only the last payload: saves replace, never append *)
  (match Checkpoint.load ~path with
  | Ok (Some p) -> Alcotest.(check string) "last write wins" (List.nth sample_payloads 7) p
  | _ -> Alcotest.fail "final load failed");
  Sys.remove path

let test_checkpoint_missing () =
  let path = temp_path ".ckpt" in
  Sys.remove path;
  match Checkpoint.load ~path with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "missing checkpoint should load as None"
  | Error e -> Alcotest.failf "missing checkpoint should not error: %s" (err_str e)

let test_checkpoint_damage () =
  let path = temp_path ".ckpt" in
  (match Checkpoint.save ~path "precious state" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (err_str e));
  let good = read_file path in
  (* every truncation of the file must be detected, never crash *)
  for cut = 0 to String.length good - 1 do
    write_file path (String.sub good 0 cut);
    match Checkpoint.load ~path with
    | Ok None when cut = 0 -> () (* an empty file is as good as absent *)
    | Ok (Some _) -> Alcotest.failf "cut %d: damaged checkpoint accepted" cut
    | Ok None | Error (Run_error.Validation _) -> ()
    | Error e -> Alcotest.failf "cut %d: unexpected error class: %s" cut (err_str e)
  done;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let transient = Run_error.Io { path = "/dev/flaky"; msg = "transient hiccup" }
let permanent = Run_error.Validation { what = "input"; msg = "deterministically bad" }

let test_classification () =
  Alcotest.(check bool) "Io transient" true (Supervisor.classify transient = Supervisor.Transient);
  Alcotest.(check bool) "fault transient" true
    (Supervisor.classify (Run_error.Injected_fault { site = "s" }) = Supervisor.Transient);
  List.iter
    (fun e ->
      Alcotest.(check bool) (Run_error.code e ^ " permanent") true
        (Supervisor.classify e = Supervisor.Permanent))
    [ permanent;
      Run_error.Parse { what = "doc"; msg = "eof" };
      Run_error.Certificate { what = "tail"; msg = "violated" };
      Run_error.Internal { msg = "bug" };
      Run_error.Exhausted { what = "sum"; reason = Run_error.Cancelled }
    ]

let test_retry_then_succeed () =
  let sleeps = ref [] in
  let sup = Supervisor.create ~sleep:(fun d -> sleeps := d :: !sleeps) () in
  let calls = ref 0 in
  let thunk () =
    incr calls;
    if !calls < 3 then Error transient else Ok !calls
  in
  (match Supervisor.run sup ~task:"flaky" thunk with
  | Supervisor.Done 3 -> ()
  | Supervisor.Done n -> Alcotest.failf "Done %d, expected 3" n
  | Supervisor.Failed _ | Supervisor.Quarantined _ -> Alcotest.fail "expected Done");
  Alcotest.(check int) "two backoff sleeps" 2 (List.length !sleeps);
  List.iteri
    (fun i got ->
      let attempt = i + 1 in
      let want = Supervisor.backoff_delay Supervisor.default_policy ~task:"flaky" ~attempt in
      Alcotest.(check (float 0.0)) (Printf.sprintf "sleep %d matches schedule" attempt) want got)
    (List.rev !sleeps);
  Alcotest.(check int) "success resets the failure count" 0 (Supervisor.failures sup ~task:"flaky")

let test_permanent_fails_fast () =
  let sleeps = ref 0 in
  let sup = Supervisor.create ~sleep:(fun _ -> incr sleeps) () in
  let calls = ref 0 in
  (match
     Supervisor.run sup ~task:"det" (fun () ->
         incr calls;
         Error permanent)
   with
  | Supervisor.Failed { attempts = 1; error = Run_error.Validation _ } -> ()
  | Supervisor.Failed { attempts; _ } -> Alcotest.failf "%d attempts, expected 1" attempts
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check int) "exactly one execution" 1 !calls;
  Alcotest.(check int) "no backoff sleeps" 0 !sleeps

let test_retries_exhausted () =
  let sup = Supervisor.create ~sleep:(fun _ -> ()) () in
  let calls = ref 0 in
  (match
     Supervisor.run sup ~task:"always-flaky" (fun () ->
         incr calls;
         Error transient)
   with
  | Supervisor.Failed { attempts; error = Run_error.Io _ } ->
    Alcotest.(check int) "max_attempts executions" Supervisor.default_policy.Supervisor.max_attempts
      attempts
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check int) "call count" Supervisor.default_policy.Supervisor.max_attempts !calls

let test_quarantine () =
  let policy = { Supervisor.default_policy with Supervisor.quarantine_after = 2 } in
  let sup = Supervisor.create ~policy ~sleep:(fun _ -> ()) () in
  let fail () = Error permanent in
  (match Supervisor.run sup ~task:"bad" fail with
  | Supervisor.Failed _ -> ()
  | _ -> Alcotest.fail "first run should fail");
  Alcotest.(check bool) "not yet quarantined" false (Supervisor.quarantined sup ~task:"bad");
  (match Supervisor.run sup ~task:"bad" fail with
  | Supervisor.Failed _ -> ()
  | _ -> Alcotest.fail "second run should fail");
  Alcotest.(check bool) "now quarantined" true (Supervisor.quarantined sup ~task:"bad");
  let executed = ref false in
  (match
     Supervisor.run sup ~task:"bad" (fun () ->
         executed := true;
         Ok ())
   with
  | Supervisor.Quarantined { failures = 2 } -> ()
  | Supervisor.Quarantined { failures } -> Alcotest.failf "failures=%d, expected 2" failures
  | _ -> Alcotest.fail "expected Quarantined");
  Alcotest.(check bool) "quarantined task is not executed" false !executed;
  (* an unrelated task is unaffected *)
  match Supervisor.run sup ~task:"good" (fun () -> Ok 7) with
  | Supervisor.Done 7 -> ()
  | _ -> Alcotest.fail "independent task affected by quarantine"

let test_degradation_ladder () =
  let sup = Supervisor.create ~sleep:(fun _ -> ()) () in
  (match Supervisor.with_degradation sup ~task:"a" ~exact:(fun () -> Ok 1) () with
  | Supervisor.Exact 1 -> ()
  | _ -> Alcotest.fail "expected Exact");
  (match
     Supervisor.with_degradation sup ~task:"b"
       ~exact:(fun () -> Error permanent)
       ~budgeted:(fun () -> Ok 2)
       ()
   with
  | Supervisor.Degraded 2 -> ()
  | _ -> Alcotest.fail "expected Degraded");
  match
    Supervisor.with_degradation sup ~task:"c"
      ~exact:(fun () -> Error permanent)
      ~budgeted:(fun () -> Error (Run_error.Internal { msg = "also broken" }))
      ()
  with
  | Supervisor.Skipped { reason = Run_error.Internal _ } -> ()
  | _ -> Alcotest.fail "expected Skipped with the fallback's error"

let test_backoff_schedule () =
  let p = Supervisor.default_policy in
  for attempt = 1 to 10 do
    let d1 = Supervisor.backoff_delay p ~task:"t" ~attempt in
    let d2 = Supervisor.backoff_delay p ~task:"t" ~attempt in
    Alcotest.(check (float 0.0)) "deterministic" d1 d2;
    let raw =
      Stdlib.min p.Supervisor.max_delay
        (p.Supervisor.base_delay *. (2.0 ** float_of_int (Stdlib.min (attempt - 1) 30)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within [raw/2, raw]" attempt)
      true
      (d1 >= (raw /. 2.0) -. 1e-12 && d1 <= raw +. 1e-12)
  done

(* ------------------------------------------------------------------ *)
(* Exact float and snapshot persistence                                 *)
(* ------------------------------------------------------------------ *)

let check_float_roundtrip x =
  match Series.Snapshot.decode_float (Series.Snapshot.encode_float x) with
  | Error m -> Alcotest.failf "decode_float failed on %h: %s" x m
  | Ok y ->
    if Float.is_nan x then Alcotest.(check bool) "nan" true (Float.is_nan y)
    else if not (float_bits_equal x y) then Alcotest.failf "float %h roundtripped to %h" x y

let test_float_specials () =
  List.iter check_float_roundtrip
    [ 0.0; -0.0; 1.0; -1.0; infinity; neg_infinity; nan; epsilon_float; min_float; max_float;
      4.9406564584124654e-324 (* smallest denormal *); 0.1; 1.0 /. 3.0; 0.1 +. 0.2;
      1.7976931348623157e308 ]

let prop_float_roundtrip seed =
  let rng = Random.State.make [| seed; 0xF10A7 |] in
  (* a uniformly random bit pattern: denormals, NaN payloads, the lot *)
  let bits =
    Int64.logor
      (Int64.shift_left (Random.State.int64 rng Int64.max_int) 1)
      (if Random.State.bool rng then 1L else 0L)
  in
  let bits = if Random.State.bool rng then Int64.logor bits Int64.min_int else bits in
  let x = Int64.float_of_bits bits in
  match Series.Snapshot.decode_float (Series.Snapshot.encode_float x) with
  | Error _ -> false
  | Ok y -> if Float.is_nan x then Float.is_nan y else float_bits_equal x y

let test_snapshot_roundtrip () =
  let snaps =
    [ Series.Snapshot.Sum_state
        { Series.Snapshot.sum_start = 1; next = 42; prefix = Interval.make 0.1 (0.1 +. 0.2) };
      Series.Snapshot.Sum_state
        { Series.Snapshot.sum_start = -3; next = 1_000_000; prefix = Interval.make neg_infinity infinity };
      Series.Snapshot.Div_state
        { Series.Snapshot.div_start = 1; next_k = 7; partial = 14.798; prev_term = Some 0.25;
          prev_pick = min_int };
      Series.Snapshot.Div_state
        { Series.Snapshot.div_start = 2; next_k = 2; partial = 0.0; prev_term = None; prev_pick = 12 }
    ]
  in
  List.iter
    (fun s ->
      match Series.Snapshot.of_string (Series.Snapshot.to_string s) with
      | Ok s' -> Alcotest.(check bool) "snapshot roundtrip" true (Series.Snapshot.equal s s')
      | Error m -> Alcotest.failf "snapshot roundtrip failed: %s" m)
    snaps

(* A snapshot survives the full durability stack: serialize, checkpoint to
   disk, load, deserialize — and is still structurally identical. *)
let test_snapshot_through_checkpoint () =
  let snap =
    Series.Snapshot.Sum_state
      { Series.Snapshot.sum_start = 1; next = 777; prefix = Interval.make (1.0 /. 3.0) (2.0 /. 3.0) }
  in
  let path = temp_path ".ckpt" in
  (match Checkpoint.save ~path (Series.Snapshot.to_string snap) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (err_str e));
  (match Checkpoint.load ~path with
  | Ok (Some payload) -> (
    match Series.Snapshot.of_string payload with
    | Ok snap' -> Alcotest.(check bool) "exact through disk" true (Series.Snapshot.equal snap snap')
    | Error m -> Alcotest.failf "of_string: %s" m)
  | _ -> Alcotest.fail "load failed");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Resume equivalence: interrupted-and-resumed ≡ uninterrupted          *)
(* ------------------------------------------------------------------ *)

let prop_sum_resume_equivalence seed =
  let rng = Random.State.make [| seed; 0x5E5 |] in
  let coeff = 0.1 +. Random.State.float rng 0.9 in
  let p = 1.5 +. Random.State.float rng 1.5 in
  let upto = 50 + Random.State.int rng 450 in
  let term i = coeff /. (float_of_int i ** p) in
  let tail = Series.Tail.P_series { index = 1; coeff; p } in
  let full =
    match Series.sum_resumable ~start:1 term ~tail ~upto with
    | Ok (Series.Complete e, _) -> e
    | Ok (Series.Exhausted _, _) -> QCheck.Test.fail_report "unbudgeted run exhausted"
    | Error e -> QCheck.Test.fail_reportf "unbudgeted run failed: %s" (err_str e)
  in
  (* chop the same summation into randomly-sized budgeted slices, threading
     the snapshot through each interruption *)
  let rec drive from rounds =
    if rounds > upto + 2 then QCheck.Test.fail_report "resume loop did not converge"
    else
      let budget = Budget.make ~max_steps:(1 + Random.State.int rng upto) () in
      match Series.sum_resumable ~start:1 ?from ~budget term ~tail ~upto with
      | Ok (Series.Complete e, _) -> e
      | Ok (Series.Exhausted _, snap) -> drive (Some snap) (rounds + 1)
      | Error e -> QCheck.Test.fail_reportf "budgeted slice failed: %s" (err_str e)
  in
  let resumed = drive None 0 in
  if not (interval_bits_equal full resumed) then
    QCheck.Test.fail_reportf "enclosures differ: [%h,%h] vs [%h,%h]" (Interval.lo full)
      (Interval.hi full) (Interval.lo resumed) (Interval.hi resumed)
  else true

(* The same snapshot also roundtrips through its string encoding between
   slices — what the CLI's --checkpoint/--resume actually does. *)
let prop_sum_resume_through_string seed =
  let rng = Random.State.make [| seed; 0x57A |] in
  let upto = 40 + Random.State.int rng 200 in
  let term i = 1.0 /. (float_of_int i ** 2.0) in
  let tail = Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 } in
  let full =
    match Series.sum_resumable ~start:1 term ~tail ~upto with
    | Ok (Series.Complete e, _) -> e
    | _ -> QCheck.Test.fail_report "unbudgeted run did not complete"
  in
  let rec drive from rounds =
    if rounds > upto + 2 then QCheck.Test.fail_report "resume loop did not converge"
    else
      let from =
        match from with
        | None -> None
        | Some s -> (
          match Series.Snapshot.of_string (Series.Snapshot.to_string s) with
          | Ok s' -> Some s'
          | Error m -> QCheck.Test.fail_reportf "snapshot did not roundtrip: %s" m)
      in
      let budget = Budget.make ~max_steps:(1 + Random.State.int rng 60) () in
      match Series.sum_resumable ~start:1 ?from ~budget term ~tail ~upto with
      | Ok (Series.Complete e, _) -> e
      | Ok (Series.Exhausted _, snap) -> drive (Some snap) (rounds + 1)
      | Error e -> QCheck.Test.fail_reportf "budgeted slice failed: %s" (err_str e)
  in
  interval_bits_equal full (drive None 0)

let prop_divergence_resume_equivalence seed =
  let rng = Random.State.make [| seed; 0xD17 |] in
  let coeff = 0.1 +. Random.State.float rng 0.9 in
  let upto = 50 + Random.State.int rng 450 in
  let term i = coeff /. float_of_int i in
  let certificate = Series.Divergence.Harmonic { index = 1; coeff } in
  let full =
    match Series.certify_divergence_resumable ~start:1 term ~certificate ~upto with
    | Ok (Series.Div_complete { partial; at }, _) -> (partial, at)
    | Ok (Series.Div_exhausted _, _) -> QCheck.Test.fail_report "unbudgeted run exhausted"
    | Error e -> QCheck.Test.fail_reportf "unbudgeted run failed: %s" (err_str e)
  in
  let rec drive from rounds =
    if rounds > upto + 2 then QCheck.Test.fail_report "resume loop did not converge"
    else
      let budget = Budget.make ~max_steps:(1 + Random.State.int rng upto) () in
      match Series.certify_divergence_resumable ~start:1 ?from ~budget term ~certificate ~upto with
      | Ok (Series.Div_complete { partial; at }, _) -> (partial, at)
      | Ok (Series.Div_exhausted _, snap) -> drive (Some snap) (rounds + 1)
      | Error e -> QCheck.Test.fail_reportf "budgeted slice failed: %s" (err_str e)
  in
  let partial_full, at_full = full and partial_res, at_res = drive None 0 in
  float_bits_equal partial_full partial_res && at_full = at_res

(* ratio-style certificates carry prev_term across the interruption — the
   trickiest snapshot field; pin it deterministically *)
let test_ratio_resume_equivalence () =
  let term i = 0.5 +. (float_of_int i *. 0.001) in
  let certificate = Series.Divergence.Eventually_ratio_ge_one { index = 1; floor = 0.25 } in
  let upto = 200 in
  let full =
    match Series.certify_divergence_resumable ~start:1 term ~certificate ~upto with
    | Ok (Series.Div_complete { partial; at }, _) -> (partial, at)
    | _ -> Alcotest.fail "unbudgeted ratio run did not complete"
  in
  let rec drive from =
    let budget = Budget.make ~max_steps:17 () in
    match Series.certify_divergence_resumable ~start:1 ?from ~budget term ~certificate ~upto with
    | Ok (Series.Div_complete { partial; at }, _) -> (partial, at)
    | Ok (Series.Div_exhausted _, snap) -> drive (Some snap)
    | Error e -> Alcotest.failf "ratio slice failed: %s" (err_str e)
  in
  let partial_full, at_full = full and partial_res, at_res = drive None in
  Alcotest.(check int) "at" at_full at_res;
  Alcotest.(check bool) "partial bits" true (float_bits_equal partial_full partial_res)

let test_stale_snapshot_rejected () =
  let term i = 1.0 /. (float_of_int i ** 2.0) in
  let tail = Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 } in
  (* snapshot taken for a different start: must be a typed Validation *)
  let stale =
    Series.Snapshot.Sum_state { Series.Snapshot.sum_start = 5; next = 10; prefix = Interval.make 0.0 0.0 }
  in
  match Series.sum_resumable ~start:1 ~from:stale term ~tail ~upto:100 with
  | Error (Run_error.Validation _) -> ()
  | Error e -> Alcotest.failf "expected Validation, got %s" (err_str e)
  | Ok _ -> Alcotest.fail "stale snapshot accepted"

(* ------------------------------------------------------------------ *)
(* Metamorphic: the filtered fast arithmetic (DESIGN.md §14)            *)
(*                                                                      *)
(* The fast series loop and the lazy-GCD accumulators may only          *)
(* accelerate: whole runs, their progress snapshots, and partial sums   *)
(* must be byte-identical to the unfiltered reference path.             *)
(* ------------------------------------------------------------------ *)

(* One full resumable summation, capturing every progress snapshot as its
   serialized string: the fast path and the forced-reference path must
   produce byte-identical snapshot streams and final enclosures. *)
let prop_fast_reference_sum_identical seed =
  let rng = Random.State.make [| seed; 0xFA57 |] in
  let coeff = 0.1 +. Random.State.float rng 0.9 in
  let p = 1.5 +. Random.State.float rng 1.5 in
  let upto = 100 + Random.State.int rng 400 in
  let every = 16 + Random.State.int rng 48 in
  let term i = coeff /. (float_of_int i ** p) in
  let tail = Series.Tail.P_series { index = 1; coeff; p } in
  let run () =
    let snaps = ref [] in
    match
      Series.sum_resumable ~start:1
        ~progress:(fun s -> snaps := Series.Snapshot.to_string s :: !snaps)
        ~progress_every:every term ~tail ~upto
    with
    | Ok (Series.Complete e, final) ->
      (List.rev !snaps, Series.Snapshot.to_string final, e)
    | Ok (Series.Exhausted _, _) -> QCheck.Test.fail_report "unbudgeted run exhausted"
    | Error e -> QCheck.Test.fail_reportf "run failed: %s" (err_str e)
  in
  let fast_snaps, fast_final, fast_e = run () in
  let ref_snaps, ref_final, ref_e = Arith.with_reference true run in
  if not (interval_bits_equal fast_e ref_e) then
    QCheck.Test.fail_report "fast and reference enclosures differ"
  else if not (String.equal fast_final ref_final) then
    QCheck.Test.fail_report "final snapshots differ"
  else if not (List.equal String.equal fast_snaps ref_snaps) then
    QCheck.Test.fail_report "progress snapshot streams differ"
  else true

let prop_fast_reference_divergence_identical seed =
  let rng = Random.State.make [| seed; 0xD1FF |] in
  let coeff = 0.1 +. Random.State.float rng 0.9 in
  let upto = 100 + Random.State.int rng 400 in
  let term i = coeff /. float_of_int i in
  let certificate = Series.Divergence.Harmonic { index = 1; coeff } in
  let run () =
    match Series.certify_divergence_resumable ~start:1 term ~certificate ~upto with
    | Ok (Series.Div_complete { partial; at }, final) ->
      (partial, at, Series.Snapshot.to_string final)
    | Ok (Series.Div_exhausted _, _) -> QCheck.Test.fail_report "unbudgeted run exhausted"
    | Error e -> QCheck.Test.fail_reportf "run failed: %s" (err_str e)
  in
  let p1, at1, s1 = run () in
  let p2, at2, s2 = Arith.with_reference true run in
  float_bits_equal p1 p2 && at1 = at2 && String.equal s1 s2

(* The fast fold rounds with a multiply-add for 2^-960 <= |x| <= max_float
   and with the libm neighbour elsewhere. Sums whose endpoints sweep the
   exponent range — subnormal, across the 2^-960 switch, huge, overflowing
   to infinity — must still match the reference fold bit for bit, chunk
   snapshots included, and count the same widenings (an infinite endpoint
   makes the width NaN, so an overflowing sum stops widening). *)
let prop_fast_reference_exponent_range seed =
  let rng = Random.State.make [| seed; 0xE4B |] in
  let top =
    match Random.State.int rng 3 with
    | 0 -> -1074 + Random.State.int rng 2098
    | 1 -> -1030 + Random.State.int rng 140
    | _ -> if Random.State.bool rng then 1023 - Random.State.int rng 8 else -1022 + Random.State.int rng 8
  in
  let upto = 50 + Random.State.int rng 400 in
  let terms =
    Array.init (upto + 1) (fun _ ->
        let e = top - Random.State.int rng 60 in
        (* exact powers of two put the rounding input on a binade edge *)
        let m = if Random.State.int rng 4 = 0 then 1.0 else 1.0 +. Random.State.float rng 1.0 in
        if e < -1074 then 0.0 else Float.ldexp m e)
  in
  let every = 8 + Random.State.int rng 32 in
  let chunk = 1 + Random.State.int rng 64 in
  let widenings = Metrics.counter "series.widenings" in
  let run () =
    let snaps = ref [] in
    Metrics.enable ();
    Metrics.reset ();
    let r =
      Fun.protect ~finally:Metrics.disable @@ fun () ->
      Series.sum_resumable ~chunk
        ~progress:(fun s -> snaps := Series.Snapshot.to_string s :: !snaps)
        ~progress_every:every (fun n -> terms.(n)) ~tail:(Series.Tail.Finite_support { last = upto }) ~upto
    in
    match r with
    | Ok (Series.Complete e, final) -> (List.rev !snaps, Series.Snapshot.to_string final, e, Metrics.value widenings)
    | Ok (Series.Exhausted _, _) -> QCheck.Test.fail_report "unbudgeted run exhausted"
    | Error e -> QCheck.Test.fail_reportf "run failed: %s" (err_str e)
  in
  let fast_snaps, fast_final, fast_e, fast_w = run () in
  let ref_snaps, ref_final, ref_e, ref_w = Arith.with_reference true run in
  if not (interval_bits_equal fast_e ref_e) then
    QCheck.Test.fail_reportf "enclosures differ (top exponent %d): [%h,%h] vs [%h,%h]" top (Interval.lo fast_e)
      (Interval.hi fast_e) (Interval.lo ref_e) (Interval.hi ref_e)
  else if not (String.equal fast_final ref_final) then QCheck.Test.fail_report "final snapshots differ"
  else if fast_w <> ref_w then QCheck.Test.fail_reportf "widenings differ: fast %d, reference %d" fast_w ref_w
  else List.equal String.equal fast_snaps ref_snaps || QCheck.Test.fail_report "progress snapshot streams differ"

(* A snapshot taken by the fast path restores byte-identically and can be
   resumed under the reference mode (and vice versa): the remainder of the
   run still reproduces the uninterrupted enclosure bit for bit. *)
let prop_cross_mode_resume seed =
  let rng = Random.State.make [| seed; 0xC805 |] in
  let upto = 100 + Random.State.int rng 300 in
  let term i = 1.0 /. (float_of_int i ** 2.5) in
  let tail = Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.5 } in
  let full =
    match Series.sum_resumable ~start:1 term ~tail ~upto with
    | Ok (Series.Complete e, _) -> e
    | _ -> QCheck.Test.fail_report "unbudgeted run did not complete"
  in
  (* interrupt in one mode... *)
  let first_fast = Random.State.bool rng in
  let snap =
    Arith.with_reference (not first_fast) @@ fun () ->
    match
      Series.sum_resumable ~start:1
        ~budget:(Budget.make ~max_steps:(1 + Random.State.int rng (upto - 1)) ())
        term ~tail ~upto
    with
    | Ok (Series.Exhausted _, snap) -> Some snap
    | Ok (Series.Complete _, _) -> None (* budget covered everything *)
    | Error e -> QCheck.Test.fail_reportf "budgeted slice failed: %s" (err_str e)
  in
  match snap with
  | None -> true
  | Some snap -> (
    (* ...restore from its string form and finish in the other mode *)
    let snap =
      match Series.Snapshot.of_string (Series.Snapshot.to_string snap) with
      | Ok s -> s
      | Error m -> QCheck.Test.fail_reportf "snapshot did not roundtrip: %s" m
    in
    Arith.with_reference first_fast @@ fun () ->
    match Series.sum_resumable ~start:1 ~from:snap term ~tail ~upto with
    | Ok (Series.Complete e, _) -> interval_bits_equal full e
    | Ok (Series.Exhausted _, _) -> QCheck.Test.fail_report "resumed run exhausted"
    | Error e -> QCheck.Test.fail_reportf "resumed run failed: %s" (err_str e))

(* Lazy-GCD partial sums: after every single operation the batched
   accumulator's total equals the eagerly normalised running sum — not
   just at the end. *)
let prop_lazy_gcd_partial_sums seed =
  let rng = Random.State.make [| seed; 0x6CD |] in
  let n = 1 + Random.State.int rng 80 in
  let acc = Qa.Accum.create () in
  let eager = ref Qa.zero in
  let ok = ref true in
  for _ = 1 to n do
    let x = Qa.of_ints (Random.State.int rng 2001 - 1000) (1 + Random.State.int rng 1000) in
    let add = Random.State.bool rng in
    if add then Qa.Accum.add acc x else Qa.Accum.sub acc x;
    eager := if add then Qa.add !eager x else Qa.sub !eager x;
    let t = Qa.Accum.total acc in
    if
      not
        (Qa.equal t !eager
        && Ipdb_bignum.Zint.equal (Qa.num t) (Qa.num !eager)
        && Ipdb_bignum.Nat.equal (Qa.den t) (Qa.den !eager))
    then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Classifier checkpoints                                               *)
(* ------------------------------------------------------------------ *)

let test_classifier_checkpoint_roundtrip () =
  let cps =
    [ Classifier.empty_checkpoint;
      { Classifier.completed =
          [ ("k1", Criteria.Finite_sum (Interval.make 1.0 2.0));
            ("k2", Criteria.Infinite_sum { partial = 3.25; at = 50 });
            ("c1", Criteria.Invalid_certificate "terms decrease at 17");
            ("c2", Criteria.Check_failed (Run_error.Io { path = "/tmp/x y"; msg = "gone" }))
          ];
        in_flight =
          Some
            ( "c3",
              Series.Snapshot.Sum_state
                { Series.Snapshot.sum_start = 1; next = 500; prefix = Interval.make 0.5 0.5 } )
      }
    ]
  in
  List.iter
    (fun cp ->
      match Classifier.checkpoint_of_string (Classifier.checkpoint_to_string cp) with
      | Error m -> Alcotest.failf "checkpoint roundtrip: %s" m
      | Ok cp' ->
        Alcotest.(check string) "canonical form stable" (Classifier.checkpoint_to_string cp)
          (Classifier.checkpoint_to_string cp'))
    cps

let test_classifier_resume_equivalence () =
  List.iter
    (fun (name, cf) ->
      let plain = Classifier.classify ~upto:500 cf in
      (* a budget-killed run, its last checkpoint captured... *)
      let saved = ref Classifier.empty_checkpoint in
      let (_ : Classifier.verdict) =
        Classifier.classify_resumable ~upto:500
          ~budget:(Budget.make ~max_steps:120 ())
          ~save:(fun cp -> saved := cp)
          cf
      in
      (* ...then resumed through the string encoding with no budget *)
      let from =
        match Classifier.checkpoint_of_string (Classifier.checkpoint_to_string !saved) with
        | Ok cp -> cp
        | Error m -> Alcotest.failf "checkpoint did not roundtrip: %s" m
      in
      let resumed = Classifier.classify_resumable ~upto:500 ~from cf in
      Alcotest.(check string) (name ^ ": resumed verdict")
        (Classifier.verdict_to_string plain)
        (Classifier.verdict_to_string resumed))
    [ ("example-5.5", Zoo.example_5_5); ("example-3.5", Zoo.example_3_5) ]

(* ------------------------------------------------------------------ *)
(* Criteria verdict serialization                                       *)
(* ------------------------------------------------------------------ *)

let test_verdict_roundtrip () =
  let verdicts =
    [ Criteria.Finite_sum (Interval.make 0.1 (0.1 +. 0.2));
      Criteria.Infinite_sum { partial = 123.456; at = 999 };
      Criteria.Partial
        { enclosure = Some (Interval.make 1.0 2.0); partial = 1.5; at = 10; requested = 100;
          exhausted = Run_error.Steps { used = 11; limit = 10 }
        };
      Criteria.Partial
        { enclosure = None; partial = 0.0; at = 0; requested = 7;
          exhausted = Run_error.Timeout { elapsed = 1.25; limit = 1.0 }
        };
      Criteria.Partial
        { enclosure = None; partial = 3.0; at = 3; requested = 9; exhausted = Run_error.Cancelled };
      Criteria.Invalid_certificate "terms decrease at 17 (with spaces\nand a newline)";
      Criteria.Invalid_certificate "";
      Criteria.Check_failed (Run_error.Parse { what = "doc"; msg = "unexpected eof" });
      Criteria.Check_failed (Run_error.Validation { what = "snapshot"; msg = "start mismatch" });
      Criteria.Check_failed (Run_error.Certificate { what = "tail"; msg = "hypothesis violated" });
      Criteria.Check_failed (Run_error.Io { path = "/tmp/with space"; msg = "read failed" });
      Criteria.Check_failed
        (Run_error.Exhausted { what = "sum"; reason = Run_error.Steps { used = 2; limit = 1 } });
      Criteria.Check_failed (Run_error.Injected_fault { site = "term" });
      Criteria.Check_failed (Run_error.Internal { msg = "invariant broke" })
    ]
  in
  List.iter
    (fun v ->
      let s = Criteria.verdict_serialize v in
      match Criteria.verdict_deserialize s with
      | Error m -> Alcotest.failf "deserialize failed: %s (on %S)" m s
      | Ok v' ->
        Alcotest.(check string) "canonical form stable" s (Criteria.verdict_serialize v'))
    verdicts

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "crashsafe"
    [ ( "journal",
        [ Alcotest.test_case "append/recover roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "missing file is empty and clean" `Quick test_journal_missing_file;
          Alcotest.test_case "torn tail keeps the valid prefix" `Quick test_journal_torn_tail;
          Alcotest.test_case "every truncation recovers a prefix" `Quick
            test_journal_truncation_prefix;
          Alcotest.test_case "FNV-1a/64 test vectors" `Quick test_checksum_vectors;
          prop "escape/unescape roundtrip on arbitrary bytes" prop_escape_roundtrip
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "save/load roundtrip, last write wins" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "missing file loads as None" `Quick test_checkpoint_missing;
          Alcotest.test_case "every truncation is detected" `Quick test_checkpoint_damage
        ] );
      ( "supervisor",
        [ Alcotest.test_case "error classification" `Quick test_classification;
          Alcotest.test_case "transient errors retry then succeed" `Quick test_retry_then_succeed;
          Alcotest.test_case "permanent errors fail fast" `Quick test_permanent_fails_fast;
          Alcotest.test_case "retries are bounded" `Quick test_retries_exhausted;
          Alcotest.test_case "quarantine after consecutive failures" `Quick test_quarantine;
          Alcotest.test_case "degradation ladder" `Quick test_degradation_ladder;
          Alcotest.test_case "backoff schedule deterministic and bounded" `Quick
            test_backoff_schedule
        ] );
      ( "snapshots",
        [ Alcotest.test_case "special floats roundtrip exactly" `Quick test_float_specials;
          prop ~count:500 "random bit patterns roundtrip exactly" prop_float_roundtrip;
          Alcotest.test_case "snapshot to_string/of_string" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "snapshot through an on-disk checkpoint" `Quick
            test_snapshot_through_checkpoint
        ] );
      ( "resume-equivalence",
        [ prop ~count:60 "sum: sliced-and-resumed ≡ uninterrupted (bit-for-bit)"
            prop_sum_resume_equivalence;
          prop ~count:40 "sum: snapshots roundtrip through strings between slices"
            prop_sum_resume_through_string;
          prop ~count:60 "divergence: sliced-and-resumed ≡ uninterrupted"
            prop_divergence_resume_equivalence;
          Alcotest.test_case "ratio certificate carries prev_term across slices" `Quick
            test_ratio_resume_equivalence;
          Alcotest.test_case "stale snapshot is a typed Validation error" `Quick
            test_stale_snapshot_rejected
        ] );
      ( "filtered-arithmetic",
        [ prop ~count:40 "fast run ≡ reference run (snapshots byte-identical)"
            prop_fast_reference_sum_identical;
          prop ~count:40 "fast divergence ≡ reference divergence"
            prop_fast_reference_divergence_identical;
          prop ~count:200 "fast fold ≡ reference fold across the exponent range"
            prop_fast_reference_exponent_range;
          prop ~count:60 "snapshots resume across arithmetic modes" prop_cross_mode_resume;
          prop ~count:60 "lazy-GCD partial sums ≡ eager normalisation"
            prop_lazy_gcd_partial_sums
        ] );
      ( "classifier",
        [ Alcotest.test_case "checkpoint to_string/of_string" `Quick
            test_classifier_checkpoint_roundtrip;
          Alcotest.test_case "budget-killed + resumed ≡ uninterrupted" `Quick
            test_classifier_resume_equivalence
        ] );
      ( "verdicts",
        [ Alcotest.test_case "series-verdict serialization roundtrip" `Quick test_verdict_roundtrip ]
      )
    ]
