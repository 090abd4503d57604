(* The serve daemon: wire framing, the verdict cache, admission control,
   load shedding, fault drives, journal replay and graceful drain — all
   in-process against ephemeral-port servers. The cross-process contracts
   (SIGKILL replay, golden wire bytes) live in serve_crash.sh and
   serve_contract.sh. *)

module Protocol = Ipdb_serve.Protocol
module Cache = Ipdb_serve.Cache
module Server = Ipdb_serve.Server
module Client = Ipdb_serve.Client
module Journal = Ipdb_run.Journal
module Checkpoint = Ipdb_run.Checkpoint
module Faultinj = Ipdb_run.Faultinj
module Env = Ipdb_env.Env
module Simenv = Ipdb_env.Simenv
module Metrics = Ipdb_obs.Metrics

let prop ?(count = 200) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)
let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

let tmpfile suffix =
  let f = Filename.temp_file "ipdb-serve-test" suffix in
  at_exit (fun () -> try Sys.remove f with _ -> ());
  f

(* A config every test starts from: ephemeral port, tiny timeouts so a
   wedged path fails the suite instead of hanging it. *)
let test_config =
  {
    Server.default_config with
    port = 0;
    jobs = Some 2;
    read_timeout = 5.0;
    max_timeout = 5.0;
  }

let with_server cfg f =
  match Server.start cfg with
  | Error e -> Alcotest.failf "server failed to start: %s" (Ipdb_run.Error.to_string e)
  | Ok t ->
      let finally () = Server.stop ~drain_timeout:10.0 t in
      Fun.protect ~finally (fun () -> f t)

let request t payload =
  match Client.request ~port:(Server.port t) payload with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "request %S failed: %s" payload msg

let check_status what expected (resp : Protocol.response) =
  Alcotest.(check string)
    what
    (Protocol.status_token expected)
    (Protocol.status_token resp.Protocol.status)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let arb_payload =
  QCheck.make
    ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map
        (fun cs -> String.concat "" cs)
        (list_size (0 -- 60)
           (oneof [ map (String.make 1) printable; return "\n"; return "\\"; return " " ])))

let frame_roundtrip payload =
  let line = Protocol.frame payload in
  (* the frame is one newline-terminated line whatever the payload *)
  if String.index_opt line '\n' <> Some (String.length line - 1) then
    fail "frame of %S is not a single line" payload;
  match Protocol.parse_frame (String.sub line 0 (String.length line - 1)) with
  | Ok p when p = payload -> true
  | Ok p -> fail "roundtrip of %S produced %S" payload p
  | Error m -> fail "roundtrip of %S rejected: %s" payload m

let test_frame_rejects () =
  let reject what line =
    match Protocol.parse_frame line with
    | Error _ -> ()
    | Ok p -> Alcotest.failf "%s accepted as %S" what p
  in
  reject "empty line" "";
  reject "bad magic" "nonsense 3 abc";
  reject "missing length" "ipdbs1";
  reject "unparsable length" "ipdbs1 x yz";
  reject "negative length" "ipdbs1 -1 x";
  reject "length mismatch" "ipdbs1 5 abc";
  reject "oversized" (Printf.sprintf "ipdbs1 %d x" (Protocol.max_payload + 1));
  reject "bad escape" "ipdbs1 1 \\x"

let response_roundtrip (status, body) =
  (* bodies are single-line by construction at call sites *)
  let body = String.concat "·" (String.split_on_char '\n' body) in
  let r = { Protocol.status; body } in
  match Protocol.parse_response (Protocol.render_response r) with
  | Ok r' when r' = r -> true
  | Ok { Protocol.status = s; body = b } ->
      fail "response (%s, %S) came back (%s, %S)" (Protocol.status_token status) body
        (Protocol.status_token s) b
  | Error m -> fail "response rejected: %s" m

let arb_status_body =
  QCheck.make
    ~print:(fun (s, b) -> Printf.sprintf "(%s, %S)" (Protocol.status_token s) b)
    QCheck.Gen.(
      pair
        (oneofl
           Protocol.[ Ok_positive; Certified_negative; Bad_request; Partial; Internal; Busy; Proto ])
        (string_size ~gen:printable (0 -- 40)))

let test_request_grammar () =
  let ok payload =
    match Protocol.parse_request payload with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%S rejected: %s" payload m
  in
  let reject payload =
    match Protocol.parse_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S accepted" payload
  in
  ok "version";
  ok "stats";
  ok "classify geometric";
  ok "classify geometric upto=100 timeout=1.5 max_steps=50";
  ok "moments example-3.5 k=2 upto=50";
  ok "criterion geometric c=1";
  ok "pqe example-b3 exists x y. R(x,y)";
  reject "";
  reject "frobnicate geometric";
  reject "classify";
  reject "classify geometric upto=-3";
  reject "classify geometric upto=x";
  reject "classify geometric bogus=1";
  reject "version now";
  reject "pqe example-b3"

(* cache keys ignore budget options and canonicalise pqe sentences *)
let test_cache_key_canonical () =
  let key payload =
    match Protocol.parse_request payload with
    | Ok (req, _) -> Protocol.cache_key req
    | Error m -> Alcotest.failf "%S rejected: %s" payload m
  in
  Alcotest.(check bool)
    "budget opts are not part of the key" true
    (key "classify geometric upto=100" = key "classify geometric upto=100 timeout=2 max_steps=9");
  Alcotest.(check bool)
    "pqe spelling variants share a key" true
    (key "pqe example-b3 exists x y. R(x,y)" = key "pqe example-b3 exists x. exists y. R(x,y)");
  Alcotest.(check bool) "version has no key" true (key "version" = None)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let arb_entries =
  QCheck.make
    ~print:(fun es -> String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%S->%S" k v) es))
    QCheck.Gen.(
      list_size (0 -- 30)
        (pair (string_size ~gen:(oneof [ printable; return '\n' ]) (1 -- 30)) (string_size ~gen:printable (0 -- 30))))

let cache_snapshot_roundtrip entries =
  let c = Cache.create () in
  List.iter (fun (k, v) -> Cache.put c ~key:k v) entries;
  let snap = Cache.to_string c in
  match Cache.of_string snap with
  | Error m -> fail "snapshot rejected: %s" m
  | Ok c' ->
      if Cache.size c' <> Cache.size c then fail "size %d -> %d" (Cache.size c) (Cache.size c');
      List.for_all
        (fun (k, _v) ->
          (* last write per key wins, so compare against c itself *)
          match (Cache.find c ~key:k, Cache.find c' ~key:k) with
          | Some a, Some b when a = b -> true
          | a, b ->
              fail "entry %S: %s vs %s" k
                (Option.value ~default:"<none>" a)
                (Option.value ~default:"<none>" b)
          | exception _ -> false)
        entries
      &&
      (* snapshots are canonical: reloading and re-snapshotting is stable *)
      Cache.to_string c' = snap

let test_cache_version_mismatch () =
  match Cache.of_string "ipdbsc0" with
  | Error m ->
      Alcotest.(check bool) "names both versions" true (String.length m > 0 && String.sub m 0 5 = "cache")
  | Ok _ -> Alcotest.fail "stale snapshot version accepted"

let test_cache_checkpoint_file () =
  let path = tmpfile ".cache" in
  Sys.remove path;
  (match Cache.load ~path with
  | Ok c -> Alcotest.(check int) "missing file is an empty cache" 0 (Cache.size c)
  | Error e -> Alcotest.failf "missing file: %s" (Ipdb_run.Error.to_string e));
  let c = Cache.create () in
  Cache.put c ~key:"k one" "0 verdict one";
  Cache.put c ~key:"k\ntwo" "1 verdict two";
  (match Cache.checkpoint c ~path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" (Ipdb_run.Error.to_string e));
  match Cache.load ~path with
  | Error e -> Alcotest.failf "load: %s" (Ipdb_run.Error.to_string e)
  | Ok c' ->
      Alcotest.(check (option string)) "entry 1" (Some "0 verdict one") (Cache.find c' ~key:"k one");
      Alcotest.(check (option string)) "entry 2" (Some "1 verdict two") (Cache.find c' ~key:"k\ntwo")

(* ------------------------------------------------------------------ *)
(* The daemon, in process                                              *)
(* ------------------------------------------------------------------ *)

let test_statuses () =
  with_server test_config @@ fun t ->
  check_status "version" Protocol.Ok_positive (request t "version");
  check_status "positive verdict" Protocol.Ok_positive (request t "classify geometric");
  check_status "certified negative" Protocol.Certified_negative
    (request t "moments example-3.5 k=2 upto=50");
  check_status "usage error" Protocol.Bad_request (request t "classify no-such-family");
  check_status "budget exhaustion" Protocol.Partial
    (request t "criterion geometric upto=100000000 max_steps=5000");
  check_status "pqe" Protocol.Ok_positive (request t "pqe example-b3 exists x y. R(x,y)");
  let v = request t "version" in
  Alcotest.(check string) "version body" (Server.version_string ()) v.Protocol.body

let test_responses_match_cli_bytes () =
  (* The response body for a served request must be the CLI's verdict
     line for the same query — one render, two transports. *)
  with_server test_config @@ fun t ->
  let r = request t "moments example-3.5 k=2 upto=50" in
  Alcotest.(check string)
    "moments render" "E(|D|^2) = ∞ (certified; partial sum 150 after 50 terms)" r.Protocol.body;
  let r = request t "pqe example-b3 exists x y. R(x,y)" in
  Alcotest.(check string) "pqe render" "P(∃x.(∃y.R(x,y))) = 2/3 ≈ 0.66666666" r.Protocol.body

let test_cache_accounting () =
  with_server test_config @@ fun t ->
  let a = request t "criterion geometric upto=2000" in
  let b = request t "criterion geometric upto=2000" in
  Alcotest.(check string) "hit is byte-identical" a.Protocol.body b.Protocol.body;
  let s = Server.stats t in
  Alcotest.(check int) "one miss" 1 s.Server.cache_misses;
  Alcotest.(check int) "one hit" 1 s.Server.cache_hits;
  Alcotest.(check int) "one entry" 1 s.Server.cache_size

let test_overload_sheds () =
  (* jobs=1, queue_limit=0: while one slow request is in flight, every
     further connection must shed with E_BUSY — and the daemon must keep
     serving normally afterwards. *)
  let cfg = { test_config with jobs = Some 1; queue_limit = 0; slow_worker = 0.8 } in
  with_server cfg @@ fun t ->
  let slow = Domain.spawn (fun () -> request t "version") in
  Unix.sleepf 0.3;
  let shed1 = request t "version" in
  let shed2 = request t "version" in
  check_status "first excess connection" Protocol.Busy shed1;
  check_status "second excess connection" Protocol.Busy shed2;
  let first = Domain.join slow in
  ignore first;
  let s = Server.stats t in
  Alcotest.(check int) "shed counter" 2 s.Server.shed;
  (* every connection, shed or served, is counted out before its reply
     is written, so once the clients have their replies nothing is left *)
  Alcotest.(check int) "queue depth settled" 0 s.Server.in_flight;
  (* capacity is free again: served, not shed *)
  check_status "after the burst" Protocol.Ok_positive (request t "version")

let test_degradation_ladder () =
  (* jobs=1 with a queue: the queued request runs on the degraded rung —
     a tiny step cap — so an astronomically long series answers quickly
     with a sound Partial instead of occupying the queue for hours. The
     slow worker holds the only worker while the probe is queued, and
     delays every request by the same fixed time. *)
  let cfg =
    { test_config with jobs = Some 1; queue_limit = 4; degraded_max_steps = 100; slow_worker = 0.8 }
  in
  with_server cfg @@ fun t ->
  let blocker = Domain.spawn (fun () -> request t "version") in
  Unix.sleepf 0.3;
  let degraded = request t "criterion geometric upto=100000000" in
  check_status "degraded request is a sound Partial" Protocol.Partial degraded;
  ignore (Domain.join blocker);
  let s = Server.stats t in
  Alcotest.(check bool) "degraded counter" true (s.Server.degraded >= 1)

let test_back_to_back_not_degraded () =
  (* One client at a time never exceeds the worker count: a client that
     reads its reply and reconnects at once must not find its previous
     connection still counted in flight. *)
  let cfg = { test_config with jobs = Some 1; queue_limit = 4 } in
  with_server cfg @@ fun t ->
  let answered = ref 0 in
  for _ = 1 to 500 do
    if (request t "version").Protocol.status = Protocol.Ok_positive then incr answered
  done;
  Alcotest.(check int) "every request answered" 500 !answered;
  Alcotest.(check int) "no back-to-back request degraded" 0 (Server.stats t).Server.degraded

let test_fault_drive () =
  (* An armed Serve_worker site must surface as a typed status-4 response,
     never a crash or a torn connection. *)
  let cfg = { test_config with fault_rate = 1.0; fault_seed = 42 } in
  with_server cfg @@ fun t ->
  let r = request t "classify geometric" in
  check_status "injected fault is status 4" Protocol.Internal r;
  Alcotest.(check bool) "typed E_FAULT body" true
    (String.length r.Protocol.body >= 7 && String.sub r.Protocol.body 0 7 = "E_FAULT");
  Faultinj.disarm ()

let test_torn_client () =
  with_server test_config @@ fun t ->
  (* half a frame, then vanish *)
  (match Client.connect ~port:(Server.port t) () with
  | Error m -> Alcotest.fail m
  | Ok fd ->
      ignore (Unix.write_substring fd "ipdbs1 999" 0 10);
      Unix.close fd);
  (* unframed garbage gets a structured E_PROTO, not a hangup *)
  (match Client.request_raw ~port:(Server.port t) "not a frame at all\n" with
  | Ok line ->
      let payload =
        match Protocol.parse_frame (String.trim line) with
        | Ok p -> p
        | Error m -> Alcotest.failf "unparsable E_PROTO frame: %s" m
      in
      (match Protocol.parse_response payload with
      | Ok r -> check_status "malformed frame" Protocol.Proto r
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.failf "raw request: %s" m);
  (* and the daemon is still healthy *)
  check_status "still serving" Protocol.Ok_positive (request t "version")

let test_replay_completes_pending () =
  (* A journal holding an accepted-but-unanswered request must be replayed
     on start, journaled as done under its original id, and not replayed
     again on the next start. *)
  let path = tmpfile ".journal" in
  Sys.remove path;
  let cfg = { test_config with journal = Some path } in
  with_server cfg @@ fun t0 ->
  let answered = request t0 "criterion geometric upto=2000" in
  Server.stop t0;
  (* append a pending request by hand, as if the daemon died mid-compute *)
  (match Journal.open_append ~path () with
  | Error e -> Alcotest.failf "journal: %s" (Ipdb_run.Error.to_string e)
  | Ok j ->
      (match Journal.append j "req 999 criterion geometric c=1 upto=2000" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" (Ipdb_run.Error.to_string e));
      Journal.close j);
  with_server cfg @@ fun t1 ->
  let s = Server.stats t1 in
  Alcotest.(check int) "one replay" 1 s.Server.replayed;
  let again = request t1 "criterion geometric upto=2000" in
  Alcotest.(check string) "replayed verdict is byte-identical" answered.Protocol.body
    again.Protocol.body;
  (* two hits: the replay itself (the cache was re-seeded from the first
     run's done record) and the client's re-ask *)
  Alcotest.(check int) "replay and re-ask both hit the cache" 2 (Server.stats t1).Server.cache_hits;
  Server.stop t1;
  with_server cfg @@ fun t2 ->
  Alcotest.(check int) "nothing pending on the next start" 0 (Server.stats t2).Server.replayed

let test_mixed_version_refused () =
  (* A journal whose header speaks a different protocol version must fail
     startup loudly, not replay garbage. *)
  let path = tmpfile ".journal" in
  Sys.remove path;
  (match Journal.open_append ~path () with
  | Error e -> Alcotest.failf "journal: %s" (Ipdb_run.Error.to_string e)
  | Ok j ->
      ignore (Journal.append j "serve ipdbs0 ipdbsc1 0.9.9");
      Journal.close j);
  (match Server.start { test_config with journal = Some path } with
  | Ok t ->
      Server.stop t;
      Alcotest.fail "mixed-version journal accepted"
  | Error e ->
      let m = Ipdb_run.Error.to_string e in
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "diagnostic names the stale version" true (contains "ipdbs0" m));
  (* same for a cache snapshot *)
  let cpath = tmpfile ".cache" in
  (match Checkpoint.save ~path:cpath "ipdbsc0\ngarbage" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" (Ipdb_run.Error.to_string e));
  match Server.start { test_config with cache_file = Some cpath } with
  | Ok t ->
      Server.stop t;
      Alcotest.fail "mixed-version cache accepted"
  | Error _ -> ()

let test_graceful_drain () =
  (* stop during an in-flight slow request: the response is still written
     before the daemon exits. *)
  let cfg = { test_config with jobs = Some 1; slow_worker = 0.5 } in
  with_server cfg @@ fun t ->
  let inflight = Domain.spawn (fun () -> Client.request ~port:(Server.port t) "version") in
  Unix.sleepf 0.15;
  Server.stop ~drain_timeout:10.0 t;
  match Domain.join inflight with
  | Ok r -> check_status "drained request answered" Protocol.Ok_positive r
  | Error m -> Alcotest.failf "in-flight request lost during drain: %s" m

(* ------------------------------------------------------------------ *)
(* Faults: injected I/O errors, retry backoff, writer locks            *)
(* ------------------------------------------------------------------ *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ISSUE acceptance: a daemon surviving an injected ENOSPC on journal
   append answers the next request successfully, with the failed request
   getting a stable E_IO code and serve.io_errors incremented. *)
let test_enospc_survival () =
  Metrics.enable ();
  let io_errors = Metrics.counter "serve.io_errors" in
  let sim = Simenv.create () in
  Env.with_env (Simenv.env sim) @@ fun () ->
  let cfg = { test_config with jobs = Some 1; journal = Some "serve-enospc.journal" } in
  with_server cfg @@ fun t ->
  let r1 = request t "criterion geometric upto=211" in
  check_status "warm-up answered" Protocol.Ok_positive r1;
  let before = Metrics.value io_errors in
  (* The very next simulated I/O op is the journal append for the request
     we are about to send: sockets bypass the sim env, and the journal is
     the daemon's only sim-backed file here. *)
  Simenv.set_plan sim
    { Simenv.faults = [ Simenv.Err { at = Simenv.ops sim; errno = Unix.ENOSPC } ];
      agitate = None };
  let r_fail = request t "criterion geometric upto=212" in
  Simenv.set_plan sim Simenv.quiet;
  check_status "failed append surfaces E_INTERNAL status" Protocol.Internal r_fail;
  Alcotest.(check bool)
    "body carries the stable E_IO code" true
    (contains "E_IO" r_fail.Protocol.body);
  Alcotest.(check bool)
    "serve.io_errors incremented" true
    (Metrics.value io_errors > before);
  (* the daemon is still alive and journaling *)
  let r2 = request t "criterion geometric upto=213" in
  check_status "next request answered after ENOSPC" Protocol.Ok_positive r2

let test_backoff_deterministic () =
  let base = { Client.default_backoff with retries = 6; base_delay = 0.05; max_delay = 10.0 } in
  let schedule seed =
    List.init 6 (fun i -> Client.backoff_delay { base with seed } ~attempt:(i + 1))
  in
  Alcotest.(check (list (float 1e-12)))
    "fixed seed reproduces the schedule" (schedule 7) (schedule 7);
  if schedule 7 = schedule 8 then Alcotest.fail "different seeds produced identical schedules";
  (* exponential growth dominates the [0.5, 1.0] jitter band *)
  (match schedule 7 with
  | d1 :: _ :: _ :: d4 :: _ ->
      if not (d1 <= 0.05 +. 1e-9 && d4 > d1) then
        Alcotest.failf "schedule not growing: attempt1=%.4f attempt4=%.4f" d1 d4
  | _ -> Alcotest.fail "short schedule")

let test_retry_connect_refused () =
  (* grab an ephemeral port and close it: nothing listens there *)
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let b = { Client.default_backoff with retries = 2; base_delay = 0.001 } in
  (match Client.request_with_retry ~backoff:b ~sleep ~port "version" with
  | Ok _ -> Alcotest.fail "request to a dead port succeeded"
  | Error _ -> ());
  Alcotest.(check (list (float 1e-12)))
    "every retry slept its seeded backoff"
    [ Client.backoff_delay b ~attempt:1; Client.backoff_delay b ~attempt:2 ]
    (List.rev !slept)

let test_daemon_lock () =
  (* Two daemons on one journal path: the second refuses with E_LOCKED
     unless --force-lock. Simulated env: Unix lockf is per-process, so an
     in-process double-start only contends under the sim lock table. *)
  let sim = Simenv.create () in
  Env.with_env (Simenv.env sim) @@ fun () ->
  let cfg = { test_config with journal = Some "locked.journal" } in
  with_server cfg @@ fun _t ->
  (match Server.start cfg with
  | Ok t2 ->
      Server.stop t2;
      Alcotest.fail "second daemon on the same journal admitted"
  | Error (Ipdb_run.Error.Locked _) -> ()
  | Error e ->
      Alcotest.failf "expected E_LOCKED, got %s" (Ipdb_run.Error.to_string e));
  match Server.start { cfg with force_lock = true } with
  | Ok t2 -> Server.stop t2
  | Error e ->
      Alcotest.failf "--force-lock did not bypass the lock: %s" (Ipdb_run.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Replication: epoch fencing, journal shipping, follower catch-up     *)
(* ------------------------------------------------------------------ *)

module Repl = Ipdb_serve.Repl
module Json = Ipdb_obs.Json

let slurp path = In_channel.with_open_bin path In_channel.input_all

let health_field (resp : Protocol.response) name =
  match Json.parse resp.Protocol.body with
  | Error m -> Alcotest.failf "health body is not JSON (%s): %s" m resp.Protocol.body
  | Ok j -> (
      match Json.member name j with
      | Some v -> v
      | None -> Alcotest.failf "health JSON lacks %S: %s" name resp.Protocol.body)

let health_int resp name =
  match health_field resp name with
  | Json.Int i -> i
  | _ -> Alcotest.failf "health field %S is not an integer" name

let health_string resp name =
  match health_field resp name with
  | Json.String s -> s
  | _ -> Alcotest.failf "health field %S is not a string" name

(* Poll the follower's health probe until it has applied [pos] records
   and reports zero lag; the suite's 5s read timeouts bound each probe. *)
let wait_caught_up t ~pos =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let h = request t "health" in
    if health_int h "journal_pos" >= pos && health_int h "lag" = 0 then h
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "follower never caught up to pos %d: %s" pos h.Protocol.body
    else (
      Unix.sleepf 0.05;
      go ())
  in
  go ()

let test_fence_typed () =
  (match Repl.fence ~what:"journal append" ~current:2 ~writer:1 with
  | Error (Ipdb_run.Error.Fenced { stale; current; _ } as e) ->
      Alcotest.(check int) "stale epoch" 1 stale;
      Alcotest.(check int) "current epoch" 2 current;
      Alcotest.(check string) "typed code" "E_FENCED" (Ipdb_run.Error.code e);
      Alcotest.(check int) "exit code" 2 (Ipdb_run.Error.exit_code e)
  | Error e -> Alcotest.failf "expected Fenced, got %s" (Ipdb_run.Error.to_string e)
  | Ok () -> Alcotest.fail "stale writer admitted");
  (match Repl.fence ~what:"x" ~current:3 ~writer:3 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "equal epochs fenced: %s" (Ipdb_run.Error.to_string e));
  match Repl.fence ~what:"x" ~current:1 ~writer:4 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "newer writer fenced: %s" (Ipdb_run.Error.to_string e)

let test_epoch_header_roundtrip () =
  (match Repl.parse_header "t.journal" (Repl.header ~epoch:7) with
  | Ok e -> Alcotest.(check int) "epoch round-trips" 7 e
  | Error e -> Alcotest.failf "own header refused: %s" (Ipdb_run.Error.to_string e));
  (* pre-replication headers carry no epoch field and parse as epoch 0 *)
  let legacy =
    Printf.sprintf "serve %s %s %s" Protocol.version Cache.format_version
      Protocol.package_version
  in
  (match Repl.parse_header "t.journal" legacy with
  | Ok e -> Alcotest.(check int) "legacy header is epoch 0" 0 e
  | Error e -> Alcotest.failf "legacy header refused: %s" (Ipdb_run.Error.to_string e));
  match Repl.parse_header "t.journal" "serve ipdbs0 ipdbsc1 0.0.0 epoch=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed-version header admitted"

(* The stream grammar: hello, keepalives and chunked records reassemble
   bit-exactly, including records larger than one chunk. *)
let arb_stream_record =
  QCheck.make
    ~print:(fun (pos, epoch, r) -> Printf.sprintf "(%d, %d, %d bytes)" pos epoch (String.length r))
    QCheck.Gen.(
      triple (0 -- 1000) (0 -- 5)
        (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- (3 * Repl.chunk_size))))

let stream_record_roundtrip (pos, epoch, record) =
  let frames = Repl.render_record ~pos ~epoch record in
  let n = List.length frames in
  let buf = Buffer.create (String.length record) in
  List.iteri
    (fun i f ->
      match Repl.parse_stream_frame f with
      | Ok (Repl.Record { pos = p; epoch = e; k; n = n'; chunk })
        when p = pos && e = epoch && k = i && n' = n ->
          Buffer.add_string buf chunk
      | Ok _ -> fail "frame %d of %d parsed to the wrong shape" i n
      | Error m -> fail "frame %d rejected: %s" i m)
    frames;
  if Buffer.contents buf <> record then fail "record did not reassemble bit-exactly";
  (match Repl.parse_hello (Repl.hello_body ~epoch ~len:pos ~snap:(pos mod 2 = 0)) with
  | Ok (e, l, s) when e = epoch && l = pos && s = (pos mod 2 = 0) -> ()
  | Ok _ -> fail "hello round-trip changed fields"
  | Error m -> fail "hello rejected: %s" m);
  match Repl.parse_stream_frame (Repl.render_keepalive ~epoch ~len:pos) with
  | Ok (Repl.Keepalive { epoch = e; len = l }) when e = epoch && l = pos -> true
  | _ -> fail "keepalive did not round-trip"

(* Prefix-replay equivalence (ISSUE 9 satellite): folding any prefix of a
   journal through Repl.apply yields exactly the state a live fold held
   after that many records — same epoch, position, id watermark, pending
   table and cache-seeding sequence. A follower that stops at position k
   is indistinguishable from a leader that only ever wrote k records. *)
let arb_journal_records =
  let open QCheck.Gen in
  let record =
    frequency
      [
        (4, map2 (fun i q -> Printf.sprintf "req %d classify %s upto=8" i q) (0 -- 9) (oneofl [ "geometric"; "poisson"; "zoo" ]));
        (4, map2 (fun i a -> Printf.sprintf "done %d 0 %s" i a) (0 -- 9) (string_size ~gen:printable (0 -- 12)));
        (1, map (Printf.sprintf "epoch %d") (0 -- 4));
        (1, oneofl [ "noise"; "checkpoint cache.snap" ]);
      ]
  in
  QCheck.make
    ~print:(fun rs -> String.concat " | " rs)
    (map (fun rs -> Repl.header ~epoch:0 :: rs) (list_size (0 -- 25) record))

let fold_snapshot st seeds =
  ( st.Repl.epoch,
    st.Repl.pos,
    st.Repl.max_id,
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.Repl.pending []),
    List.rev seeds )

let prefix_replay_equivalence records =
  (* one live fold, snapshotting after every record *)
  let st = Repl.create () in
  let seeds = ref [] in
  let initial = fold_snapshot st [] in
  let snapshots =
    initial
    :: List.map
         (fun r ->
           Repl.apply ~on_done:(fun ~request ~response -> seeds := (request, response) :: !seeds) st r;
           fold_snapshot st !seeds)
         records
  in
  (* every prefix, refolded from scratch, matches the live snapshot *)
  List.iteri
    (fun k snap ->
      let st' = Repl.create () in
      let seeds' = ref [] in
      List.iteri
        (fun i r ->
          if i < k then
            Repl.apply
              ~on_done:(fun ~request ~response -> seeds' := (request, response) :: !seeds')
              st' r)
        records;
      if fold_snapshot st' !seeds' <> snap then
        fail "prefix of %d records folded to a different state" k)
    snapshots;
  List.length snapshots = List.length records + 1

let test_follower_catch_up () =
  let lj = tmpfile ".journal" and fj = tmpfile ".journal" in
  with_server { test_config with journal = Some lj } @@ fun leader ->
  let r1 = request leader "classify geometric upto=40" in
  let r2 = request leader "moments geometric k=2 upto=24" in
  let lpos = health_int (request leader "health") "journal_pos" in
  Alcotest.(check string) "leader role" "leader" (health_string (request leader "health") "role");
  with_server { test_config with journal = Some fj; follow = Some (Server.port leader) }
  @@ fun follower ->
  let h = wait_caught_up follower ~pos:lpos in
  Alcotest.(check string) "follower role" "follower" (health_string h "role");
  Alcotest.(check int) "follower epoch" 0 (health_int h "epoch");
  Alcotest.(check int) "no pending on follower" 0 (health_int h "pending");
  (* replicated verdicts answer byte-identically from the live cache *)
  let f1 = request follower "classify geometric upto=40" in
  let f2 = request follower "moments geometric k=2 upto=24" in
  Alcotest.(check string) "verdict 1 byte-identical" r1.Protocol.body f1.Protocol.body;
  Alcotest.(check string) "verdict 2 byte-identical" r2.Protocol.body f2.Protocol.body;
  check_status "verdict 1 status" r1.Protocol.status f1;
  check_status "verdict 2 status" r2.Protocol.status f2;
  (* an uncached read sheds E_STALE and names the leader *)
  let s = request follower "classify zoo upto=12" in
  check_status "uncached read sheds" Protocol.Stale s;
  if not (contains "leader=" s.Protocol.body) then
    Alcotest.failf "E_STALE body does not name the leader: %s" s.Protocol.body;
  (* the client walks the address list past the stale follower *)
  (match
     Client.request_failover
       ~ports:[ Server.port follower; Server.port leader ]
       "classify zoo upto=12"
   with
  | Ok resp when resp.Protocol.status <> Protocol.Stale -> ()
  | Ok resp -> Alcotest.failf "failover stuck on the follower: %s" resp.Protocol.body
  | Error m -> Alcotest.failf "failover failed: %s" m);
  (* the shipped journal is byte-identical to the leader's *)
  let lpos = health_int (request leader "health") "journal_pos" in
  ignore (wait_caught_up follower ~pos:lpos);
  Alcotest.(check string) "journals byte-identical" (slurp lj) (slurp fj)

let test_promotion_fencing () =
  let lj = tmpfile ".journal" and fj = tmpfile ".journal" in
  with_server { test_config with journal = Some lj } @@ fun leader ->
  let r1 = request leader "classify geometric upto=32" in
  let lpos = health_int (request leader "health") "journal_pos" in
  (* a handshake from a higher epoch means this leader is deposed *)
  let deposed =
    request leader
      (Printf.sprintf "repl %s %s %s pos=0 epoch=5" Protocol.version Cache.format_version
         Protocol.package_version)
  in
  check_status "deposed leader refuses" Protocol.Bad_request deposed;
  if not (contains "E_FENCED" deposed.Protocol.body) then
    Alcotest.failf "fencing refusal is not typed: %s" deposed.Protocol.body;
  (* version-mismatched and ahead-of-log handshakes are vetted too *)
  let bad_ver = request leader "repl ipdbs0 ipdbsc1 0.0.0 pos=0 epoch=0" in
  check_status "mixed-version handshake refused" Protocol.Bad_request bad_ver;
  let ahead =
    request leader
      (Printf.sprintf "repl %s %s %s pos=9999 epoch=0" Protocol.version Cache.format_version
         Protocol.package_version)
  in
  check_status "ahead-of-log handshake refused" Protocol.Bad_request ahead;
  with_server { test_config with journal = Some fj; follow = Some (Server.port leader) }
  @@ fun follower ->
  ignore (wait_caught_up follower ~pos:lpos);
  (* a follower does not serve the replication stream *)
  let not_leader =
    Client.request ~port:(Server.port follower)
      (Printf.sprintf "repl %s %s %s pos=0 epoch=0" Protocol.version Cache.format_version
         Protocol.package_version)
  in
  (match not_leader with
  | Ok resp -> check_status "follower refuses repl handshake" Protocol.Bad_request resp
  | Error m -> Alcotest.failf "repl handshake to follower errored: %s" m);
  (* the leader dies; promotion bumps the epoch and reopens writes *)
  Server.stop ~drain_timeout:5.0 leader;
  let p = Server.promote follower in
  check_status "promotion succeeds" Protocol.Ok_positive p;
  if not (contains "promoted epoch=1" p.Protocol.body) then
    Alcotest.failf "promotion body: %s" p.Protocol.body;
  let p2 = Server.promote follower in
  if not (contains "already leader" p2.Protocol.body) then
    Alcotest.failf "second promotion not idempotent: %s" p2.Protocol.body;
  let h = request follower "health" in
  Alcotest.(check string) "promoted role" "leader" (health_string h "role");
  Alcotest.(check int) "promoted epoch" 1 (health_int h "epoch");
  (* cached verdicts survive; new writes compute instead of shedding *)
  let f1 = request follower "classify geometric upto=32" in
  Alcotest.(check string) "cached verdict survives promotion" r1.Protocol.body f1.Protocol.body;
  let fresh = request follower "classify zoo upto=8" in
  if fresh.Protocol.status = Protocol.Stale then
    Alcotest.failf "promoted leader still sheds: %s" fresh.Protocol.body;
  (* the promotion is durable: the journal now carries the epoch bump *)
  if not (contains "epoch 1" (slurp fj)) then Alcotest.fail "epoch bump not journaled"

let test_failover_walks_dead_ports () =
  with_server test_config @@ fun t ->
  let dead =
    (* grab an ephemeral port and close it so nothing listens there *)
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
    Unix.close s;
    p
  in
  (match Client.request_failover ~ports:[ dead; Server.port t ] "version" with
  | Ok resp -> check_status "failover reached the live server" Protocol.Ok_positive resp
  | Error m -> Alcotest.failf "failover past a dead port failed: %s" m);
  match Client.request_failover ~ports:[] "version" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty address list answered"

let test_client_read_deadline () =
  (* a server that accepts the TCP handshake but never answers must not
     hang the client past --timeout *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 4;
  let port = match Unix.getsockname srv with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let finally () = Unix.close srv in
  Fun.protect ~finally @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.request ~timeout:0.3 ~port "version" with
  | Ok _ -> Alcotest.fail "mute server answered"
  | Error m ->
      if not (contains "deadline" m) then Alcotest.failf "not a deadline error: %s" m);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 3.0 then Alcotest.failf "deadline overshot: %.1fs" elapsed

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          prop "frame/parse_frame round-trips" arb_payload frame_roundtrip;
          Alcotest.test_case "malformed frames rejected" `Quick test_frame_rejects;
          prop ~count:100 "response render/parse round-trips" arb_status_body response_roundtrip;
          Alcotest.test_case "request grammar" `Quick test_request_grammar;
          Alcotest.test_case "cache keys are canonical" `Quick test_cache_key_canonical;
        ] );
      ( "cache",
        [
          prop ~count:100 "snapshot round-trips and is canonical" arb_entries cache_snapshot_roundtrip;
          Alcotest.test_case "stale snapshot version refused" `Quick test_cache_version_mismatch;
          Alcotest.test_case "checkpoint file round-trips" `Quick test_cache_checkpoint_file;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "status contract 0-4" `Quick test_statuses;
          Alcotest.test_case "responses match CLI bytes" `Quick test_responses_match_cli_bytes;
          Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
          Alcotest.test_case "overload sheds E_BUSY" `Quick test_overload_sheds;
          Alcotest.test_case "degradation ladder" `Quick test_degradation_ladder;
          Alcotest.test_case "back-to-back requests not degraded" `Quick test_back_to_back_not_degraded;
          Alcotest.test_case "fault drive is typed" `Quick test_fault_drive;
          Alcotest.test_case "torn client shrugged off" `Quick test_torn_client;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
        ] );
      ( "faults",
        [
          Alcotest.test_case "daemon survives ENOSPC on journal append" `Quick test_enospc_survival;
          Alcotest.test_case "client backoff schedule is seeded" `Quick test_backoff_deterministic;
          Alcotest.test_case "client retries connection-refused" `Quick test_retry_connect_refused;
          Alcotest.test_case "second daemon on one journal is E_LOCKED" `Quick test_daemon_lock;
        ] );
      ( "replay",
        [
          Alcotest.test_case "pending requests complete on restart" `Quick
            test_replay_completes_pending;
          Alcotest.test_case "mixed-version journal/cache refused" `Quick test_mixed_version_refused;
        ] );
      ( "replication",
        [
          Alcotest.test_case "epoch fencing is typed" `Quick test_fence_typed;
          Alcotest.test_case "epoch-fenced header round-trips" `Quick test_epoch_header_roundtrip;
          prop ~count:40 "stream frames reassemble bit-exactly" arb_stream_record
            stream_record_roundtrip;
          prop ~count:100 "prefix replay is equivalent" arb_journal_records
            prefix_replay_equivalence;
          Alcotest.test_case "follower catches up and serves" `Quick test_follower_catch_up;
          Alcotest.test_case "promotion and fencing" `Quick test_promotion_fencing;
          Alcotest.test_case "client failover walks dead ports" `Quick
            test_failover_walks_dead_ports;
          Alcotest.test_case "client read deadline" `Quick test_client_read_deadline;
        ] );
    ]
