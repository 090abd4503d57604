(* The persistent query daemon. See server.mli for the robustness model. *)

module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Journal = Ipdb_run.Journal
module Checkpoint = Ipdb_run.Checkpoint
module Faultinj = Ipdb_run.Faultinj
module Pool = Ipdb_par.Pool
module Metrics = Ipdb_obs.Metrics
module Trace = Ipdb_obs.Trace
module Json = Ipdb_obs.Json
module Zoo = Ipdb_core.Zoo
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Interval = Ipdb_series.Interval
module Family = Ipdb_pdb.Family
module Q = Ipdb_bignum.Q

type config = {
  port : int;
  jobs : int option;
  queue_limit : int;
  degraded_max_steps : int;
  default_timeout : float option;
  max_timeout : float;
  read_timeout : float;
  journal : string option;
  cache_file : string option;
  kb_file : string option;
  checkpoint_every : int;
  fault_rate : float;
  fault_seed : int;
  slow_worker : float;
  force_lock : bool;
  follow : int option;
}

let default_config =
  {
    port = 7411;
    jobs = None;
    queue_limit = 16;
    degraded_max_steps = 20_000;
    default_timeout = None;
    max_timeout = 30.0;
    read_timeout = 30.0;
    journal = None;
    cache_file = None;
    kb_file = None;
    checkpoint_every = 32;
    fault_rate = 0.0;
    fault_seed = 0;
    slow_worker = 0.0;
    force_lock = false;
    follow = None;
  }

let m_accepted = Metrics.counter "serve.accepted"
let m_served = Metrics.counter "serve.served"
let m_shed = Metrics.counter "serve.shed"
let m_degraded = Metrics.counter "serve.degraded"
let m_replayed = Metrics.counter "serve.replayed"
let m_torn = Metrics.counter "serve.torn_connections"
let m_proto_errors = Metrics.counter "serve.proto_errors"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_latency_ms = Metrics.histogram "serve.latency_ms"
let m_io_errors = Metrics.counter "serve.io_errors"
let m_repl_records = Metrics.counter "serve.repl_records"
let m_repl_lag = Metrics.gauge "serve.repl_lag"
let m_stale = Metrics.counter "serve.stale"
let m_promotions = Metrics.counter "serve.promotions"

type role = Leader | Follower

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  pool : Pool.t;
  cache : Cache.t;
  journal : Journal.t option;
  kb : (Ipdb_kb.Store.t * int64) option; (* loaded store + content digest *)
  cache_lock : Ioutil.lock option;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  in_flight : int Atomic.t;
  next_id : int Atomic.t;
  completions : int Atomic.t; (* computations since the last cache checkpoint *)
  n_accepted : int Atomic.t;
  n_served : int Atomic.t;
  n_shed : int Atomic.t;
  n_degraded : int Atomic.t;
  n_replayed : int Atomic.t;
  n_stale : int Atomic.t;
  jobs : int;
  capacity : int;
  mutable accept_domain : unit Domain.t option;
  (* Replication. The hub mirrors the local journal record-for-record
     (same order, same bytes): [hub_len] is the journal position and
     replica streamers read [0, hub_len) without touching the file.
     Publication happens under [hub_lock] inside the same critical
     section as the journal append, so hub order {e is} journal order. *)
  role : role Atomic.t;
  epoch : int Atomic.t;
  hub : (int, string) Hashtbl.t;
  hub_len : int Atomic.t;
  hub_lock : Mutex.t;
  repl_state : Repl.state; (* maintained at startup (both roles) and by the follower tail *)
  leader_len : int Atomic.t; (* follower: the leader's journal length, last heard *)
  tail_stop : bool Atomic.t;
  mutable tail_domain : unit Domain.t option;
  mutable replica_domains : unit Domain.t list;
  replica_lock : Mutex.t;
}

let port t = t.bound_port

let version_string () =
  Printf.sprintf "ipdb %s proto=%s journal=%s checkpoint=%s cache=%s" Protocol.package_version
    Protocol.version Journal.format_version Checkpoint.format_version Cache.format_version

let builtin_tis () =
  let b3_ti, _ = Zoo.example_b3 in
  [
    ("example-b3", b3_ti);
    ("example-5.6", fst (Ipdb_pdb.Ti.Infinite.truncate Zoo.example_5_6_ti ~n:12));
    ( "car-accidents",
      (Ipdb_core.Bid_repr.represent (fst (Ipdb_pdb.Bid.Infinite.truncate Zoo.car_accidents ~n:6)))
        .Ipdb_core.Bid_repr.ti );
  ]

type stats = {
  accepted : int;
  served : int;
  shed : int;
  degraded : int;
  replayed : int;
  in_flight : int;
  cache_size : int;
  cache_hits : int;
  cache_misses : int;
}

let stats (t : t) =
  {
    accepted = Atomic.get t.n_accepted;
    served = Atomic.get t.n_served;
    shed = Atomic.get t.n_shed;
    degraded = Atomic.get t.n_degraded;
    replayed = Atomic.get t.n_replayed;
    in_flight = Atomic.get t.in_flight;
    cache_size = Cache.size t.cache;
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
  }

let stats_json t =
  let s = stats t in
  Json.to_string
    (Json.Obj
       [
         ("accepted", Json.Int s.accepted);
         ("served", Json.Int s.served);
         ("shed", Json.Int s.shed);
         ("degraded", Json.Int s.degraded);
         ("replayed", Json.Int s.replayed);
         ("in_flight", Json.Int s.in_flight);
         ("cache_size", Json.Int s.cache_size);
         ("cache_hits", Json.Int s.cache_hits);
         ("cache_misses", Json.Int s.cache_misses);
       ])

(* The liveness/readiness probe: role, epoch, journal position, lag (how
   far behind the leader a follower is, in records), queue depth, cache
   stats. A leader's lag is 0 by definition. *)
let health_json t =
  let role = match Atomic.get t.role with Leader -> "leader" | Follower -> "follower" in
  let pos = Atomic.get t.hub_len in
  let lag =
    match Atomic.get t.role with
    | Leader -> 0
    | Follower -> Stdlib.max 0 (Atomic.get t.leader_len - pos)
  in
  Json.to_string
    (Json.Obj
       [
         ("role", Json.String role);
         ("epoch", Json.Int (Atomic.get t.epoch));
         ("journal_pos", Json.Int pos);
         ("lag", Json.Int lag);
         ("pending", Json.Int (Hashtbl.length t.repl_state.Repl.pending));
         ("queue_depth", Json.Int (Atomic.get t.in_flight));
         ("capacity", Json.Int t.capacity);
         ("cache_size", Json.Int (Cache.size t.cache));
         ("cache_hits", Json.Int (Cache.hits t.cache));
         ("cache_misses", Json.Int (Cache.misses t.cache));
       ])

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

open Protocol

let status_of_run_error e =
  match Run_error.exit_code e with
  | 2 -> Bad_request
  | 3 -> Partial
  | _ -> Internal

let status_of_series_verdict = function
  | Criteria.Finite_sum _ -> Ok_positive
  | Criteria.Infinite_sum _ -> Certified_negative
  | Criteria.Partial _ -> Partial
  | Criteria.Invalid_certificate _ -> Internal
  | Criteria.Check_failed e -> status_of_run_error e

(* The per-request budget: client-supplied limits clamped by the server,
   plus the degraded-rung step cap. The degraded cap is steps, not
   wall-clock, so a degraded Partial verdict is deterministic and a
   replayed request reaches the same answer. *)
let budget_of cfg opts ~degraded =
  let timeout =
    match opts.timeout with
    | Some s -> Some (Float.min s cfg.max_timeout)
    | None -> cfg.default_timeout
  in
  let max_steps =
    let cap = if degraded then Some cfg.degraded_max_steps else None in
    match (opts.max_steps, cap) with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, cap -> cap
  in
  match (timeout, max_steps) with
  | None, None -> Budget.unlimited
  | _ -> Budget.make ?timeout ?max_steps ()

let unknown_family family =
  {
    status = Bad_request;
    body =
      Printf.sprintf "unknown family %s; available: %s" family
        (String.concat ", " (List.map fst Zoo.all_families));
  }

(* Renders mirror the CLI's verdict lines exactly, so a query answered by
   the daemon, the cache, a journal replay, or the one-shot CLI prints the
   same bytes. *)
let render_moments ~k = function
  | Criteria.Finite_sum e ->
      Printf.sprintf "E(|D|^%d) ∈ [%.9g, %.9g]" k (Interval.lo e) (Interval.hi e)
  | Criteria.Infinite_sum { partial; at } ->
      Printf.sprintf "E(|D|^%d) = ∞ (certified; partial sum %.6g after %d terms)" k partial at
  | v -> Printf.sprintf "E(|D|^%d): %s" k (Criteria.verdict_to_string v)

let render_criterion ~c = function
  | Criteria.Finite_sum e ->
      Printf.sprintf "Σ|D|·P(D)^(%d/|D|) ∈ [%.9g, %.9g] < ∞ ⟹ in FO(TI) (Theorem 5.3)" c
        (Interval.lo e) (Interval.hi e)
  | Criteria.Infinite_sum { partial; at } ->
      Printf.sprintf "Σ|D|·P(D)^(%d/|D|) = ∞ (partial %.6g after %d terms)" c partial at
  | v -> Printf.sprintf "Σ|D|·P(D)^(%d/|D|): %s" c (Criteria.verdict_to_string v)

(* Evaluate one request to a response. Total: every failure mode is a
   statused response, never an exception (the caller adds the last-resort
   Faultinj.protect boundary). *)
let evaluate t req opts ~degraded =
  let cfg = t.cfg in
  match req with
  | Version -> { status = Ok_positive; body = version_string () }
  | Stats -> { status = Ok_positive; body = stats_json t }
  | Health -> { status = Ok_positive; body = health_json t }
  | Promote ->
      (* Promotion and replication handshakes are connection-level ops,
         intercepted in [handle] before the evaluation pipeline; reaching
         here means a nested/replayed occurrence, which is meaningless. *)
      { status = Bad_request; body = "promote is a connection-level op" }
  | Repl _ -> { status = Bad_request; body = "repl must be the first and only frame on its connection" }
  | Classify { family; upto } -> (
      match List.assoc_opt family Zoo.all_families with
      | None -> unknown_family family
      | Some cf ->
          let budget = budget_of cfg opts ~degraded in
          let v = Classifier.classify ~budget ~upto cf in
          let status =
            match v with
            | Classifier.In_FOTI _ | Classifier.Undetermined _ -> Ok_positive
            | Classifier.Not_in_FOTI _ -> Certified_negative
            | Classifier.Partial _ -> Partial
          in
          { status; body = Classifier.verdict_to_string v })
  | Moments { family; k; upto } -> (
      match List.assoc_opt family Zoo.all_families with
      | None -> unknown_family family
      | Some cf -> (
          match cf.Zoo.moment_cert k with
          | None -> { status = Bad_request; body = Printf.sprintf "no certificate for k=%d" k }
          | Some cert ->
              let upto = Stdlib.min upto cf.Zoo.check_upto in
              let budget = budget_of cfg opts ~degraded in
              let v = Criteria.moment_verdict ~budget cf.Zoo.family ~k ~cert ~upto in
              { status = status_of_series_verdict v; body = render_moments ~k v }))
  | Criterion { family; c; upto } -> (
      match List.assoc_opt family Zoo.all_families with
      | None -> unknown_family family
      | Some cf -> (
          match cf.Zoo.thm53_cert c with
          | None -> { status = Bad_request; body = Printf.sprintf "no certificate for c=%d" c }
          | Some cert ->
              let upto = Stdlib.min upto cf.Zoo.check_upto in
              let budget = budget_of cfg opts ~degraded in
              let v = Criteria.theorem53_verdict ~budget cf.Zoo.family ~c ~cert ~upto in
              { status = status_of_series_verdict v; body = render_criterion ~c v }))
  | Pqe { ti; query } -> (
      match List.assoc_opt ti (builtin_tis ()) with
      | None ->
          {
            status = Bad_request;
            body =
              Printf.sprintf "unknown TI-PDB %s; available: %s" ti
                (String.concat ", " (List.map fst (builtin_tis ())));
          }
      | Some tipdb -> (
          match Ipdb_logic.Parser.sentence query with
          | Error e -> { status = Bad_request; body = "parse error: " ^ e }
          | Ok phi ->
              let l = Ipdb_pdb.Lineage.of_sentence tipdb phi in
              let p = Ipdb_pdb.Lineage.probability tipdb l in
              {
                status = Ok_positive;
                body =
                  Printf.sprintf "P(%s) = %s ≈ %s" (Ipdb_logic.Fo.to_string phi) (Q.to_string p)
                    (Q.to_decimal_string ~digits:8 p);
              }))
  | Kb { query } -> (
      match t.kb with
      | None ->
          { status = Bad_request; body = "no knowledge base loaded (start the daemon with --kb FILE)" }
      | Some (store, _) -> (
          match Ipdb_logic.Parser.sentence query with
          | Error e -> { status = Bad_request; body = "parse error: " ^ e }
          | Ok phi -> (
              let budget = budget_of cfg opts ~degraded in
              (* Exact only: a Monte-Carlo answer depends on a seed the
                 client never sent, so it could not be cached or replayed
                 byte-identically. Unsafe queries are refused (status 2);
                 the one-shot CLI offers the sampling fallback instead. *)
              match Ipdb_kb.Lifted.query ~budget store phi with
              | Error e -> { status = status_of_run_error e; body = Run_error.to_string e }
              | Ok (Ipdb_kb.Lifted.Estimated _) ->
                  { status = Internal; body = "unexpected estimate from exact-only evaluation" }
              | Ok (Ipdb_kb.Lifted.Exact p) ->
                  (* Body bytes mirror `ipdb kb query` exactly. *)
                  {
                    status = (if Q.is_zero p then Certified_negative else Ok_positive);
                    body =
                      Printf.sprintf "P(%s) = %s ≈ %s" (Ipdb_logic.Fo.to_string phi) (Q.to_string p)
                        (Q.to_decimal_string ~digits:8 p);
                  })))

(* Clamp a request to its canonical precision (the horizon past which the
   family's certificates stop being float-meaningful), so equivalent
   requests share one cache slot and one journal replay. *)
let normalize req =
  let clamp family upto =
    match List.assoc_opt family Zoo.all_families with
    | Some cf -> Stdlib.min upto cf.Zoo.check_upto
    | None -> upto
  in
  match req with
  | Moments m -> Moments { m with upto = clamp m.family m.upto }
  | Criterion c -> Criterion { c with upto = clamp c.family c.upto }
  | Version | Stats | Health | Promote | Repl _ | Classify _ | Pqe _ | Kb _ -> req

let kb_digest t = Option.map snd t.kb

(* ------------------------------------------------------------------ *)
(* Journal records                                                     *)
(* ------------------------------------------------------------------ *)

(* Header and record grammar live in {!Repl} now (the follower folds the
   same records); the header is epoch-fenced: "serve <proto> <cachefmt>
   <package> epoch=<E>". Format versions must match exactly on reopen — a
   journal written by another format fails loudly instead of replaying
   garbage. *)

(* Append to the journal and publish to the replication hub in one
   critical section, so the hub's order is exactly the journal's order
   and [hub_len] is exactly the on-disk record count. A failed append
   publishes nothing — replicas only ever see durable records, which is
   what makes "acked ⊆ shipped-eventually" hold. *)
let journal_append t payload =
  match t.journal with
  | None -> Ok ()
  | Some j ->
      Mutex.lock t.hub_lock;
      let r = Journal.append j payload in
      (match r with
      | Ok () ->
          let pos = Atomic.get t.hub_len in
          Hashtbl.replace t.hub pos payload;
          Atomic.set t.hub_len (pos + 1)
      | Error _ -> ());
      Mutex.unlock t.hub_lock;
      r

(* ------------------------------------------------------------------ *)
(* The request pipeline                                                *)
(* ------------------------------------------------------------------ *)

let set_queue_gauge (t : t) = Metrics.set_gauge m_queue_depth (float_of_int (Atomic.get t.in_flight))

(* An I/O failure on a durability path (journal append, cache snapshot) is
   counted and traced, but never kills the daemon: the failing request gets
   a structured E_IO response and the next request is admitted normally. *)
let note_io_error = function
  | Ok _ -> ()
  | Error e ->
      Metrics.incr m_io_errors;
      Run_error.emit e

let maybe_checkpoint_cache t =
  match t.cfg.cache_file with
  | None -> ()
  | Some path ->
      if Atomic.fetch_and_add t.completions 1 mod t.cfg.checkpoint_every = t.cfg.checkpoint_every - 1
      then note_io_error (Cache.checkpoint t.cache ~path)

(* Seed the verdict cache from a journaled (request, response) pair — the
   [on_done] hook of the {!Repl} fold, shared by leader startup replay
   and the follower tail. *)
let seed_cache (t : t) ~request ~response =
  match (Protocol.parse_request request, Protocol.parse_response response) with
  | Ok (req, _), Ok resp when Protocol.cacheable resp.status -> (
      match Protocol.cache_key ?kb_digest:(kb_digest t) (normalize req) with
      | Some key -> Cache.put t.cache ~key response
      | None -> ())
  | _ -> ()

(* A follower sheds a cache miss instead of computing: computing would
   have to journal, and the follower's journal is a byte-identical
   replica of the leader's — client traffic must not fork it. The body
   names the leader so [ipdb request --ports] can fail over. *)
let stale_response (t : t) =
  Atomic.incr t.n_stale;
  Metrics.incr m_stale;
  let pos = Atomic.get t.hub_len in
  let lag = Stdlib.max 0 (Atomic.get t.leader_len - pos) in
  let leader =
    match t.cfg.follow with
    | Some p -> Printf.sprintf " leader=127.0.0.1:%d" p
    | None -> ""
  in
  { status = Stale; body = Printf.sprintf "verdict not yet replicated here (lag=%d)%s" lag leader }

(* Compute a response for an already-parsed request, going through the
   cache and the journal. Shared by live connections and journal replay. *)
let answer (t : t) req opts ~degraded =
  let req = normalize req in
  match Protocol.cache_key ?kb_digest:(kb_digest t) req with
  | None -> (evaluate t req opts ~degraded, `Fresh)
  | Some key -> (
      match Cache.find t.cache ~key with
      | Some payload -> (
          match Protocol.parse_response payload with
          | Ok resp -> (resp, `Hit)
          | Error _ when Atomic.get t.role = Follower -> (stale_response t, `Fresh)
          | Error _ ->
              (* A damaged in-memory entry is impossible short of a bug;
                 degrade to recomputation rather than serving garbage. *)
              let resp = evaluate t req opts ~degraded in
              if Protocol.cacheable resp.status then
                Cache.put t.cache ~key (Protocol.render_response resp);
              (resp, `Fresh))
      | None when Atomic.get t.role = Follower -> (stale_response t, `Fresh)
      | None ->
          let id = Atomic.fetch_and_add t.next_id 1 in
          let payload = Protocol.request_to_payload req opts in
          let journal_err = journal_append t (Printf.sprintf "req %d %s" id payload) in
          let resp =
            match journal_err with
            | Error e ->
                (* The durability contract is broken: refuse rather than
                   compute an answer that could not be replayed. The
                   daemon itself stays up — an ENOSPC/EIO on one append
                   fails that request with a stable E_IO body and the
                   next request is admitted normally. *)
                note_io_error journal_err;
                { status = Internal; body = Run_error.to_string e }
            | Ok () ->
                let resp = evaluate t req opts ~degraded in
                note_io_error
                  (journal_append t
                     (Printf.sprintf "done %d %s" id (Protocol.render_response resp)));
                if Protocol.cacheable resp.status then begin
                  Cache.put t.cache ~key (Protocol.render_response resp);
                  maybe_checkpoint_cache t
                end;
                resp
          in
          (resp, `Fresh))

(* Complete one journal-pending request under its {e original} id:
   compute (through the cache), journal the [done] record so the request
   never replays again, and cache certified verdicts. Going through
   {!answer} instead would allocate a fresh id and leave the old one
   pending on every future restart. *)
let complete_pending (t : t) id req opts =
  let req = normalize req in
  let resp =
    match Protocol.cache_key ?kb_digest:(kb_digest t) req with
    | None -> evaluate t req opts ~degraded:false
    | Some key -> (
        match Option.bind (Cache.find t.cache ~key) (fun p -> Result.to_option (Protocol.parse_response p)) with
        | Some resp -> resp
        | None ->
            let resp = evaluate t req opts ~degraded:false in
            if Protocol.cacheable resp.status then
              Cache.put t.cache ~key (Protocol.render_response resp);
            resp)
  in
  note_io_error
    (journal_append t (Printf.sprintf "done %d %s" id (Protocol.render_response resp)))

let respond conn resp =
  match Protocol.write_frame conn (Protocol.render_response resp) with
  | () -> true
  | exception _ ->
      (* Torn connection: the client is gone; the daemon shrugs. *)
      Metrics.incr m_torn;
      false

(* ------------------------------------------------------------------ *)
(* Replication: promotion, leader-side streaming                       *)
(* ------------------------------------------------------------------ *)

(* Promote a follower to leader: stop the tail, complete the journaled
   pending requests under their original ids (the same discipline as
   post-SIGKILL replay, so the promoted follower's verdicts are
   byte-identical to a never-crashed leader's), then journal an [epoch]
   bump — the durable fence that lets everyone refuse the old leader. *)
let promote (t : t) =
  if Atomic.compare_and_set t.role Follower Leader then begin
    Atomic.set t.tail_stop true;
    (match t.tail_domain with Some d -> Domain.join d | None -> ());
    t.tail_domain <- None;
    let st = t.repl_state in
    (* Claim ids past everything the journal has seen before completing
       pendings — a concurrent fresh request must not collide. *)
    Atomic.set t.next_id (st.Repl.max_id + 1);
    let ids = Repl.pending_ids st in
    List.iter
      (fun id ->
        match Repl.pending_request st id with
        | None -> ()
        | Some payload -> (
            Hashtbl.remove st.Repl.pending id;
            match Protocol.parse_request payload with
            | Error _ -> ()
            | Ok (req, opts) ->
                Trace.with_span "serve.replay" @@ fun () ->
                complete_pending t id req opts;
                Atomic.incr t.n_replayed;
                Metrics.incr m_replayed))
      ids;
    let e = Atomic.get t.epoch + 1 in
    note_io_error (journal_append t (Printf.sprintf "epoch %d" e));
    Atomic.set t.epoch e;
    st.Repl.epoch <- Stdlib.max st.Repl.epoch e;
    Metrics.incr m_promotions;
    Trace.event "serve.promoted" ~attrs:[ ("epoch", Json.Int e) ];
    {
      status = Ok_positive;
      body = Printf.sprintf "promoted epoch=%d replayed=%d" e (List.length ids);
    }
  end
  else { status = Ok_positive; body = Printf.sprintf "already leader epoch=%d" (Atomic.get t.epoch) }

(* Leader side of one replication connection: hello, an optional cache
   snapshot for a cold follower, then journal records straight from the
   hub as they are published, with keepalives when idle. Runs in its own
   domain; any socket error ends the stream and the follower reconnects. *)
let stream_replica (t : t) conn ~from =
  let ok = ref true in
  let send payload = try Protocol.write_frame conn payload with _ -> ok := false in
  (try Unix.setsockopt_float conn Unix.SO_SNDTIMEO 5.0 with _ -> ());
  let snap = from = 0 && Cache.size t.cache > 0 in
  send
    (Protocol.render_response
       {
         status = Ok_positive;
         body = Repl.hello_body ~epoch:(Atomic.get t.epoch) ~len:(Atomic.get t.hub_len) ~snap;
       });
  if !ok && snap then
    List.iter (fun f -> if !ok then send f) (Repl.render_snap_chunks (Cache.to_string t.cache));
  let pos = ref from in
  let last_sent = ref (Unix.gettimeofday ()) in
  while !ok && not (Atomic.get t.stopping) do
    if !pos < Atomic.get t.hub_len then begin
      Mutex.lock t.hub_lock;
      let record = Hashtbl.find_opt t.hub !pos in
      Mutex.unlock t.hub_lock;
      match record with
      | Some r ->
          List.iter
            (fun f -> if !ok then send f)
            (Repl.render_record ~pos:!pos ~epoch:(Atomic.get t.epoch) r);
          if !ok then begin
            incr pos;
            Metrics.incr m_repl_records;
            last_sent := Unix.gettimeofday ()
          end
      | None -> ok := false (* a hub hole is impossible; fail closed *)
    end
    else begin
      if Unix.gettimeofday () -. !last_sent > 0.5 then begin
        send (Repl.render_keepalive ~epoch:(Atomic.get t.epoch) ~len:(Atomic.get t.hub_len));
        last_sent := Unix.gettimeofday ()
      end;
      Unix.sleepf 0.02
    end
  done;
  try Unix.close conn with _ -> ()

(* Vet a replication handshake; on success the connection is handed to a
   streamer domain (the caller must not close it). Every refusal is a
   structured response on the ordinary reply path. *)
let start_replica (t : t) conn ~proto ~cachefmt ~pos ~epoch =
  let refuse msg = Error { status = Bad_request; body = msg } in
  if Atomic.get t.role <> Leader then refuse "not a leader (this daemon is itself a follower)"
  else if t.journal = None then refuse "replication requires --journal on the leader"
  else if proto <> Protocol.version || cachefmt <> Cache.format_version then
    refuse
      (Printf.sprintf
         "version mismatch: follower speaks proto=%s cache=%s, leader speaks proto=%s cache=%s"
         proto cachefmt Protocol.version Cache.format_version)
  else
    match
      Repl.fence ~what:"replication handshake" ~current:epoch ~writer:(Atomic.get t.epoch)
    with
    | Error e -> Error { status = Bad_request; body = Run_error.to_string e }
    | Ok () ->
        if pos > Atomic.get t.hub_len then refuse "follower journal is ahead of this leader"
        else begin
          let d = Domain.spawn (fun () -> stream_replica t conn ~from:pos) in
          Mutex.lock t.replica_lock;
          t.replica_domains <- d :: t.replica_domains;
          Mutex.unlock t.replica_lock;
          Ok ()
        end

(* A connection leaves [in_flight] before anything is written back to
   it, once, on every path: a client that reads its reply and reconnects
   at once must find its old connection already counted out, or admission
   counts it twice and puts the new one on the degraded rung. *)
let count_out (t : t) =
  Atomic.decr t.in_flight;
  set_queue_gauge t

let handle (t : t) conn ~degraded =
  let t0 = Trace.now () in
  let taken = ref false in
  let counted = ref false in
  let count_out_once () =
    if not !counted then begin
      counted := true;
      count_out t
    end
  in
  let finally () =
    count_out_once ();
    if not !taken then (try Unix.close conn with _ -> ());
    Metrics.observe m_latency_ms ((Trace.now () -. t0) *. 1e3)
  in
  Fun.protect ~finally @@ fun () ->
  Trace.with_span "serve.request" @@ fun () ->
  (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO t.cfg.read_timeout with _ -> ());
  (try Unix.setsockopt_float conn Unix.SO_SNDTIMEO t.cfg.read_timeout with _ -> ());
  let served () =
    Atomic.incr t.n_served;
    Metrics.incr m_served
  in
  let reply resp =
    count_out_once ();
    if respond conn resp then served ()
  in
  match Protocol.read_frame conn with
  | Error msg ->
      Metrics.incr m_proto_errors;
      Trace.annotate [ ("status", Json.String "E_PROTO") ];
      reply { status = Proto; body = msg }
  | Ok payload -> (
      match Protocol.parse_request payload with
      (* Connection-level ops are intercepted before the evaluation
         pipeline: a successful repl handshake hands the socket to a
         streamer domain for the rest of its life, and the streamer's
         hello is its reply. *)
      | Ok (Repl { proto; cachefmt; package = _; pos; epoch }, _) -> (
          count_out_once ();
          match start_replica t conn ~proto ~cachefmt ~pos ~epoch with
          | Ok () ->
              taken := true;
              served ()
          | Error resp ->
              Trace.annotate [ ("status", Json.String (Protocol.status_token resp.status)) ];
              reply resp)
      | Ok (Promote, _) ->
          let resp = promote t in
          Trace.annotate [ ("status", Json.String (Protocol.status_token resp.status)) ];
          reply resp
      | parsed ->
          let resp =
            match parsed with
            | Error msg -> { status = Bad_request; body = msg }
            | Ok (req, opts) -> (
                match
                  Faultinj.protect ~what:"serve request" (fun () ->
                      Faultinj.fire Faultinj.Serve_worker;
                      if t.cfg.slow_worker > 0.0 then Unix.sleepf t.cfg.slow_worker;
                      answer t req opts ~degraded)
                with
                | Ok (resp, _) -> resp
                | Error e -> { status = status_of_run_error e; body = Run_error.to_string e })
          in
          Trace.annotate [ ("status", Json.String (Protocol.status_token resp.status)) ];
          reply resp)

(* Shed an over-capacity connection: counted out first (as in [handle]),
   then a structured E_BUSY, then a short drain-read so the rejection
   survives the close (an unread request in the receive buffer would
   otherwise turn the close into a reset that races our response). *)
let shed (t : t) conn =
  Atomic.incr t.n_shed;
  Metrics.incr m_shed;
  Trace.event "serve.shed";
  count_out t;
  (try Unix.setsockopt_float conn Unix.SO_SNDTIMEO 1.0 with _ -> ());
  (try
     Protocol.write_frame conn
       (Protocol.render_response { status = Busy; body = "server at capacity; retry later" });
     Unix.shutdown conn Unix.SHUTDOWN_SEND
   with _ -> Metrics.incr m_torn);
  (try
     Unix.setsockopt_float conn Unix.SO_RCVTIMEO 0.25;
     ignore (Unix.read conn (Bytes.create 4096) 0 4096)
   with _ -> ());
  try Unix.close conn with _ -> ()

let accept_loop (t : t) =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error (_, _, _) -> () (* racing stop, or a vanished client *)
        | conn, _ ->
            Atomic.incr t.n_accepted;
            Metrics.incr m_accepted;
            let n = 1 + Atomic.fetch_and_add t.in_flight 1 in
            set_queue_gauge t;
            if n > t.capacity then shed t conn
            else begin
              let degraded = n > t.jobs in
              if degraded then begin
                Atomic.incr t.n_degraded;
                Metrics.incr m_degraded
              end;
              match Pool.async t.pool (fun () -> handle t conn ~degraded) with
              | () -> ()
              | exception _ -> shed t conn (* pool already shut down *)
            end)
  done

(* ------------------------------------------------------------------ *)
(* Follower tail: connect to the leader, replay its journal live        *)
(* ------------------------------------------------------------------ *)

exception Tail_break

(* Interruptible sleep: promotion and stop must not wait out a backoff. *)
let tail_sleep (t : t) secs =
  let deadline = Unix.gettimeofday () +. secs in
  while (not (Atomic.get t.tail_stop)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done

(* One connected streaming session: handshake, optional snapshot
   bootstrap, then shipped records appended to the local journal and
   folded through the same {!Repl.apply} the leader uses after SIGKILL —
   which is the whole argument that a promoted follower equals a
   recovered leader. Every exit is [Tail_break]; the caller reconnects. *)
let tail_session (t : t) fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0 with _ -> ());
  (* One buffered reader for the whole session: stream frames arrive
     back-to-back, so reads straddle frame boundaries constantly. *)
  let rd = Protocol.reader fd in
  let read_frame () =
    match Protocol.read_frame_r rd with Ok p -> p | Error _ | (exception _) -> raise Tail_break
  in
  let check_fence writer =
    match Repl.fence ~what:"replication stream" ~current:(Atomic.get t.epoch) ~writer with
    | Ok () -> ()
    | Error e ->
        Run_error.emit e;
        raise Tail_break
  in
  let note_leader_len len =
    Atomic.set t.leader_len (Stdlib.max (Atomic.get t.leader_len) len);
    Metrics.set_gauge m_repl_lag
      (float_of_int (Stdlib.max 0 (Atomic.get t.leader_len - Atomic.get t.hub_len)))
  in
  (try
     Protocol.write_frame fd
       (Protocol.request_to_payload
          (Repl
             {
               proto = Protocol.version;
               cachefmt = Cache.format_version;
               package = Protocol.package_version;
               pos = Atomic.get t.hub_len;
               epoch = Atomic.get t.epoch;
             })
          { timeout = None; max_steps = None })
   with _ -> raise Tail_break);
  let snap =
    match Protocol.parse_response (read_frame ()) with
    | Error _ -> raise Tail_break
    | Ok { status = Ok_positive; body } -> (
        match Repl.parse_hello body with
        | Error _ -> raise Tail_break
        | Ok (epoch_l, len_l, snap) ->
            check_fence epoch_l;
            note_leader_len len_l;
            snap)
    | Ok resp ->
        (* A structured refusal: fenced, version mismatch, not a leader.
           Surface it and back off — the operator has to intervene. *)
        Trace.event "serve.repl_refused" ~attrs:[ ("body", Json.String resp.body) ];
        raise Tail_break
  in
  if snap then begin
    (* Cold bootstrap: the leader's whole cache snapshot, chunked. *)
    let buf = Buffer.create 4096 in
    let next = ref 0 in
    let total = ref 1 in
    while !next < !total do
      match Repl.parse_stream_frame (read_frame ()) with
      | Ok (Repl.Snap_chunk { k; n; chunk }) when k = !next ->
          Buffer.add_string buf chunk;
          total := n;
          incr next
      | _ -> raise Tail_break
    done;
    match Cache.of_string (Buffer.contents buf) with
    | Ok snapshot -> List.iter (fun (key, resp) -> Cache.put t.cache ~key resp) (Cache.entries snapshot)
    | Error _ -> raise Tail_break
  end;
  let rbuf = Buffer.create 1024 in
  let rpos = ref (-1) in
  let rnext = ref 0 in
  while not (Atomic.get t.tail_stop) do
    match Repl.parse_stream_frame (read_frame ()) with
    | Error _ -> raise Tail_break
    | Ok (Repl.Snap_chunk _) -> raise Tail_break
    | Ok (Repl.Keepalive { epoch; len }) ->
        check_fence epoch;
        note_leader_len len
    | Ok (Repl.Record { pos; epoch; k; n; chunk }) ->
        check_fence epoch;
        if k = 0 then begin
          Buffer.clear rbuf;
          rpos := pos;
          rnext := 0
        end;
        if pos <> !rpos || k <> !rnext then raise Tail_break;
        Buffer.add_string rbuf chunk;
        rnext := k + 1;
        if k = n - 1 then begin
          let record = Buffer.contents rbuf in
          let here = Atomic.get t.hub_len in
          if pos < here then () (* duplicate after a reconnect: drop *)
          else if pos > here then raise Tail_break (* gap: resync via reconnect *)
          else begin
            (match journal_append t record with
            | Ok () -> ()
            | Error _ as e ->
                (* The replica's durability is broken; stop advancing
                   rather than diverge from the leader's journal. *)
                note_io_error e;
                raise Tail_break);
            Repl.apply t.repl_state record ~on_done:(seed_cache t);
            Atomic.set t.epoch (Stdlib.max (Atomic.get t.epoch) t.repl_state.Repl.epoch);
            Metrics.incr m_repl_records;
            note_leader_len (pos + 1);
            maybe_checkpoint_cache t
          end
        end
  done

let follower_tail (t : t) ~leader_port =
  let attempt = ref 0 in
  while not (Atomic.get t.tail_stop) do
    match Client.connect ~port:leader_port () with
    | Error _ ->
        incr attempt;
        tail_sleep t
          (Client.backoff_delay Client.default_backoff ~attempt:(Stdlib.min !attempt 8))
    | Ok fd ->
        (try tail_session t fd with Tail_break -> () | _ -> ());
        (try Unix.close fd with _ -> ());
        if not (Atomic.get t.tail_stop) then begin
          attempt := Stdlib.min (!attempt + 1) 8;
          tail_sleep t (Client.backoff_delay Client.default_backoff ~attempt:1)
        end
  done

(* ------------------------------------------------------------------ *)
(* Startup: journal replay, cache load                                 *)
(* ------------------------------------------------------------------ *)

(* Fold the recovered journal into the replication state machine and the
   hub (position i holds record i, so a replica can bootstrap from any
   prefix), seeding the cache from completed verdicts along the way. Both
   roles start here; only a leader then {!replay}s the pending tail. *)
let fold_journal t records =
  List.iteri
    (fun i r ->
      Hashtbl.replace t.hub i r;
      Repl.apply t.repl_state r ~on_done:(seed_cache t))
    records;
  Atomic.set t.hub_len (List.length records);
  Atomic.set t.epoch t.repl_state.Repl.epoch;
  Atomic.set t.next_id (t.repl_state.Repl.max_id + 1)

(* Replay requests that were accepted (journaled) but never answered:
   recompute them under their journaled budgets and journal the answers.
   Completed certified verdicts — replayed or recovered from done records
   — enter the cache, so a re-asked query is answered byte-identically. *)
let replay t =
  let st = t.repl_state in
  let ids = Repl.pending_ids st in
  List.iter
    (fun id ->
      match Repl.pending_request st id with
      | None -> ()
      | Some payload -> (
          Hashtbl.remove st.Repl.pending id;
          match Protocol.parse_request payload with
          | Error _ -> ()
          | Ok (req, opts) ->
              Trace.with_span "serve.replay" @@ fun () ->
              complete_pending t id req opts;
              Atomic.incr t.n_replayed;
              Metrics.incr m_replayed))
    ids;
  (* Replayed verdicts are durable in the journal; make the cache snapshot
     catch up too so a following crash loses nothing. *)
  if ids <> [] then
    match t.cfg.cache_file with
    | Some path -> note_io_error (Cache.checkpoint t.cache ~path)
    | None -> ()

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  if cfg.fault_rate > 0.0 then
    Faultinj.arm ~seed:cfg.fault_seed ~rate:cfg.fault_rate [ Faultinj.Serve_worker ];
  let ( let* ) = Result.bind in
  (* A follower's journal is its replica — without one there is nothing
     to replicate into, so --follow without --journal is a typed refusal. *)
  let* () =
    match (cfg.follow, cfg.journal) with
    | Some _, None ->
        let e =
          Run_error.Validation
            {
              what = "serve --follow";
              msg = "a follower needs --journal FILE: the replicated journal is its whole state";
            }
        in
        Run_error.emit e;
        Error e
    | _ -> Ok ()
  in
  (* Cache checkpoint first: a mixed-version snapshot must abort startup
     before we touch the journal. The snapshot path gets the same advisory
     single-writer guard as the journal — two daemons checkpointing into
     one file would interleave atomically-correct but mutually clobbering
     snapshots. *)
  let* cache_lock =
    match cfg.cache_file with
    | None -> Ok None
    | Some _ when cfg.force_lock -> Ok None
    | Some path -> (
        match Ioutil.acquire_lock ~path with
        | Ok l -> Ok (Some l)
        | Error msg ->
            let e = Run_error.Locked { path; msg } in
            Run_error.emit e;
            Error e)
  in
  let release_cache_lock () = Option.iter Ioutil.release_lock cache_lock in
  let* cache =
    match cfg.cache_file with
    | None -> Ok (Cache.create ())
    | Some path -> (
        match Cache.load ~path with
        | Ok c -> Ok c
        | Error e ->
            release_cache_lock ();
            Error e)
  in
  (* Knowledge base: loaded in full (every record verified) before the
     journal is touched, so a bad kb file aborts startup instead of
     surfacing as per-request errors after replay already ran. *)
  let* kb =
    match cfg.kb_file with
    | None -> Ok None
    | Some path -> (
        match Ipdb_kb.Kbfile.load path with
        | Ok loaded -> Ok (Some (loaded.Ipdb_kb.Kbfile.store, loaded.Ipdb_kb.Kbfile.digest))
        | Error e ->
            release_cache_lock ();
            Error e)
  in
  (* Journal: repair a torn tail, check the format header, remember the
     records for replay once the server object exists. *)
  let guard r =
    match r with
    | Ok _ as ok -> ok
    | Error _ as e ->
        release_cache_lock ();
        e
  in
  let* journal_state =
    guard
      (match cfg.journal with
      | None -> Ok None
      | Some path ->
          let* { Journal.records; _ } = Journal.repair ~path in
          let* () =
            match records with
            | [] -> Ok ()
            | first :: _ -> Result.map ignore (Repl.parse_header path first)
          in
          let* j = Journal.open_append ~lock:(not cfg.force_lock) ~path () in
          let* records =
            (* A leader writes its own header; a follower's record 0 is
               the header shipped from the leader, so an empty follower
               journal stays empty until the stream arrives. *)
            if records = [] && cfg.follow = None then (
              let h = Repl.header ~epoch:0 in
              match Journal.append j h with
              | Ok () -> Ok [ h ]
              | Error err ->
                  Journal.close j;
                  Error err)
            else Ok records
          in
          Ok (Some (j, records)))
  in
  let close_journal () = Option.iter (fun (j, _) -> Journal.close j) journal_state in
  let* listen_fd =
    match
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
      Unix.listen fd 128;
      fd
    with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        close_journal ();
        release_cache_lock ();
        Error
          (Run_error.Io
             {
               path = Printf.sprintf "tcp:%d" cfg.port;
               msg = Printf.sprintf "cannot bind: %s" (Unix.error_message e);
             })
  in
  let bound_port =
    match Unix.getsockname listen_fd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let jobs = match cfg.jobs with Some j -> Stdlib.max 1 j | None -> Pool.default_jobs () in
  let pool = Pool.create ~jobs () in
  let t =
    {
      cfg;
      listen_fd;
      bound_port;
      pool;
      cache;
      journal = Option.map fst journal_state;
      kb;
      cache_lock;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      in_flight = Atomic.make 0;
      next_id = Atomic.make 1;
      completions = Atomic.make 0;
      n_accepted = Atomic.make 0;
      n_served = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_degraded = Atomic.make 0;
      n_replayed = Atomic.make 0;
      n_stale = Atomic.make 0;
      jobs;
      capacity = jobs + Stdlib.max 0 cfg.queue_limit;
      accept_domain = None;
      role = Atomic.make (match cfg.follow with Some _ -> Follower | None -> Leader);
      epoch = Atomic.make 0;
      hub = Hashtbl.create 64;
      hub_len = Atomic.make 0;
      hub_lock = Mutex.create ();
      repl_state = Repl.create ();
      leader_len = Atomic.make 0;
      tail_stop = Atomic.make false;
      tail_domain = None;
      replica_domains = [];
      replica_lock = Mutex.create ();
    }
  in
  match
    (match journal_state with Some (_, records) -> fold_journal t records | None -> ());
    (* A leader completes the pending tail now (post-crash replay); a
       follower leaves it pending — the leader's shipped [done] records
       or a promotion will complete it. *)
    (match cfg.follow with
    | None -> replay t
    | Some leader_port ->
        t.tail_domain <- Some (Domain.spawn (fun () -> follower_tail t ~leader_port)));
    t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t))
  with
  | () ->
      Trace.event "serve.started"
        ~attrs:
          [ ("port", Json.Int bound_port); ("jobs", Json.Int jobs); ("capacity", Json.Int t.capacity) ];
      Ok t
  | exception e ->
      (* Replay hitting a dying disk (or a failed domain spawn) must not
         leak the pool's domains, the tail, the socket, or the locks. *)
      Pool.shutdown pool;
      Atomic.set t.tail_stop true;
      (match t.tail_domain with Some d -> Domain.join d | None -> ());
      (try Unix.close listen_fd with _ -> ());
      close_journal ();
      release_cache_lock ();
      raise e

let stop ?(drain_timeout = 30.0) t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    Atomic.set t.tail_stop true;
    (match t.accept_domain with Some d -> Domain.join d | None -> ());
    (match t.tail_domain with Some d -> Domain.join d | None -> ());
    t.tail_domain <- None;
    (try Unix.close t.listen_fd with _ -> ());
    (* Drain: in-flight handlers count themselves out just before they
       reply; Pool.shutdown then runs anything still queued and joins the
       workers, so every reply is written before the journal closes. *)
    let deadline = Unix.gettimeofday () +. drain_timeout in
    while Atomic.get t.in_flight > 0 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    Pool.shutdown t.pool;
    (* Replica streamers watch [stopping] and exit their loops. *)
    let replicas =
      Mutex.lock t.replica_lock;
      let ds = t.replica_domains in
      t.replica_domains <- [];
      Mutex.unlock t.replica_lock;
      ds
    in
    List.iter Domain.join replicas;
    (match t.cfg.cache_file with
    | Some path -> note_io_error (Cache.checkpoint t.cache ~path)
    | None -> ());
    (match t.journal with Some j -> Journal.close j | None -> ());
    Option.iter Ioutil.release_lock t.cache_lock;
    if t.cfg.fault_rate > 0.0 then Faultinj.disarm ();
    Trace.event "serve.stopped"
      ~attrs:[ ("served", Json.Int (Atomic.get t.n_served)); ("shed", Json.Int (Atomic.get t.n_shed)) ]
  end

let run cfg =
  match start cfg with
  | Error _ as e -> e
  | Ok t ->
      let role = match Atomic.get t.role with Leader -> "leader" | Follower -> "follower" in
      Printf.printf "ipdb serve: listening on 127.0.0.1:%d (jobs=%d, capacity=%d, role=%s)\n%!"
        t.bound_port t.jobs t.capacity role;
      let stop_requested = Atomic.make false in
      let promote_requested = Atomic.make false in
      let on_signal _ = Atomic.set stop_requested true in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
      let prev_usr1 =
        try Some (Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set promote_requested true)))
        with _ -> None
      in
      while not (Atomic.get stop_requested) do
        if Atomic.exchange promote_requested false then begin
          let resp = promote t in
          Printf.printf "ipdb serve: %s\n%!" resp.body
        end;
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Printf.printf "ipdb serve: draining\n%!";
      stop t;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      (match prev_usr1 with Some p -> (try Sys.set_signal Sys.sigusr1 p with _ -> ()) | None -> ());
      let s = stats t in
      Printf.printf "ipdb serve: bye (served=%d shed=%d cache=%d)\n%!" s.served s.shed s.cache_size;
      Ok ()
