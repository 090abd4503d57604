(* The serve workloads: open-loop traffic against an `ipdb serve --jobs 2
   --journal --cache` daemon in a scratch directory, from one generator
   thread with at most [Proc.jobs] connections in flight.

   serve-hot: after an untimed warmup fills the cache, every timed
   request is a hit among ~48 distinct classify / moments / criterion /
   pqe keys, so the time is accept, frame, parse, cache probe and reply;
   the journal and the engines are bypassed. This is the p99-tail
   question of the serve surface.

   serve-cold: the same daemon with `--kb` on a seeded 10⁵-fact kb, and
   every request is a key never seen before (~40% kb point/ground
   queries, ~35% criterion, ~25% moments), so each pays two journal
   fsyncs, an engine call and a cache insert, and every 32nd completion a
   cache checkpoint: the writes beside serve-hot's reads.

   Rates are frozen per workload at ~25% (low) and ~50% (mid) of the
   saturation throughput measured at seed 1 on the reference host (2
   cores), rounded to two significant digits; see README.md for how to
   recalibrate them. *)

module Protocol = Ipdb_serve.Protocol
module Client = Ipdb_serve.Client
module Cache = Ipdb_serve.Cache
module Server = Ipdb_serve.Server
module Journal = Ipdb_run.Journal
module Zoo = Ipdb_core.Zoo
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Interval = Ipdb_series.Interval
module Q = Ipdb_bignum.Q
module Fo = Ipdb_logic.Fo

type profile = { name : string; low : float; mid : float; limit : float  (** seconds, on the supported tail *) }

let is_serve w = w = "serve-hot" || w = "serve-cold"

let hot = { name = "serve-hot"; low = 2200.0; mid = 4400.0; limit = 0.005 }
let cold = { name = "serve-cold"; low = 82.0; mid = 160.0; limit = 0.050 }

(* ------------------------------------------------------------------ *)
(* Request keys                                                        *)
(* ------------------------------------------------------------------ *)

(* A request as sent on the wire, and the one-shot CLI call that must
   print the same body. *)
type key = { payload : string; cli : string list }

let jobs_flag = [ "--jobs"; string_of_int Proc.jobs ]
let family name = List.assoc name Zoo.all_families
let clamp f upto = min upto (family f).Zoo.check_upto

let classify f upto =
  { payload = Printf.sprintf "classify %s upto=%d" f upto; cli = [ "classify"; f; "--upto"; string_of_int upto ] @ jobs_flag }

let moments f k upto =
  let upto = clamp f upto in
  {
    payload = Printf.sprintf "moments %s k=%d upto=%d" f k upto;
    cli = [ "moments"; f; "-k"; string_of_int k; "--upto"; string_of_int upto ] @ jobs_flag;
  }

let criterion f c upto =
  let upto = clamp f upto in
  {
    payload = Printf.sprintf "criterion %s c=%d upto=%d" f c upto;
    cli = [ "criterion"; f; "-c"; string_of_int c; "--upto"; string_of_int upto ] @ jobs_flag;
  }

let pqe s = { payload = "pqe example-b3 " ^ s; cli = [ "prob"; "--ti"; "example-b3"; s ] }
let kb ~kb_path s = { payload = "kb " ^ s; cli = [ "kb"; "query"; kb_path; s ] @ jobs_flag }

let dedupe keys =
  let seen = Hashtbl.create 64 in
  List.filter (fun k -> if Hashtbl.mem seen k.payload then false else (Hashtbl.add seen k.payload (); true)) keys

(* serve-hot's working set: 48 distinct certified queries drawn by seed
   from every (family, order) the zoo has a certificate for, so every
   answer is a cacheable verdict. *)
let hot_keys ~seed =
  let fams = List.map fst Zoo.all_families in
  let certified cert f n = Option.is_some (cert (family f) n) in
  let cands =
    List.concat_map (fun f -> [ classify f 1000; classify f 2000 ]) fams
    @ List.concat_map
        (fun f ->
          List.concat_map
            (fun n ->
              (if certified (fun cf -> cf.Zoo.moment_cert) f n then [ moments f n 500; moments f n 1000 ] else [])
              @ if n <= 2 && certified (fun cf -> cf.Zoo.thm53_cert) f n then [ criterion f n 500; criterion f n 1000 ] else [])
            [ 1; 2; 3; 4 ])
        fams
    @ List.map pqe [ "exists x y. R(x,y)"; "exists x. R(x,x)"; "exists x y z. (R(x,y) & R(y,z))"; "exists x y. (R(x,y) & R(y,x))" ]
  in
  let a = Series_wl.shuffle (Random.State.make [| seed; 0x407 |]) (Array.of_list (dedupe cands)) in
  Array.sub a 0 (min 48 (Array.length a))

(* serve-hot's timed stream: [n] draws from its working set, in seeded
   order. *)
let hot_draw ~seed =
  let keys = hot_keys ~seed and rng = Random.State.make [| seed; 0x5eed |] in
  fun n -> Array.init n (fun _ -> keys.(Random.State.int rng (Array.length keys)))

(* serve-cold's stream: every call draws a key never drawn before. The
   mix is 8 kb, 7 criterion and 5 moments requests in every block of 20,
   in seeded order within the block, so any few hundred consecutive
   requests carry the same work. At an even kb/engine split the median
   would sit in the gap between kb answers (a fraction of an engine
   call) and engine answers, and jump from run to run. *)
type cold_gen = { rng : Random.State.t; used : (string, unit) Hashtbl.t; kb_path : string; mutable block : int list }

let cold_gen ~seed ~kb_path = { rng = Random.State.make [| seed; 0xc01d |]; used = Hashtbl.create 4096; kb_path; block = [] }

let kb_shapes = 6

let kb_query g shape =
  let c = Random.State.int g.rng Kb_wl.universe and d = Random.State.int g.rng Kb_wl.universe in
  kb ~kb_path:g.kb_path
    (match shape with
    | 0 -> Printf.sprintf "exists y. R(%d,y)" c
    | 1 -> Printf.sprintf "exists y. S(%d,y)" c
    | 2 -> Printf.sprintf "exists x. R(x,%d)" c
    | 3 -> Printf.sprintf "exists x. S(x,%d)" c
    | 4 -> Printf.sprintf "R(%d,%d)" c d
    | _ -> Printf.sprintf "S(%d,%d)" c d)

(* Draw until [draw] gives a key not drawn before. *)
let rec fresh g draw =
  let key = draw () in
  if Hashtbl.mem g.used key.payload then fresh g draw
  else begin
    Hashtbl.add g.used key.payload ();
    key
  end

let next_cold g =
  let int n = Random.State.int g.rng n in
  if g.block = [] then g.block <- Array.to_list (Series_wl.shuffle g.rng (Array.init 20 Fun.id));
  let slot = List.hd g.block in
  g.block <- List.tl g.block;
  fresh g (fun () ->
      if slot < 8 then kb_query g (int kb_shapes)
      else if slot < 15 then criterion "geometric" 1 (10_000 + int 20_001)
      else moments "sqrt-growth" (1 + int 3) (10_000 + int 40_001))

(* One fresh query of every kb shape: the daemon builds each index the
   first time a shape needs it, which the warmup must pay, not a timed
   phase. *)
let kb_warmup g = List.init kb_shapes (fun shape -> fresh g (fun () -> kb_query g shape))

(* ------------------------------------------------------------------ *)
(* Open-loop traffic over TCP                                          *)
(* ------------------------------------------------------------------ *)

type conn = { i : int; fd : Unix.file_descr; buf : Buffer.t; opened : float; mutable answered : (bool * float) option }

let request_timeout = 30.0

(* How long a slot rests after the daemon closes its connection. The
   daemon writes the reply, closes, then counts the connection out; a
   client that reconnects inside that gap is counted as one request too
   many and lands on the degraded rung. On a two-core host the close
   often preempts the daemon's worker in favour of the woken client, so
   the gap is not rare: the rest lets the worker finish first. *)
let slot_rest = 50e-6

(* The generator's connections: one request per connection, as the
   protocol has it. A request completes when its response line is read;
   its slot frees [slot_rest] after the daemon closes the connection. *)
let tcp_io ~port ~payload ~check : Openloop.io =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let conns = ref [] and resting = ref [] in
  let chunk = Bytes.create 65536 in
  let send i =
    match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> false
    | fd -> (
        try
          Unix.connect fd addr;
          let frame = Protocol.frame (payload i) in
          let rec write off = if off < String.length frame then write (off + Unix.write_substring fd frame off (String.length frame - off)) in
          write 0;
          conns := { i; fd; buf = Buffer.create 256; opened = Clock.now (); answered = None } :: !conns;
          true
        with Unix.Unix_error _ ->
          Unix.close fd;
          false)
  in
  let answer c =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | None -> ()
    | Some nl ->
        let ok =
          match Protocol.parse_frame (String.sub s 0 nl) with
          | Ok p -> ( match Protocol.parse_response p with Ok resp -> check c.i resp | Error _ -> false)
          | Error _ -> false
        in
        c.answered <- Some (ok, Clock.now ())
  in
  let close c =
    Unix.close c.fd;
    conns := List.filter (fun o -> o.i <> c.i) !conns;
    let ok, t = match c.answered with Some a -> a | None -> (false, Clock.now ()) in
    resting := (Clock.now () +. slot_rest, (c.i, ok, t)) :: !resting
  in
  let wait ~until =
    let wake = List.fold_left (fun a (free, _) -> Float.min a free) until !resting in
    let timeout = if Float.is_finite wake then Float.max 0.0 (wake -. Clock.now ()) else 0.25 in
    (match !conns with
    | [] -> if Float.is_finite wake then Unix.sleepf timeout
    | cs ->
        let ready = try match Unix.select (List.map (fun c -> c.fd) cs) [] [] timeout with r, _, _ -> r with Unix.Unix_error (Unix.EINTR, _, _) -> [] in
        List.iter
          (fun c ->
            if List.mem c.fd ready then
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> close c
              | k ->
                  Buffer.add_subbytes c.buf chunk 0 k;
                  if c.answered = None then answer c
              | exception Unix.Unix_error _ -> close c
            else if Clock.now () -. c.opened > request_timeout then close c)
          cs);
    let now = Clock.now () in
    let free, rest = List.partition (fun (at, _) -> at <= now) !resting in
    resting := rest;
    List.map snd free
  in
  { Openloop.now = Clock.now; send; wait }

let certified (resp : Protocol.response) = resp.status = Protocol.Ok_positive || resp.status = Protocol.Certified_negative

let open_loop ~port ~(keys : key array) ~rate ~check =
  let io = tcp_io ~port ~payload:(fun i -> keys.(i).payload) ~check in
  let due = Openloop.due_times ~start:(Clock.now () +. 0.01) ~rate ~n:(Array.length keys) in
  Openloop.run io ~slots:Proc.jobs ~due

(* The highest open-loop rate meeting the latency limit without a
   growing backlog: from [start] (whose probe outcome is [start_ok]),
   double until a probe fails, or halve until one passes, then bisect
   three times. *)
let max_rate ~start ~start_ok ~probe =
  let rec up lo = if lo > start *. 64.0 || not (probe (lo *. 2.0)) then (lo, lo *. 2.0) else up (lo *. 2.0) in
  let rec down hi = if hi < 1.0 then (0.0, hi) else if probe (hi /. 2.0) then (hi /. 2.0, hi) else down (hi /. 2.0) in
  let lo, hi = if start_ok then up start else down start in
  let rec bisect lo hi k = if k = 0 then lo else let m = (lo +. hi) /. 2.0 in if probe m then bisect m hi (k - 1) else bisect lo m (k - 1) in
  bisect lo hi 3

let stats ~port =
  match Client.request ~retries:5 ~port "stats" with
  | Ok { Protocol.status = Protocol.Ok_positive; body } -> (
      match Ipdb_obs.Json.parse body with
      | Ok j ->
          let get k = Option.value ~default:0 (Option.bind (Ipdb_obs.Json.member k j) (function Ipdb_obs.Json.Int i -> Some i | _ -> None)) in
          (get "cache_hits", get "cache_misses", get "degraded")
      | Error _ -> failwith "stats: bad JSON")
  | _ -> failwith "stats op failed"

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let kb_facts ~smoke = if smoke then 2_000 else 100_000

let daemon_args ~dir ~kb_path =
  [ "--jobs"; string_of_int Proc.jobs; "--journal"; Filename.concat dir "journal"; "--cache"; Filename.concat dir "cache" ]
  @ (match kb_path with Some p -> [ "--kb"; p ] | None -> [])
  (* A response reaches the client a moment before the daemon counts its
     connection out, so a client that reconnects at once can be counted
     as the (jobs+1)-th request and put on the degraded rung. The cap is
     lifted so that such a request still computes the exact answer. *)
  @ [ "--degraded-max-steps"; "1000000000" ]

let run (r : Report.t) (p : profile) ~seed ~seconds ~smoke =
  let is_cold = p == cold in
  let kb_path =
    if is_cold then begin
      let path = Filename.concat (Proc.fresh_dir "kb") "kb.ipdbkb1" in
      Kb_wl.write_kb ~seed ~facts:(kb_facts ~smoke) path;
      Some path
    end
    else None
  in
  (* Set-up: spawn to `listening`, several times; the last daemon serves. *)
  let starts = if smoke then 2 else if is_cold then 7 else 15 in
  let start () = let dir = Proc.fresh_dir "serve" in Proc.start_daemon ~dir (daemon_args ~dir ~kb_path) in
  let setup = Array.make starts 0.0 in
  for i = 0 to starts - 2 do
    let d = start () in
    setup.(i) <- d.startup_s;
    Proc.stop_daemon d
  done;
  let d = start () in
  setup.(starts - 1) <- d.Proc.startup_s;
  Fun.protect ~finally:(fun () -> if List.mem d.Proc.pid !Proc.live then Proc.stop_daemon d) @@ fun () ->
  let port = d.Proc.port in
  (* Warmup, untimed. Hot: fill the cache and keep each key's bytes, which
     every later answer must repeat. Cold: every kb shape once, then a
     few fresh keys. *)
  let gen = cold_gen ~seed ~kb_path:(Option.value ~default:"" kb_path) in
  let warm = Hashtbl.create 64 in
  let sent = ref [] in
  let request k =
    sent := k :: !sent;
    match Client.request ~retries:5 ~port k.payload with
    | Ok resp ->
        Report.attempt r ~ok:(certified resp);
        Some resp
    | Error _ ->
        Report.attempt r ~ok:false;
        None
  in
  let hot_set = hot_keys ~seed in
  if is_cold then List.iter (fun k -> ignore (request k)) (kb_warmup gen @ List.init 20 (fun _ -> next_cold gen))
  else
    Array.iter
      (fun k ->
        match request k with
        | Some resp -> Hashtbl.replace warm k.payload resp
        | None -> Report.check r ("warmup " ^ k.payload) false)
      hot_set;
  let draw_hot = hot_draw ~seed in
  let keys n = if is_cold then Array.init n (fun _ -> next_cold gen) else draw_hot n in
  let hits0, misses0, _ = stats ~port in
  let phase ~rate ~n =
    let ks = keys n in
    sent := Array.to_list ks @ !sent;
    let check i (resp : Protocol.response) =
      certified resp && (is_cold || Hashtbl.find_opt warm ks.(i).payload = Some resp)
    in
    let o = open_loop ~port ~keys:ks ~rate ~check in
    Array.iter (fun good -> Report.attempt r ~ok:good) o.Openloop.ok;
    o
  in
  (* Saturation first, on the nearly fresh daemon: every request of a
     round due at once, so the slots never idle; the median of six
     rounds of about half a second. low and mid are fractions of it. *)
  let saturation =
    let round () =
      let o = phase ~rate:Float.infinity ~n:(if smoke then 10 else if is_cold then 240 else 4000) in
      float_of_int (Array.length o.Openloop.due) /. (Array.fold_left Float.max 0.0 o.Openloop.finished -. o.Openloop.due.(0))
    in
    (Stats.summary (Array.init 6 (fun _ -> round ()))).Stats.median
  in
  (* A fifth of the run at each fixed rate, and at mid enough requests for
     a supported p99; then the max-rate search, each probe at least two
     seconds. *)
  let span_n rate secs = int_of_float (rate *. secs) in
  let low = phase ~rate:p.low ~n:(if smoke then 30 else max 200 (span_n p.low (0.2 *. seconds))) in
  let mid = phase ~rate:p.mid ~n:(if smoke then 30 else max 1000 (span_n p.mid (0.2 *. seconds))) in
  (* Peak memory after the fixed phases: the search below sends a number
     of requests that depends on how it goes. *)
  let peak_rss_mb = Proc.vm_hwm_mb d.Proc.pid in
  let probe_s = if smoke then 0.1 else 2.0 in
  let lateness = ref [ low.Openloop.lateness; mid.Openloop.lateness ] in
  (* A rate beyond saturation cannot be sustained: its backlog grows by
     construction, so it fails without being sent. *)
  let probe rate =
    rate < saturation
    &&
    let o = phase ~rate ~n:(max 10 (span_n rate probe_s)) in
    lateness := o.Openloop.lateness :: !lateness;
    let label, tail, _ = Openloop.tail o in
    Printf.eprintf "ipdb_bench: %s probe %.0f/s: %s %.3f ms, %d failed, backlog %s\n%!" p.name rate label (tail *. 1e3)
      (Openloop.failures o) (if Openloop.backlog_growing o ~limit:p.limit then "growing" else "steady");
    Openloop.meets o ~limit:p.limit
  in
  let best = max_rate ~start:p.mid ~start_ok:(Openloop.meets mid ~limit:p.limit) ~probe in
  let hits1, misses1, degraded = stats ~port in
  let ms o = Array.map (fun x -> x *. 1e3) (Openloop.latencies o) in
  let tail_at o =
    let label, v, k = Openloop.tail o in
    (Printf.sprintf "%s over %d windows of %d requests" label k (Array.length o.Openloop.due / k), v *. 1e3)
  in
  let mid_label, mid_tail = tail_at mid and low_label, low_tail = tail_at low in
  Report.add r "setup_s" "s" ~note:"spawn to listening" setup;
  Report.add r "p50_ms" "ms" ~note:(Printf.sprintf "requests at low=%g/s" p.low) (ms low);
  Report.point r "tail_ms" "ms" ~note:(Printf.sprintf "%s at mid=%g/s" mid_label p.mid) mid_tail;
  Report.point r "throughput_per_s" "1/s" ~note:"saturation: requests per second, all due at once" saturation;
  Report.point r "max_rate_rps" "1/s" ~note:(Printf.sprintf "tail limit %g ms" (p.limit *. 1e3)) best;
  Report.point r "peak_rss_mb" "MiB" ~note:"daemon VmHWM" peak_rss_mb;
  Report.point r "tail_ms.low" "ms" ~note:low_label low_tail;
  Report.add r "p50_ms.mid" "ms" (ms mid);
  let lat_ms = Array.map (fun x -> x *. 1e3) (Array.concat !lateness) in
  Report.point r "gen.lateness_ms.p99" "ms" ~note:"generator health" (snd (Stats.tail lat_ms));
  let timed = hits1 - hits0 + (misses1 - misses0) in
  let hit_ratio = if timed = 0 then 0.0 else float_of_int (hits1 - hits0) /. float_of_int timed in
  Report.point r "cache.hit_ratio" "ratio" hit_ratio;
  Report.point r "serve.degraded" "count" (float_of_int degraded);
  Report.check r (Printf.sprintf "cache hit ratio %g" (if is_cold then 0.0 else 1.0)) (hit_ratio = if is_cold then 0.0 else 1.0);
  (* Untimed: bodies of 20 sampled keys equal the one-shot CLI's output. *)
  let sample = Series_wl.shuffle (Random.State.make [| seed; 0x5a |]) (Array.of_list (dedupe !sent)) in
  Array.iteri
    (fun i k ->
      if i < 20 then
        match Client.request ~retries:5 ~port k.payload with
        | Ok resp ->
            let cli = Proc.run k.cli in
            Report.check r ("CLI equals daemon: " ^ k.payload)
              (cli.out = resp.body ^ "\n" && cli.code = Protocol.status_exit_code resp.status)
        | Error e -> Report.check r ("request " ^ k.payload ^ ": " ^ e) false)
    sample;
  Proc.stop_daemon d

(* ------------------------------------------------------------------ *)
(* In-process replay of the daemon's pipeline                          *)
(* ------------------------------------------------------------------ *)

(* The daemon's evaluation step for the ops the workloads send, with its
   rendering, so the replayed cache and journal hold the daemon's bytes.
   The daemon evaluates on a worker domain without a pool, as here. *)
let status_of_series = function
  | Criteria.Finite_sum _ -> Protocol.Ok_positive
  | Criteria.Infinite_sum _ -> Protocol.Certified_negative
  | Criteria.Partial _ -> Protocol.Partial
  | Criteria.Invalid_certificate _ | Criteria.Check_failed _ -> Protocol.Internal

let render_series ~head ~finite ~infinite = function
  | Criteria.Finite_sum e -> Printf.sprintf "%s ∈ [%.9g, %.9g]%s" head (Interval.lo e) (Interval.hi e) finite
  | Criteria.Infinite_sum { partial; at } -> Printf.sprintf "%s = ∞ %s" head (infinite partial at)
  | v -> Printf.sprintf "%s: %s" head (Criteria.verdict_to_string v)

let probability phi p =
  {
    Protocol.status = (if Q.is_zero p then Protocol.Certified_negative else Protocol.Ok_positive);
    body = Printf.sprintf "P(%s) = %s ≈ %s" (Fo.to_string phi) (Q.to_string p) (Q.to_decimal_string ~digits:8 p);
  }

let builtin_tis = lazy (Server.builtin_tis ())

let evaluate ~kb (req : Protocol.request) : Protocol.response =
  let sentence q = match Ipdb_logic.Parser.sentence q with Ok phi -> phi | Error e -> failwith ("parse: " ^ e) in
  match req with
  | Protocol.Classify { family = f; upto } ->
      let v = Classifier.classify ~upto (family f) in
      let status =
        match v with
        | Classifier.Not_in_FOTI _ -> Protocol.Certified_negative
        | Classifier.Partial _ -> Protocol.Partial
        | _ -> Protocol.Ok_positive
      in
      { status; body = Classifier.verdict_to_string v }
  | Protocol.Moments { family = f; k; upto } ->
      let cf = family f in
      let v = Criteria.moment_verdict cf.Zoo.family ~k ~cert:(Option.get (cf.Zoo.moment_cert k)) ~upto in
      {
        status = status_of_series v;
        body =
          render_series ~head:(Printf.sprintf "E(|D|^%d)" k) ~finite:""
            ~infinite:(Printf.sprintf "(certified; partial sum %.6g after %d terms)")
            v;
      }
  | Protocol.Criterion { family = f; c; upto } ->
      let cf = family f in
      let v = Criteria.theorem53_verdict cf.Zoo.family ~c ~cert:(Option.get (cf.Zoo.thm53_cert c)) ~upto in
      {
        status = status_of_series v;
        body =
          render_series ~head:(Printf.sprintf "Σ|D|·P(D)^(%d/|D|)" c) ~finite:" < ∞ ⟹ in FO(TI) (Theorem 5.3)"
            ~infinite:(Printf.sprintf "(partial %.6g after %d terms)")
            v;
      }
  | Protocol.Pqe { ti; query } ->
      let tipdb = List.assoc ti (Lazy.force builtin_tis) and phi = sentence query in
      probability phi (Ipdb_pdb.Lineage.probability tipdb (Ipdb_pdb.Lineage.of_sentence tipdb phi))
  | Protocol.Kb { query } -> (
      let phi = sentence query in
      match Ipdb_kb.Lifted.query (fst (Option.get kb)) phi with
      | Ok (Ipdb_kb.Lifted.Exact p) -> probability phi p
      | _ -> { status = Protocol.Internal; body = "kb query not exact" })
  | _ -> { status = Protocol.Bad_request; body = "not replayed" }

type pipeline = {
  cache : Cache.t;
  journal : Journal.t;
  kb : (Ipdb_kb.Store.t * int64) option;
  dir : string;
  mutable next_id : int;
  mutable completions : int;
}

let checkpoint_every = 32

let pipeline ~kb =
  let dir = Proc.fresh_dir "replay" in
  match Journal.open_append ~path:(Filename.concat dir "journal") () with
  | Ok journal -> { cache = Cache.create (); journal; kb; dir; next_id = 0; completions = 0 }
  | Error e -> failwith ("journal: " ^ Ipdb_run.Error.message e)

let close_pipeline p = Journal.close p.journal

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* One request frame through the daemon's public pieces, in the order
   Server.answer uses them: parse_frame → parse_request → cache_key →
   Cache.find → journal req → engine → journal done → Cache.put (and a
   checkpoint every 32nd completion) → render_response → frame. *)
let answer p ~id frame =
  let span = Spans.with_span in
  span ~req:id "request" @@ fun () ->
  let payload = span "protocol.decode" (fun () -> ok_exn "frame" (Protocol.parse_frame (String.sub frame 0 (String.length frame - 1)))) in
  let req, opts = span "protocol.parse_request" (fun () -> ok_exn "request" (Protocol.parse_request payload)) in
  let key = span "protocol.cache_key" (fun () -> Option.get (Protocol.cache_key ?kb_digest:(Option.map snd p.kb) req)) in
  let journal record =
    span "journal.append" (fun () ->
        match Journal.append p.journal record with Ok () -> () | Error e -> failwith (Ipdb_run.Error.message e))
  in
  let resp =
    match span "cache.find" (fun () -> Cache.find p.cache ~key) with
    | Some cached -> ok_exn "cached response" (Protocol.parse_response cached)
    | None ->
        let id = p.next_id in
        p.next_id <- id + 1;
        journal (Printf.sprintf "req %d %s" id (Protocol.request_to_payload req opts));
        let resp = span "serve.engine" (fun () -> evaluate ~kb:p.kb req) in
        journal (Printf.sprintf "done %d %s" id (Protocol.render_response resp));
        if Protocol.cacheable resp.status then begin
          span "cache.put" (fun () -> Cache.put p.cache ~key (Protocol.render_response resp));
          p.completions <- p.completions + 1;
          if p.completions mod checkpoint_every = 0 then
            span "checkpoint.cache_save" (fun () -> ignore (Cache.checkpoint p.cache ~path:(Filename.concat p.dir "cache")))
        end;
        resp
  in
  let rendered = span "protocol.render" (fun () -> Protocol.render_response resp) in
  (resp, span "protocol.encode" (fun () -> Protocol.frame rendered))

(* Replay [n] requests; a hot replay warms its cache first, untimed and
   untraced. Returns per-request seconds. *)
let replay p ~warm ~(keys : key array) =
  let on = !Spans.on in
  Spans.on := false;
  Array.iteri (fun i k -> ignore (answer p ~id:(-1 - i) (Protocol.frame k.payload))) warm;
  Spans.on := on;
  Array.mapi (fun i k -> snd (Clock.time (fun () -> ignore (answer p ~id:i (Protocol.frame k.payload))))) keys

let disk_bytes p =
  ignore (Cache.checkpoint p.cache ~path:(Filename.concat p.dir "cache"));
  file_size (Filename.concat p.dir "journal") + file_size (Filename.concat p.dir "cache")
