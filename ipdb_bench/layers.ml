(* The traced run: the workload's own in-process replay under bench spans
   (its attribution, tracing overhead and exact counts), then one suite of
   per-layer measurements that times calls into the public functions of
   each library layer from outside. The suite runs in every traced run on
   seeded standard inputs, so every per-layer metric is a fresh
   measurement in every workload's traced run; README.md maps each one to
   the end-to-end metric and workload it should move. *)

module Q = Ipdb_bignum.Q
module Nat = Ipdb_bignum.Nat
module Zint = Ipdb_bignum.Zint
module Series = Ipdb_series.Series
module Criteria = Ipdb_core.Criteria
module Zoo = Ipdb_core.Zoo
module Family = Ipdb_pdb.Family
module Pqe = Ipdb_pdb.Pqe
module Budget = Ipdb_run.Budget
module Journal = Ipdb_run.Journal
module Metrics = Ipdb_obs.Metrics
module Pool = Ipdb_par.Pool
module Protocol = Ipdb_serve.Protocol
module Cache = Ipdb_serve.Cache
module Client = Ipdb_serve.Client
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile

let ms = Array.map (fun s -> s *. 1e3)
let us = Array.map (fun s -> s *. 1e6)
let median xs = (Stats.summary xs).Stats.median

(* Nanoseconds per call of [f]: [samples] batches, each sized to run for
   at least [min_s]. *)
let per_call ?(samples = 7) ?(min_s = 0.005) f =
  let batch k = snd (Clock.time (fun () -> for _ = 1 to k do f () done)) in
  let rec size k = if k >= 1 lsl 22 || batch k >= min_s then k else size (k * 4) in
  let k = size 1 in
  Array.init samples (fun _ -> batch k *. 1e9 /. float_of_int k)

(* A call that walks round [arr], one element per call. *)
let cycle arr f =
  let i = ref 0 in
  fun () ->
    let x = arr.(!i) in
    i := (!i + 1) mod Array.length arr;
    f x

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Run [f] with the program's counters on and reset; read them after. *)
let counting f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

let counter name = float_of_int (Metrics.value (Metrics.counter name))

(* ------------------------------------------------------------------ *)
(* lib/bignum                                                          *)
(* ------------------------------------------------------------------ *)

let bits30 rng = Random.State.bits rng

(* A natural number of exactly [k] 30-bit limbs. *)
let nat_limbs rng k =
  let rec go acc i = if i = 0 then acc else go (Nat.add (Nat.shift_left acc 30) (Nat.of_int (bits30 rng))) (i - 1) in
  go (Nat.of_int (1 + bits30 rng)) (k - 1)

(* Operands below 2^30; straddling the 2^31 and 2^53 native frontiers;
   and ≈4096-bit. *)
let q_pairs rng = function
  | "small" -> Array.init 64 (fun _ -> let q () = Q.of_ints (1 + bits30 rng) (1 + bits30 rng) in (q (), q ()))
  | "edge" ->
      let near e = (1 lsl e) - 8 + Random.State.int rng 16 in
      Array.init 64 (fun i ->
          let e = if i mod 2 = 0 then 31 else 53 in
          (Q.of_ints (near e) (near 53), Q.of_ints (near 31) (near e)))
  | _ ->
      let big () = Zint.of_nat (nat_limbs rng 137) in
      Array.init 16 (fun _ -> (Q.make (big ()) (big ()), Q.make (big ()) (big ())))

let bignum r ~seed =
  let rng = Random.State.make [| seed; 0xb1 |] in
  List.iter
    (fun size ->
      let pairs = q_pairs rng size in
      Report.add r ("bignum.q_add_ns." ^ size) "ns" (per_call (cycle pairs (fun (a, b) -> ignore (Sys.opaque_identity (Q.add a b)))));
      Report.add r ("bignum.q_mul_ns." ^ size) "ns" (per_call (cycle pairs (fun (a, b) -> ignore (Sys.opaque_identity (Q.mul a b))))))
    Report.bignum_sizes;
  (* A gap of 2^-50 sits inside the filter's 2^-40 interval, forcing the
     exact cross-multiplication; random small pairs never do. *)
  let small = q_pairs rng "small" in
  let eps = Q.make Zint.one (Zint.of_int (1 lsl 50)) in
  let straddle = Array.map (fun (a, _) -> (a, Q.add a eps)) small in
  let cmp pairs = per_call (cycle pairs (fun (a, b) -> ignore (Sys.opaque_identity (Q.compare a b)))) in
  Report.add r "bignum.q_compare_ns.filtered" "ns" (cmp small);
  Report.add r "bignum.q_compare_ns.straddle" "ns" (cmp straddle);
  List.iter
    (fun limbs ->
      let pairs = Array.init 16 (fun _ -> (nat_limbs rng limbs, nat_limbs rng limbs)) in
      let time name mul = Report.add r (Printf.sprintf "bignum.%s.%dl" name limbs) "ns" (per_call (cycle pairs (fun (a, b) -> ignore (Sys.opaque_identity (mul a b))))) in
      time "nat_mul_ns" Nat.mul;
      time "nat_mul_classical_ns" Nat.mul_classical)
    [ 24; 64 ]

(* ------------------------------------------------------------------ *)
(* lib/series, lib/obs                                                 *)
(* ------------------------------------------------------------------ *)

(* Series.sum_budgeted over the geometric family's Theorem 5.3 series, the
   series `criterion geometric` sums. *)
let geometric_sum ?pool ?budget ~terms () =
  let cf = Zoo.geometric in
  let tail = match cf.Zoo.thm53_cert 1 with Some (Criteria.Tail t) -> t | _ -> failwith "geometric: no tail certificate" in
  let start = cf.Zoo.family.Family.start in
  match Series.sum_budgeted ?pool ?budget ~start (Family.theorem53_term cf.Zoo.family ~c:1) ~tail ~upto:(start + terms - 1) with
  | Ok (Series.Complete _) -> ()
  | _ -> failwith "geometric sum did not complete"

let series r ~smoke =
  let terms = if smoke then 10_000 else 1_000_000 in
  let per_term f = Array.init 3 (fun _ -> snd (Clock.time f) *. 1e9 /. float_of_int terms) in
  with_pool Proc.jobs @@ fun pool ->
  Report.add r "series.ns_per_term.fast" "ns" (per_term (geometric_sum ~terms));
  Report.add r "series.ns_per_term.pooled" "ns" (per_term (geometric_sum ~pool ~terms));
  Report.add r "series.ns_per_term.budgeted" "ns" (per_term (geometric_sum ~budget:(Budget.make ~max_steps:max_int ()) ~terms));
  Report.add r "series.ns_per_term.metered" "ns" (per_term (fun () -> counting (geometric_sum ~terms)));
  let c = Metrics.counter "ipdb_bench.probe" in
  Metrics.enable ();
  Report.add r "obs.counter_ns.enabled" "ns" (Fun.protect ~finally:Metrics.disable (fun () -> per_call (fun () -> Metrics.incr c)))

(* ------------------------------------------------------------------ *)
(* lib/core, the CLI, lib/par                                          *)
(* ------------------------------------------------------------------ *)

let core r ~seed ~smoke =
  let jobs = Series_wl.batch ~seed ~smoke in
  let reps = 3 in
  let inproc =
    with_pool Proc.jobs @@ fun pool ->
    Array.init reps (fun _ -> Series_wl.replay ~pool ~variants:[ Series_wl.Silent ] jobs)
  in
  let cli = Array.init reps (fun _ -> (Series_wl.run_cli_batch (List.map (fun j -> (j, Series_wl.Silent)) jobs)).Series_wl.wall) in
  let layer_ms name = Array.map (fun rep -> 1e3 *. List.fold_left (fun a (j, _, _, s) -> if Series_wl.layer j = name then a +. s else a) 0.0 rep) inproc in
  List.iter (fun l -> Report.add r (l ^ "_ms") "ms" (layer_ms l)) [ "core.classify"; "core.criterion"; "core.moments"; "core.figures" ];
  let total = Array.map (fun rep -> List.fold_left (fun a (_, _, _, s) -> a +. s) 0.0 rep) inproc in
  Report.add r "cli.overhead_ms" "ms" ~note:"per CLI job"
    (Array.mapi (fun i c -> 1e3 *. (c -. total.(i)) /. float_of_int (List.length jobs)) cli);
  (* The batch's criterion job at jobs=2 against jobs=1. *)
  let criterion = List.find (function Series_wl.Criterion { family = "geometric"; _ } -> true | _ -> false) jobs in
  let job_s n = with_pool n (fun pool -> Array.init reps (fun _ -> snd (Clock.time (fun () -> Series_wl.replay_job ~pool ~variant:Series_wl.Silent criterion)))) in
  let one = job_s 1 in
  Report.point r "par.pool_ratio.series" "ratio" ~note:(Report.pool_note ()) (median (job_s Proc.jobs) /. median one)

(* ------------------------------------------------------------------ *)
(* lib/run                                                             *)
(* ------------------------------------------------------------------ *)

let journal r ~smoke =
  let path = Filename.concat (Proc.fresh_dir "journal") "journal" in
  match Journal.open_append ~path () with
  | Error e -> failwith ("journal: " ^ Ipdb_run.Error.message e)
  | Ok j ->
      Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
      let n = if smoke then 20 else 500 in
      let times =
        Array.concat
          (List.init n (fun id ->
               let req = Printf.sprintf "req %d criterion geometric c=1 upto=%d" id (10_000 + id) in
               let done_ = Printf.sprintf "done %d 0 Σ|D|·P(D)^(1/|D|) ∈ [1, 1] < ∞ ⟹ in FO(TI) (Theorem 5.3)" id in
               Array.map (fun rec_ -> snd (Clock.time (fun () -> ignore (Journal.append j rec_)))) [| req; done_ |]))
      in
      Report.point r "journal.append_us.p50" "us" (median (us times));
      let label, tail = Stats.tail (us times) in
      Report.point r "journal.append_us.p99" "us" ~note:(Printf.sprintf "%s of %d appends" label (Array.length times)) tail

(* ------------------------------------------------------------------ *)
(* lib/logic, lib/pdb, lib/serve                                       *)
(* ------------------------------------------------------------------ *)

let cold_keys ~seed ~n = let g = Serve_wl.cold_gen ~seed ~kb_path:"" in Array.init n (fun _ -> Serve_wl.next_cold g)

let logic r ~seed ~smoke =
  let texts = Array.of_list (List.map (fun q -> q.Kb_wl.text) (Kb_wl.battery ~seed ~smoke) @ Kb_wl.agreement_queries) in
  Report.add r "logic.parse_us" "us" (Array.map (fun x -> x /. 1e3) (per_call (cycle texts (fun t -> ignore (Sys.opaque_identity (Ipdb_logic.Parser.sentence t))))));
  let phis = Array.map Kb_wl.parse texts in
  Report.add r "pqe.ucq_us" "us" (Array.map (fun x -> x /. 1e3) (per_call (cycle phis (fun phi -> ignore (Sys.opaque_identity (Pqe.ucq_of_formula phi))))))

let protocol r ~seed ~hot_responses =
  let payloads = Array.map (fun k -> k.Serve_wl.payload) (Array.append (Serve_wl.hot_keys ~seed) (cold_keys ~seed ~n:64)) in
  let frames = Array.map (fun p -> let f = Protocol.frame p in String.sub f 0 (String.length f - 1)) payloads in
  Report.add r "protocol.encode_ns" "ns" (per_call (cycle payloads (fun p -> ignore (Sys.opaque_identity (Protocol.frame p)))));
  Report.add r "protocol.decode_ns" "ns"
    (per_call (cycle frames (fun f -> ignore (Sys.opaque_identity (Result.map Protocol.parse_request (Protocol.parse_frame f))))));
  Report.add r "protocol.render_ns" "ns" (per_call (cycle hot_responses (fun resp -> ignore (Sys.opaque_identity (Protocol.render_response resp)))))

let cache r ~seed ~smoke ~(hot : Serve_wl.pipeline) =
  let key k = match Protocol.parse_request k.Serve_wl.payload with Ok (req, _) -> Option.get (Protocol.cache_key ~kb_digest:0L req) | Error e -> failwith e in
  let hot_keys = Array.map key (Serve_wl.hot_keys ~seed) in
  Report.add r "cache.find_hit_ns" "ns" (per_call (cycle hot_keys (fun k -> ignore (Sys.opaque_identity (Cache.find hot.Serve_wl.cache ~key:k)))));
  (* Inserting keys the cache has not seen, into a cache as large as
     serve-cold's at the end of a run. *)
  let n = if smoke then 100 else 4000 in
  let keys = Array.map key (cold_keys ~seed ~n) in
  let response = "0 P(∃y.R(17,y)) = 4183/5040 ≈ 0.82996031" in
  let fill () = let c = Cache.create () in Array.iter (fun k -> Cache.put c ~key:k response) keys; c in
  Report.add r "cache.put_ns" "ns" (Array.init 5 (fun _ -> snd (Clock.time (fun () -> ignore (fill ()))) *. 1e9 /. float_of_int n));
  let full = fill () and path = Filename.concat (Proc.fresh_dir "checkpoint") "cache" in
  Report.add r "checkpoint.cache_save_ms" "ms" ~note:(Printf.sprintf "%d entries" n)
    (ms (Array.init 5 (fun _ -> snd (Clock.time (fun () -> ignore (Cache.checkpoint full ~path))))))

let connect r =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen s 64;
  let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let once () =
    let fd, secs = Clock.time (fun () -> match Client.connect ~port () with Ok fd -> fd | Error e -> failwith e) in
    let a, _ = Unix.accept ~cloexec:true s in
    Unix.close a;
    Unix.close fd;
    secs
  in
  Report.point r "client.connect_us.p50" "us" (median (us (Array.init 300 (fun _ -> once ()))))

(* Per-stage medians of a traced pipeline replay: each stage's own time
   per request (zero where a request skipped it). *)
let stage_medians_us spans =
  let requests = List.filter (fun s -> s.Spans.name = "request") spans in
  let stages = List.sort_uniq compare (List.filter_map (fun s -> if s.Spans.parent >= 0 then Some s.Spans.name else None) spans) in
  let by_req = Hashtbl.create 1024 in
  List.iter (fun s -> if s.Spans.name <> "request" then Hashtbl.add by_req (s.Spans.req, s.Spans.name) (Int64.to_float (Spans.duration_ns s) /. 1e3)) spans;
  List.map
    (fun st ->
      (st, median (Array.of_list (List.map (fun rq -> List.fold_left ( +. ) 0.0 (Hashtbl.find_all by_req (rq.Spans.req, st))) requests))))
    stages

let traced f =
  Spans.reset ();
  Spans.on := true;
  Fun.protect ~finally:(fun () -> Spans.on := false) f;
  let s = Spans.all () in
  Spans.reset ();
  s

(* serve: the stage breakdown of serve-hot's stream replayed in process
   against the end-to-end median of the same stream over TCP at the low
   rate, the generator's lateness there, and the engine time of
   serve-cold's stream. *)
let serve r ~seed ~smoke ~kb =
  let hot_set = Serve_wl.hot_keys ~seed and stream = Serve_wl.hot_draw ~seed (if smoke then 50 else 2000) in
  let p = Serve_wl.pipeline ~kb:None in
  ignore (Serve_wl.replay p ~warm:hot_set ~keys:[||]);
  let spans = traced (fun () -> ignore (Serve_wl.replay p ~warm:[||] ~keys:stream)) in
  let stage_sum = List.fold_left (fun a (_, m) -> a +. m) 0.0 (stage_medians_us spans) in
  Report.point r "serve.stage_sum_us.p50" "us" stage_sum;
  let hot_responses = Array.map (fun k -> fst (Serve_wl.answer p ~id:0 (Protocol.frame k.Serve_wl.payload))) hot_set in
  protocol r ~seed ~hot_responses;
  cache r ~seed ~smoke ~hot:p;
  Serve_wl.close_pipeline p;
  if Proc.loopback_ok () then begin
    connect r;
    let dir = Proc.fresh_dir "serve" in
    let d = Proc.start_daemon ~dir (Serve_wl.daemon_args ~dir ~kb_path:None) in
    Fun.protect ~finally:(fun () -> Proc.stop_daemon d) @@ fun () ->
    Array.iter (fun k -> ignore (Client.request ~retries:5 ~port:d.Proc.port k.Serve_wl.payload)) hot_set;
    let o = Serve_wl.open_loop ~port:d.Proc.port ~keys:stream ~rate:Serve_wl.hot.Serve_wl.low ~check:(fun _ -> Serve_wl.certified) in
    let e2e_us = median (us (Openloop.latencies o)) in
    Report.point r "serve.unattributed_us.p50" "us" ~note:"end-to-end p50 at low minus the stage medians" (e2e_us -. stage_sum);
    let label, late = Stats.tail (ms o.Openloop.lateness) in
    Report.point r "gen.lateness_ms.p99" "ms" ~note:label late
  end;
  let cold = Serve_wl.pipeline ~kb:(Some kb) in
  let keys = cold_keys ~seed ~n:(if smoke then 20 else 1000) in
  let spans = traced (fun () -> ignore (Serve_wl.replay cold ~warm:[||] ~keys)) in
  Serve_wl.close_pipeline cold;
  let engine = Array.of_list (List.filter_map (fun s -> if s.Spans.name = "serve.engine" then Some (Int64.to_float (Spans.duration_ns s) /. 1e6) else None) spans) in
  Report.point r "serve.engine_ms.p50" "ms" (median engine);
  let label, tail = Stats.tail engine in
  Report.point r "serve.engine_ms.p99" "ms" ~note:(Printf.sprintf "%s of %d" label (Array.length engine)) tail

(* ------------------------------------------------------------------ *)
(* lib/kb                                                              *)
(* ------------------------------------------------------------------ *)

let kb r ~seed ~smoke ~path =
  let key store v = Option.value ~default:0 (Store.intern_find store (Ipdb_relational.Value.int v)) in
  (* Each load is followed by the first rows_matching per (relation, bound
     position): the index builds a fresh store pays. *)
  let build_indexes store =
    List.iter
      (fun (rel, arity) ->
        let h = Option.get (Store.handle store rel) in
        for pos = 0 to arity - 1 do
          ignore (Store.rows_matching h ~mask:(1 lsl pos) ~key:[| key store 0 |])
        done)
      Kb_wl.relations
  in
  let last = ref None in
  let loads =
    Array.init 3 (fun _ ->
        last := None;
        let l, load_s = Clock.time (fun () -> Kb_wl.load path) in
        let (), index_s = Clock.time (fun () -> build_indexes l.Kbfile.store) in
        last := Some l;
        (float_of_int l.Kbfile.facts, load_s, index_s))
  in
  let loaded = Option.get !last in
  let store = loaded.Kbfile.store in
  let facts = float_of_int loaded.Kbfile.facts in
  Report.add r "kbfile.load_ns_per_fact" "ns" (Array.map (fun (n, s, _) -> s *. 1e9 /. n) loads);
  Report.add r "store.index_build_ms" "ms" (Array.map (fun (_, _, s) -> s *. 1e3) loads);
  (* The same facts added from memory: the difference is parse cost. *)
  let rows = ref [] in
  Store.iter store (fun rel args p -> rows := (rel, args, p) :: !rows);
  let rows = Array.of_list (List.rev !rows) in
  let add () = let st = Store.create Kb_wl.relations in Array.iter (fun (rel, args, p) -> ignore (Store.add st ~rel args p)) rows in
  Report.add r "store.add_ns_per_fact" "ns" (Array.init 3 (fun _ -> snd (Clock.time add) *. 1e9 /. facts));
  let r_handle = Option.get (Store.handle store "R") in
  let ids = Array.init 256 (fun v -> key store v) in
  Report.add r "store.probe_ns" "ns" (per_call (cycle ids (fun id -> ignore (Sys.opaque_identity (Store.rows_matching r_handle ~mask:1 ~key:[| id |])))));
  let queries = Kb_wl.battery ~seed ~smoke in
  let kind k = List.filter (fun q -> q.Kb_wl.kind = k) queries in
  let query_s ?pool qs = snd (Clock.time (fun () -> List.iter (fun q -> ignore (Kb_wl.eval ?pool store q)) qs)) /. float_of_int (List.length qs) in
  let project = kind "project" in
  with_pool Proc.jobs (fun pool ->
      ignore (Kb_wl.run_battery ~pool store queries);
      List.iter
        (fun k -> Report.add r ("lifted.query_ms." ^ k) "ms" (ms (Array.init 3 (fun _ -> query_s ~pool (kind k)))))
        [ "project"; "join"; "union"; "point"; "ground" ];
      counting (fun () -> ignore (query_s ~pool project));
      let candidates = counter "kb.query.candidates" in
      let project_ns = 1e9 *. median (Array.init 3 (fun _ -> query_s ~pool project)) in
      Report.point r "lifted.ns_per_candidate" "ns" ~note:(Printf.sprintf "%.0f candidates" candidates) (project_ns /. Float.max 1.0 candidates);
      let one = with_pool 1 (fun p1 -> median (Array.init 3 (fun _ -> query_s ~pool:p1 project))) in
      Report.point r "par.pool_ratio.kb" "ratio" ~note:(Report.pool_note ()) (project_ns /. 1e9 /. one));
  loaded

(* ------------------------------------------------------------------ *)
(* The workload's own replay                                            *)
(* ------------------------------------------------------------------ *)

let kb_counts = [ "kb.query.candidates"; "kb.query.subsets"; "kb.index.builds" ]

(* After one warmup pass, alternate untraced and traced passes of [pass]
   (which returns the per-unit seconds it measured); the traced spans are
   kept. *)
let overhead ~reps pass =
  ignore (pass ());
  Spans.reset ();
  let untraced = ref [] and traced = ref [] in
  for _ = 1 to reps do
    untraced := median (pass ()) :: !untraced;
    Spans.on := true;
    traced := median (Fun.protect ~finally:(fun () -> Spans.on := false) pass) :: !traced
  done;
  median (Array.of_list !traced) /. median (Array.of_list !untraced)

type own = { ratio : float; counts : (string * float) list }

let own_series ~observed ~seed ~smoke =
  let jobs = Series_wl.batch ~seed ~smoke and variants = Series_wl.variants_of ~observed in
  with_pool Proc.jobs @@ fun pool ->
  let pass () = [| snd (Clock.time (fun () -> ignore (Series_wl.replay ~pool ~variants jobs))) |] in
  let ratio = overhead ~reps:3 pass in
  let spans = Spans.all () in
  counting (fun () -> ignore (Series_wl.replay ~pool ~variants jobs));
  Spans.recorded := List.rev spans;
  { ratio; counts = [ ("series.terms", counter "series.terms"); ("pool.tasks", counter "pool.tasks") ] }

(* serve-hot replays without a kb, serve-cold with its own. *)
let own_serve ~seed ~smoke ~kb =
  let is_hot = Option.is_none kb in
  let n = if smoke then 20 else if is_hot then 2000 else 300 in
  let warm = if is_hot then Serve_wl.hot_keys ~seed else [||] in
  let gen = Serve_wl.cold_gen ~seed ~kb_path:"" in
  let hot_stream = Serve_wl.hot_draw ~seed n in
  let keys () = if is_hot then hot_stream else Array.init n (fun _ -> Serve_wl.next_cold gen) in
  (* Counts on a pipeline of their own, so they depend on the seed only. *)
  let p = Serve_wl.pipeline ~kb in
  ignore (Serve_wl.replay p ~warm ~keys:[||]);
  let first = keys () in
  let hits0 = Cache.hits p.Serve_wl.cache and misses0 = Cache.misses p.Serve_wl.cache in
  counting (fun () -> ignore (Serve_wl.replay p ~warm:[||] ~keys:first));
  let fsyncs = counter "journal.fsyncs" and kbc = List.map (fun c -> (c, counter c)) kb_counts in
  let hits = Cache.hits p.Serve_wl.cache - hits0 and misses = Cache.misses p.Serve_wl.cache - misses0 in
  let disk = float_of_int (Serve_wl.disk_bytes p) in
  Serve_wl.close_pipeline p;
  let q = Serve_wl.pipeline ~kb in
  ignore (Serve_wl.replay q ~warm ~keys:[||]);
  let ratio = overhead ~reps:3 (fun () -> Serve_wl.replay q ~warm:[||] ~keys:(keys ())) in
  Serve_wl.close_pipeline q;
  let per = float_of_int (Array.length first) in
  {
    ratio;
    counts =
      [
        ("journal.fsyncs_per_req", fsyncs /. per);
        ("disk_bytes_per_req", disk /. per);
        ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ]
      @ kbc;
  }

let own_kb ~seed ~smoke ~path =
  let queries = Kb_wl.battery ~seed ~smoke in
  with_pool Proc.jobs @@ fun pool ->
  let sample () =
    Spans.with_span "sample" (fun () ->
        let l = Spans.with_span "kbfile.load" (fun () -> Kb_wl.load path) in
        ignore (Kb_wl.run_battery ~pool l.Kbfile.store queries))
  in
  let ratio = overhead ~reps:2 (fun () -> [| snd (Clock.time sample) |]) in
  let spans = Spans.all () in
  counting (fun () -> ignore (Kb_wl.run_battery ~pool (Kb_wl.load path).Kbfile.store queries));
  Spans.recorded := List.rev spans;
  { ratio; counts = ("pool.tasks", counter "pool.tasks") :: List.map (fun c -> (c, counter c)) kb_counts }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* Measured over loopback TCP, so absent where it is unavailable. *)
let tcp_metrics = [ "client.connect_us.p50"; "serve.unattributed_us.p50"; "gen.lateness_ms.p99" ]

let count_names =
  [ "series.terms"; "pool.tasks"; "journal.fsyncs_per_req"; "disk_bytes_per_req"; "cache.hit_ratio" ] @ kb_counts

let run (r : Report.t) ~workload ~seed ~smoke ~spans_out =
  let kb_path = Filename.concat (Proc.fresh_dir "kb") "kb.ipdbkb1" in
  Kb_wl.write_kb ~seed ~facts:(Kb_wl.facts ~smoke) kb_path;
  let serve_kb () =
    let path = Filename.concat (Proc.fresh_dir "kb") "serve.ipdbkb1" in
    Kb_wl.write_kb ~seed ~facts:(Serve_wl.kb_facts ~smoke) path;
    let l = Kb_wl.load path in
    (l.Kbfile.store, l.Kbfile.digest)
  in
  let own =
    match workload with
    | "series-fast" -> own_series ~observed:false ~seed ~smoke
    | "series-observed" -> own_series ~observed:true ~seed ~smoke
    | "serve-hot" -> own_serve ~seed ~smoke ~kb:None
    | "serve-cold" -> own_serve ~seed ~smoke ~kb:(Some (serve_kb ()))
    | _ -> own_kb ~seed ~smoke ~path:kb_path
  in
  Spans.write_jsonl spans_out;
  Report.point r "trace.overhead_ratio" "ratio" ~note:"traced / untraced replay" own.ratio;
  let attributed = Spans.attributed_ratio () in
  Report.point r "trace.attributed_ratio" "ratio" ~note:"share of root spans covered by layer spans" attributed;
  (* In-process replays must account for their time; a serve request's
     remainder is the harness's own bookkeeping and is reported as is. *)
  if not (Serve_wl.is_serve workload) then Report.check r "layer spans cover >= 90% of the replay" (attributed >= 0.9);
  List.iter
    (fun name ->
      let unit_ = List.assoc name Report.per_layer in
      Report.point r name unit_ (Option.value ~default:0.0 (List.assoc_opt name own.counts)))
    count_names;
  Spans.reset ();
  (* The layer suite. *)
  bignum r ~seed;
  series r ~smoke;
  core r ~seed ~smoke;
  journal r ~smoke;
  logic r ~seed ~smoke;
  let loaded = kb r ~seed ~smoke ~path:kb_path in
  serve r ~seed ~smoke ~kb:(loaded.Kbfile.store, loaded.Kbfile.digest)
