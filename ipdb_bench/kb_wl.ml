(* The kb-scale workload: what `ipdb kb query` runs, minus the re-ingest
   per call. Each sample loads a seeded 2·10⁵-fact R/2, S/2, T/1 kb from
   disk and runs a fixed battery of lifted queries on the pool; ingest,
   index builds, lifted plans and the inclusion–exclusion fold are all
   that runs. *)

module Q = Ipdb_bignum.Q
module Parser = Ipdb_logic.Parser
module Pqe = Ipdb_pdb.Pqe
module Ti = Ipdb_pdb.Ti
module Generate = Ipdb_pdb.Generate
module Budget = Ipdb_run.Budget
module Pool = Ipdb_par.Pool
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile
module Lifted = Ipdb_kb.Lifted

let relations = [ ("R", 2); ("S", 2); ("T", 1) ]
let universe = 1024

let facts ~smoke = if smoke then 2_000 else 200_000

(* Write the seeded kb; its content depends on the seed only. *)
let write_kb ~seed ~facts path =
  let stream = Generate.kb_stream (Generate.rng seed) ~relations ~facts ~universe in
  match Kbfile.write ~path ~relations stream with
  | Ok n when n = facts -> ()
  | Ok n -> failwith (Printf.sprintf "kb generator wrote %d facts, wanted %d" n facts)
  | Error e -> failwith ("kb write: " ^ Ipdb_run.Error.message e)

let load path =
  match Kbfile.load path with Ok l -> l | Error e -> failwith ("kb load: " ^ Ipdb_run.Error.message e)

type query = { kind : string; text : string }

(* The battery: three shapes over whole relations, 64 point lookups and
   64 ground facts at seeded constants, and one self-join the engine must
   refuse rather than approximate. *)
let battery ~seed ~smoke =
  let rng = Random.State.make [| seed; 0x6b |] in
  let n = if smoke then 4 else 64 in
  let consts = Array.init universe Fun.id in
  ignore (Series_wl.shuffle rng consts);
  [
    { kind = "project"; text = "exists x y. R(x,y)" };
    { kind = "join"; text = "exists x y. (R(x,y) & T(x))" };
    { kind = "union"; text = "(exists x. T(x)) | (exists x y. S(x,y))" };
  ]
  @ List.init n (fun i -> { kind = "point"; text = Printf.sprintf "exists y. R(%d,y)" consts.(i) })
  @ List.init n (fun i -> { kind = "ground"; text = Printf.sprintf "T(%d)" consts.(n + i) })
  @ [ { kind = "unsafe"; text = "exists x y. (R(x,y) & R(y,x))" } ]

type answer = Exact of Q.t | Refused | Failed of string

let parse text = match Parser.sentence text with Ok phi -> phi | Error e -> failwith ("parse: " ^ e)

let eval ?pool ?(budget = Budget.unlimited) store q =
  let phi = Spans.with_span "logic.parse" (fun () -> parse q.text) in
  match Spans.with_span ("lifted." ^ q.kind) (fun () -> Lifted.query ?pool ~budget store phi) with
  | Ok (Lifted.Exact p) -> Exact p
  | Ok (Lifted.Estimated _) -> Failed "estimate from an exact-only query"
  | Error (Ipdb_run.Error.Validation _) -> Refused
  | Error e -> Failed (Ipdb_run.Error.message e)

(* A query's answer is right when a safe query gets a probability and the
   self-join is refused; the refusal is expected, not a failure. *)
let answer_ok q = function
  | Exact p -> q.kind <> "unsafe" && Q.is_probability p
  | Refused -> q.kind = "unsafe"
  | Failed _ -> false

let run_battery ?pool store queries =
  List.map (fun q -> let a, secs = Clock.time (fun () -> eval ?pool store q) in (q, a, secs)) queries

(* Every answer and step count with [pool] equals the serial one. *)
let jobs_invariant ~pool store queries =
  List.for_all
    (fun q ->
      let counted ?pool () =
        let budget = Budget.make ~max_steps:max_int () in
        let a = eval ?pool ~budget store q in
        (a, Budget.steps_used budget)
      in
      counted () = counted ~pool ())
    queries

(* Lifted inference agrees with world enumeration on instances small
   enough to enumerate: 5 seeded 8-fact instances × 9 queries. *)
let agreement_queries =
  [
    "exists x y. R(x,y)";
    "exists x. T(x)";
    "exists x y. (R(x,y) & T(x))";
    "exists x. (T(x) & (exists y. S(x,y)))";
    "(exists x. T(x)) | (exists x y. S(x,y))";
    "exists x. R(x,0)";
    "T(1)";
    "T(0) | (T(0) & T(1))";
    "exists x y. (R(x,y) & R(y,x))";
  ]

let agreement_sweep ~seed =
  List.concat_map
    (fun instance ->
      let ti = Generate.ti (Generate.rng (seed + instance)) ~schema:(Ipdb_relational.Schema.make relations) ~facts:8 ~universe:3 in
      let store = Store.create relations in
      List.iter (fun (f, p) -> ignore (Store.add store ~rel:(Ipdb_relational.Fact.rel f) (Array.of_list (Ipdb_relational.Fact.args f)) p)) (Ti.Finite.facts ti);
      List.map
        (fun text ->
          let phi = parse text in
          match Lifted.ucq_probability store (Option.get (Pqe.ucq_of_formula phi)) with
          | Ok (Some p) -> Q.equal p (Pqe.boolean_probability_exact ti phi)
          | Ok None -> text = "exists x y. (R(x,y) & R(y,x))"
          | Error _ -> false)
        agreement_queries)
    (List.init 5 Fun.id)

let run (r : Report.t) ~seed ~seconds ~smoke =
  let path = Filename.concat (Proc.fresh_dir "kb") "kb.ipdbkb1" in
  write_kb ~seed ~facts:(facts ~smoke) path;
  let queries = battery ~seed ~smoke in
  let pool = Pool.create ~jobs:Proc.jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let sample () =
    (* Start every sample from a compacted heap, so a load does not also
       pay for collecting the previous sample's store. *)
    Gc.compact ();
    let loaded, load_s = Clock.time (fun () -> load path) in
    let results, battery_s = Clock.time (fun () -> run_battery ~pool loaded.Kbfile.store queries) in
    (load_s, battery_s, results)
  in
  let samples = Series_wl.sample_for ~seconds ~min_n:(if smoke then 1 else 5) sample in
  List.iter (fun (_, _, results) -> List.iter (fun (q, a, _) -> Report.attempt r ~ok:(answer_ok q a)) results) samples;
  let col f = Array.of_list (List.map f samples) in
  let battery_s = col (fun (_, b, _) -> b) in
  Report.add r "setup_s" "s" ~note:"Kbfile.load" (col (fun (l, _, _) -> l));
  Report.add r "p50_ms" "ms" ~note:"one battery" (Array.map (fun b -> b *. 1e3) battery_s);
  Report.add r "tail_ms" "ms" ~note:"slowest query of the battery"
    (col (fun (_, _, res) -> 1e3 *. List.fold_left (fun a (_, _, s) -> Float.max a s) 0.0 res));
  Report.add r "throughput_per_s" "1/s" ~note:"queries per second"
    (Array.map (fun b -> float_of_int (List.length queries) /. b) battery_s);
  Report.point r "peak_rss_mb" "MiB" ~note:"benchmark process" (Proc.vm_hwm_mb 0);
  (* Untimed checks. *)
  let (_, _, first) = List.hd samples in
  List.iter (fun (q, a, _) -> Report.check r (q.kind ^ ": " ^ q.text) (answer_ok q a)) first;
  List.iter
    (fun (_, _, res) -> Report.check r "answers repeat across samples" (List.map (fun (_, a, _) -> a) res = List.map (fun (_, a, _) -> a) first))
    samples;
  let store = (load path).Kbfile.store in
  Report.check r "answers and step counts at jobs=2 equal jobs=1" (jobs_invariant ~pool store queries);
  Report.check r "lifted equals enumeration on 45 small queries" (List.for_all Fun.id (agreement_sweep ~seed))
