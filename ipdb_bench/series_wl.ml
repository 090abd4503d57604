(* The series workloads: a fixed batch of certified-series CLI jobs, run
   one process at a time (closed loop).

   series-fast runs the batch silent with an unlimited budget, the
   regime where the series engine takes its fast loop; almost all the
   time is bignum, series and core, and no journal, cache, protocol or
   kb code runs, so it is the bypass workload for those layers.
   series-observed runs the same batch under `--max-steps` and under
   `--metrics`, the two flags that force the per-term instrumented loop;
   it is where a cheaper observed loop must show while series-fast stays
   put. *)

module Zoo = Ipdb_core.Zoo
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Figure = Ipdb_core.Figure
module Family = Ipdb_pdb.Family
module Budget = Ipdb_run.Budget
module Metrics = Ipdb_obs.Metrics

type job =
  | Criterion of { family : string; c : int; upto : int }
  | Moments of { family : string; k : int; upto : int option }
  | Classify of string
  | Figures

type variant = Silent | Budgeted | Metered

let variant_name = function Silent -> "silent" | Budgeted -> "budgeted" | Metered -> "metered"

let job_args = function
  | Criterion { family; c; upto } -> [ "criterion"; family; "-c"; string_of_int c; "--upto"; string_of_int upto ]
  | Moments { family; k; upto } ->
      [ "moments"; family; "-k"; string_of_int k ] @ Option.fold ~none:[] ~some:(fun u -> [ "--upto"; string_of_int u ]) upto
  | Classify family -> [ "classify"; family ]
  | Figures -> [ "figures" ]

let job_name job = String.concat " " (job_args job)

(* `figures` takes no budget, so its budgeted variant runs it as is. *)
let args job variant =
  let flags =
    match (variant, job) with
    | Silent, _ | Budgeted, Figures -> []
    | Budgeted, _ -> [ "--max-steps"; "1000000000" ]
    | Metered, _ -> [ "--metrics" ]
  in
  job_args job @ [ "--jobs"; string_of_int Proc.jobs ] @ flags

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The batch. The seed draws the geometric horizon within ±2% of 2·10⁶
   and the job order, so every seed costs the same to within noise and
   seeds can be compared. *)
let batch ~seed ~smoke =
  let rng = Random.State.make [| seed; 0x5e |] in
  let scale n = if smoke then max 10 (n / 100) else n in
  let u = scale (1_960_000 + Random.State.int rng 80_001) in
  let moments family ~upto = List.init 4 (fun i -> Moments { family; k = i + 1; upto = Some (scale upto) }) in
  Array.to_list
    (shuffle rng
       (Array.of_list
          ((Criterion { family = "geometric"; c = 1; upto = u } :: moments "sqrt-growth" ~upto:200_000)
          @ moments "example-3.9" ~upto:10_000
          @ [
              Moments { family = "example-3.5"; k = 2; upto = None };
              Criterion { family = "example-5.5"; c = 1; upto = scale 300 };
            ]
          @ List.map (fun (f, _) -> Classify f) Zoo.all_families
          @ [ Figures ])))

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)
(* ------------------------------------------------------------------ *)

let family name = List.assoc name Zoo.all_families

let exit_of_series = function
  | Criteria.Finite_sum _ -> 0
  | Criteria.Infinite_sum _ -> 1
  | Criteria.Partial _ -> 3
  | Criteria.Invalid_certificate _ -> 4
  | Criteria.Check_failed e -> Ipdb_run.Error.exit_code e

let layer = function
  | Criterion _ -> "core.criterion"
  | Moments _ -> "core.moments"
  | Classify _ -> "core.classify"
  | Figures -> "core.figures"

(* Run one job through the library as the CLI does. Returns the exit code
   the CLI must report and whether the verdict is consistent with the
   paper's expectation for the family (Zoo.expected_in_foti): a
   certified-infinite moment refutes membership (Proposition 3.4), a
   convergent Theorem 5.3 series proves it. *)
let replay_job ~pool ~variant job =
  let budget = match variant with Budgeted -> Budget.make ~max_steps:1_000_000_000 () | _ -> Budget.unlimited in
  let observe f =
    if variant <> Metered || Metrics.enabled () then f ()
    else begin
      Metrics.enable ();
      Fun.protect ~finally:Metrics.disable f
    end
  in
  observe @@ fun () ->
  let series ~cf ~cert ~upto term =
    let upto = min upto cf.Zoo.check_upto in
    fst (Criteria.check_series_resumable ~pool ~budget ~start:cf.Zoo.family.Family.start ~cert ~upto term)
  in
  let expected cf = cf.Zoo.expected_in_foti in
  match job with
  | Criterion { family = f; c; upto } ->
      let cf = family f in
      let v = series ~cf ~cert:(Option.get (cf.Zoo.thm53_cert c)) ~upto (Family.theorem53_term cf.Zoo.family ~c) in
      (exit_of_series v, not (exit_of_series v = 0 && expected cf = Some false))
  | Moments { family = f; k; upto } ->
      let cf = family f in
      let upto = Option.value ~default:2000 upto in
      let v = series ~cf ~cert:(Option.get (cf.Zoo.moment_cert k)) ~upto (Family.moment_term cf.Zoo.family ~k) in
      (exit_of_series v, not (exit_of_series v = 1 && expected cf = Some true))
  | Classify f ->
      let cf = family f in
      let v = Classifier.classify ~pool ~budget ~upto:2000 cf in
      let code = match v with Classifier.Not_in_FOTI _ -> 1 | Classifier.Partial _ -> 3 | _ -> 0 in
      (code, Classifier.agrees_with_paper cf v)
  | Figures ->
      let ok = Figure.all_verified (Figure.figure1 ~pool ()) && Figure.all_verified (Figure.figure4 ~pool ()) in
      ((if ok then 0 else 4), ok)

(* One in-process pass over the batch; per-job seconds and results. With
   spans on, each job is a span under one root "batch" span. *)
let replay ~pool ~variants jobs =
  Spans.with_span "batch" @@ fun () ->
  List.concat
    (List.mapi
       (fun i job ->
         List.map
           (fun variant ->
             let r, secs = Clock.time (fun () -> Spans.with_span ~req:i (layer job) (fun () -> replay_job ~pool ~variant job)) in
             (job, variant, r, secs))
           variants)
       jobs)

(* ------------------------------------------------------------------ *)
(* The CLI batch                                                       *)
(* ------------------------------------------------------------------ *)

type sample = { wall : float; slowest : float; rss_kb : int; outs : (int * string) list }

let run_cli_batch ?reference units =
  let t0 = Clock.now () in
  let results = List.map (fun (job, variant) -> Proc.run ?reference (args job variant)) units in
  {
    wall = Clock.now () -. t0;
    slowest = List.fold_left (fun a (r : Proc.result) -> Float.max a r.secs) 0.0 results;
    rss_kb = List.fold_left (fun a (r : Proc.result) -> max a r.rss_kb) 0 results;
    outs = List.map (fun (r : Proc.result) -> (r.code, r.out)) results;
  }

let variants_of ~observed = if observed then [ Budgeted; Metered ] else [ Silent ]

(* Sample while the clock allows: one warmup, then at least [min_n]. *)
let sample_for ~seconds ~min_n f =
  ignore (f ());
  let t0 = Clock.now () in
  let rec go acc n = if n >= min_n && Clock.now () -. t0 >= seconds then List.rev acc else go (f () :: acc) (n + 1) in
  go [] 0

let run (r : Report.t) ~observed ~seed ~seconds ~smoke =
  let jobs = batch ~seed ~smoke in
  let variants = variants_of ~observed in
  let units = List.concat_map (fun j -> List.map (fun v -> (j, v)) variants) jobs in
  (* Set-up: the time until the CLI can answer at all. *)
  let setup =
    Array.init (if smoke then 3 else 40) (fun _ ->
        let v = Proc.run [ "version" ] in
        Report.attempt r ~ok:(v.code = 0);
        v.secs)
  in
  let samples = sample_for ~seconds ~min_n:(if smoke then 1 else 5) (fun () -> run_cli_batch units) in
  (* The exit code each unit must report, from the library itself;
     computed after the timing, so the harness is still small while it
     spawns the timed processes. *)
  let pool = Ipdb_par.Pool.create ~jobs:Proc.jobs () in
  let expected =
    Fun.protect ~finally:(fun () -> Ipdb_par.Pool.shutdown pool) @@ fun () ->
    List.map
      (fun (job, variant, (code, consistent), _) ->
        Report.check r (Printf.sprintf "%s agrees with the paper" (job_name job)) consistent;
        ((job, variant), code))
      (replay ~pool ~variants jobs)
  in
  let first = List.hd samples in
  List.iter
    (fun s ->
      List.iter2
        (fun ((job, variant), want) (code, _) ->
          Report.attempt r ~ok:(code = want);
          if code <> want then
            Report.check r (Printf.sprintf "%s (%s) exits %d, not %d" (job_name job) (variant_name variant) code want) false)
        expected s.outs;
      Report.check r "every sample prints the same bytes" (s.outs = first.outs))
    samples;
  let wall = Array.of_list (List.map (fun s -> s.wall) samples) in
  Report.add r "setup_s" "s" setup;
  Report.add r "p50_ms" "ms" (Array.map (fun w -> w *. 1e3) wall);
  Report.add r "tail_ms" "ms" ~note:"slowest job of the batch" (Array.of_list (List.map (fun s -> s.slowest *. 1e3) samples));
  Report.add r "throughput_per_s" "1/s" ~note:"CLI jobs per second" (Array.map (fun w -> float_of_int (List.length units) /. w) wall);
  Report.point r "peak_rss_mb" "MiB" ~note:"largest CLI process"
    (float_of_int (List.fold_left (fun a s -> max a s.rss_kb) 0 samples) /. 1024.0);
  (* Untimed checks: an observed run prints what a silent one prints, and
     the reference arithmetic prints it too. *)
  let silent = List.map (fun job -> (job, Proc.run (args job Silent))) jobs in
  if observed then
    List.iter2
      (fun (job, variant) (_, out) ->
        let _, (s : Proc.result) = List.find (fun (j, _) -> j == job) silent in
        Report.check r (Printf.sprintf "%s (%s) stdout equals silent" (job_name job) (variant_name variant)) (out = s.out))
      units first.outs;
  List.iter
    (fun (job, (s : Proc.result)) ->
      let ref_ = Proc.run ~reference:true (args job Silent) in
      Report.check r (Printf.sprintf "%s stdout under IPDB_ARITH_REFERENCE=1" (job_name job)) (ref_.out = s.out && ref_.code = s.code))
    silent
