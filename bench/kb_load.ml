(* Knowledge-base scale benchmark: streaming ingest throughput, exact
   marginal lookup latency, and lifted UCQ query latency at 10^3 → 10^6
   facts, plus a lifted-vs-enumeration agreement sweep on instances small
   enough to enumerate — the JSON consumed by BENCH_PR8.json.

   Usage: kb_load.exe [-o FILE] [--max-facts N] [--seed N] [--jobs N] *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Fo = Ipdb_logic.Fo
module Ti = Ipdb_pdb.Ti
module Pqe = Ipdb_pdb.Pqe
module Generate = Ipdb_pdb.Generate
module Budget = Ipdb_run.Budget
module Pool = Ipdb_par.Pool
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile
module Lifted = Ipdb_kb.Lifted

let out_file = ref "BENCH_PR8.json"
let max_facts = ref 1_000_000
let seed = ref 42
let jobs = ref 4

let () =
  Arg.parse
    [
      ("-o", Arg.Set_string out_file, "FILE output path (default BENCH_PR8.json)");
      ("--max-facts", Arg.Set_int max_facts, "N largest kb size, in facts (default 1000000)");
      ("--seed", Arg.Set_int seed, "N generator seed (default 42)");
      ("--jobs", Arg.Set_int jobs, "N worker domains for the parallel query runs (default 4)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "kb_load [-o FILE] [--max-facts N] [--seed N] [--jobs N]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("kb_load: " ^ m); exit 1) fmt
let relations = [ ("R", 2); ("S", 2); ("T", 1) ]
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Agreement sweep: lifted = world enumeration on tiny instances        *)
(* ------------------------------------------------------------------ *)

(* A fixed battery of closed PE queries: safe shapes (per-CQ hierarchical),
   an unsafe one (self-join) to confirm the engine refuses rather than
   approximates, unions, and constants. *)
let agreement_queries =
  let v x = Fo.V x and c n = Fo.C (Value.int n) in
  let ex x b = Fo.Exists (x, b) in
  [
    ex "x" (ex "y" (Fo.Atom ("R", [ v "x"; v "y" ])));
    ex "x" (Fo.Atom ("T", [ v "x" ]));
    ex "x" (ex "y" (Fo.And (Fo.Atom ("R", [ v "x"; v "y" ]), Fo.Atom ("T", [ v "x" ]))));
    ex "x" (Fo.And (Fo.Atom ("T", [ v "x" ]), ex "y" (Fo.Atom ("S", [ v "x"; v "y" ]))));
    Fo.Or (ex "x" (Fo.Atom ("T", [ v "x" ])), ex "x" (ex "y" (Fo.Atom ("S", [ v "x"; v "y" ]))));
    ex "x" (Fo.Atom ("R", [ v "x"; c 0 ]));
    Fo.Atom ("T", [ c 1 ]);
    Fo.Or (Fo.Atom ("T", [ c 0 ]), Fo.And (Fo.Atom ("T", [ c 0 ]), Fo.Atom ("T", [ c 1 ])));
    (* unsafe: R joined with itself on a rotated key *)
    ex "x" (ex "y" (Fo.And (Fo.Atom ("R", [ v "x"; v "y" ]), Fo.Atom ("R", [ v "y"; v "x" ]))));
  ]

let agreement_sweep () =
  let checked = ref 0 and matched = ref 0 and unsafe = ref 0 in
  for instance = 0 to 4 do
    let rng = Generate.rng (!seed + instance) in
    let schema = Schema.make relations in
    let ti = Generate.ti rng ~schema ~facts:8 ~universe:3 in
    let store = Store.of_ti ti in
    List.iter
      (fun phi ->
        match Pqe.ucq_of_formula phi with
        | None -> die "agreement query is not a UCQ"
        | Some ucq -> (
            incr checked;
            let exact = Pqe.boolean_probability_exact ti phi in
            match Lifted.ucq_probability store ucq with
            | Ok (Some p) -> if Q.equal p exact then incr matched else die "lifted disagrees with enumeration on %s" (Fo.to_string phi)
            | Ok None -> incr unsafe
            | Error e -> die "lifted errored: %s" (Ipdb_run.Error.message e)))
      agreement_queries
  done;
  (!checked, !matched, !unsafe)

(* ------------------------------------------------------------------ *)
(* Scale ladder                                                        *)
(* ------------------------------------------------------------------ *)

type scale = {
  facts : int;
  write_s : float;
  file_bytes : int;
  ingest_s : float;
  ingest_facts_per_s : float;
  marginal_ns : float;
  query_ms : float;
  query_par_ms : float;
  query_steps : int;
}

let universe_for facts =
  (* keep the fact space ~8x the request so Floyd sampling stays sparse *)
  let rec grow u = if (2 * u * u) + u >= 8 * facts then u else grow (2 * u) in
  grow 64

let run_scale pool n =
  let path = Filename.temp_file "ipdb_kb_load" ".kb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let universe = universe_for n in
  let stream = Generate.kb_stream (Generate.rng !seed) ~relations ~facts:n ~universe in
  let t0 = now () in
  (match Kbfile.write ~path ~relations stream with
  | Ok written when written = n -> ()
  | Ok written -> die "generator wrote %d facts, wanted %d" written n
  | Error e -> die "write failed: %s" (Ipdb_run.Error.message e));
  let write_s = now () -. t0 in
  let file_bytes = (Unix.stat path).Unix.st_size in
  let t1 = now () in
  let loaded =
    match Kbfile.load path with Ok l -> l | Error e -> die "load failed: %s" (Ipdb_run.Error.message e)
  in
  let ingest_s = now () -. t1 in
  let store = loaded.Kbfile.store in
  if Store.fact_count store + loaded.Kbfile.zero_dropped <> n then
    die "ingest lost facts: %d + %d <> %d" (Store.fact_count store) loaded.Kbfile.zero_dropped n;

  (* Marginal lookups: existing facts, round-robin over the relations. *)
  let probes = ref [] in
  let budget_probe = 2048 in
  let count = ref 0 in
  (try
     Store.iter store (fun rel args _ ->
         incr count;
         if !count land 63 = 0 && List.length !probes < budget_probe then probes := (rel, args) :: !probes)
   with Exit -> ());
  let probes = Array.of_list !probes in
  let t2 = now () in
  Array.iter (fun (rel, args) -> ignore (Store.marginal store ~rel args)) probes;
  let marginal_ns =
    if Array.length probes = 0 then 0.0 else (now () -. t2) *. 1e9 /. float_of_int (Array.length probes)
  in

  (* Lifted query: the workhorse safe shape — independent project over the
     first column of R, one budget step per root candidate. *)
  let phi = Fo.Exists ("x", Fo.Exists ("y", Fo.Atom ("R", [ Fo.V "x"; Fo.V "y" ]))) in
  let timed ?pool () =
    let budget = Budget.make ~max_steps:(8 * n) () in
    let t = now () in
    match Lifted.query ?pool ~budget store phi with
    | Ok (Lifted.Exact p) -> ((now () -. t) *. 1e3, Budget.steps_used budget, p)
    | Ok (Lifted.Estimated _) -> die "safe query fell back to sampling"
    | Error e -> die "query failed: %s" (Ipdb_run.Error.message e)
  in
  let query_ms, query_steps, p_serial = timed () in
  let query_par_ms, par_steps, p_par = timed ~pool () in
  if not (Q.equal p_serial p_par) then die "parallel marginal differs from serial";
  if query_steps <> par_steps then die "parallel steps %d differ from serial %d" par_steps query_steps;
  {
    facts = n;
    write_s;
    file_bytes;
    ingest_s;
    ingest_facts_per_s = float_of_int n /. ingest_s;
    marginal_ns;
    query_ms;
    query_par_ms;
    query_steps;
  }

let () =
  let checked, matched, unsafe = agreement_sweep () in
  let pool = Pool.create ~jobs:!jobs () in
  let sizes =
    let rec up acc n = if n > !max_facts then List.rev acc else up (n :: acc) (n * 10) in
    up [] 1_000
  in
  let sizes = if sizes = [] then [ !max_facts ] else sizes in
  let scales = List.map (run_scale pool) sizes in
  Pool.shutdown pool;
  let scale_json s =
    Printf.sprintf
      {|    {"facts": %d, "write_s": %.3f, "file_bytes": %d, "ingest_s": %.3f, "ingest_facts_per_s": %.0f, "marginal_ns": %.0f, "query_ms": %.3f, "query_par_ms": %.3f, "query_steps": %d}|}
      s.facts s.write_s s.file_bytes s.ingest_s s.ingest_facts_per_s s.marginal_ns s.query_ms s.query_par_ms
      s.query_steps
  in
  let json =
    Printf.sprintf
      {|{
  "bench": "bench/kb_load.exe --max-facts %d --seed %d --jobs %d",
  "agreement": {"queries": %d, "exact_matches": %d, "unsafe_refused": %d},
  "scales": [
%s
  ]
}
|}
      !max_facts !seed !jobs checked matched unsafe
      (String.concat ",\n" (List.map scale_json scales))
  in
  let oc = open_out !out_file in
  output_string oc json;
  close_out oc;
  print_string json
