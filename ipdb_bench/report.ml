(* One workload run's metrics, checks and operation counts, printed as
   `workload metric unit median q1 q3 n` lines and as JSON. *)

module J = Ipdb_obs.Json

(* The metric names BENCHMARK.json declares, with their units. Every
   workload emits all of them: the end-to-end set on an untraced run, the
   per-layer set on a traced one (the smoke test holds the file and this
   list together). *)
let end_to_end = [ ("setup_s", "s"); ("p50_ms", "ms"); ("throughput_per_s", "1/s"); ("peak_rss_mb", "MiB") ]

let bignum_sizes = [ "small"; "edge"; "big" ]

let per_layer =
  List.concat
    [
      List.map (fun s -> ("bignum.q_add_ns." ^ s, "ns")) bignum_sizes;
      List.map (fun s -> ("bignum.q_mul_ns." ^ s, "ns")) bignum_sizes;
      [ ("bignum.q_compare_ns.filtered", "ns"); ("bignum.q_compare_ns.straddle", "ns") ];
      [ ("bignum.nat_mul_ns.24l", "ns"); ("bignum.nat_mul_ns.64l", "ns") ];
      [ ("bignum.nat_mul_classical_ns.24l", "ns"); ("bignum.nat_mul_classical_ns.64l", "ns") ];
      List.map (fun s -> ("series.ns_per_term." ^ s, "ns")) [ "fast"; "pooled"; "budgeted"; "metered" ];
      [ ("series.terms", "count") ];
      List.map (fun s -> ("core." ^ s ^ "_ms", "ms")) [ "classify"; "criterion"; "moments"; "figures" ];
      [ ("cli.overhead_ms", "ms") ];
      [ ("par.pool_ratio.series", "ratio"); ("par.pool_ratio.kb", "ratio"); ("pool.tasks", "count") ];
      [ ("journal.append_us.p50", "us"); ("journal.append_us.p99", "us"); ("journal.fsyncs_per_req", "count") ];
      [ ("checkpoint.cache_save_ms", "ms"); ("disk_bytes_per_req", "bytes") ];
      [ ("obs.counter_ns.enabled", "ns") ];
      [ ("logic.parse_us", "us"); ("pqe.ucq_us", "us") ];
      [ ("protocol.encode_ns", "ns"); ("protocol.decode_ns", "ns"); ("protocol.render_ns", "ns") ];
      [ ("cache.find_hit_ns", "ns"); ("cache.put_ns", "ns"); ("cache.hit_ratio", "ratio") ];
      [ ("client.connect_us.p50", "us") ];
      [ ("serve.engine_ms.p50", "ms"); ("serve.engine_ms.p99", "ms") ];
      [ ("serve.stage_sum_us.p50", "us"); ("serve.unattributed_us.p50", "us"); ("gen.lateness_ms.p99", "ms") ];
      [ ("kbfile.load_ns_per_fact", "ns"); ("store.add_ns_per_fact", "ns"); ("store.index_build_ms", "ms") ];
      List.map (fun s -> ("lifted.query_ms." ^ s, "ms")) [ "project"; "join"; "union"; "point"; "ground" ];
      [ ("lifted.ns_per_candidate", "ns"); ("store.probe_ns", "ns") ];
      [ ("kb.query.candidates", "count"); ("kb.query.subsets", "count"); ("kb.index.builds", "count") ];
      [ ("trace.overhead_ratio", "ratio"); ("trace.attributed_ratio", "ratio") ];
    ]

type metric = { name : string; unit_ : string; s : Stats.summary; note : string }

type t = {
  workload : string;
  seed : int;
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** failed correctness checks *)
}

let create ~workload ~seed = { workload; seed; metrics = []; attempted = 0; failed = 0; failures = [] }

let add ?(note = "") r name unit_ samples =
  if Array.length samples = 0 then invalid_arg ("Report.add: no samples for " ^ name);
  r.metrics <- { name; unit_; s = Stats.summary samples; note } :: r.metrics

let point ?note r name unit_ v = add ?note r name unit_ [| v |]

(* Count one operation of the workload; a failed or refused one is
   also a failure. *)
let attempt r ~ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

let check r name ok =
  if not ok then begin
    r.failures <- name :: r.failures;
    Printf.eprintf "ipdb_bench: %s: check failed: %s\n%!" r.workload name
  end

let correct r = r.failures = [] && r.failed = 0

(* ------------------------------------------------------------------ *)
(* Host record                                                         *)
(* ------------------------------------------------------------------ *)

let nproc () = Domain.recommended_domain_count ()

let read_line_of path = try In_channel.with_open_text path In_channel.input_line with Sys_error _ -> None

(* The checkout's commit, read from .git without running git; "unknown"
   in a tree that is not a repository. *)
let git_sha () =
  let packed ref_ =
    try
      In_channel.with_open_text ".git/packed-refs" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             match String.split_on_char ' ' l with [ sha; r ] when r = ref_ -> Some sha | _ -> None)
    with Sys_error _ -> None
  in
  match read_line_of ".git/HEAD" with
  | Some l when String.starts_with ~prefix:"ref: " l -> (
      let ref_ = String.sub l 5 (String.length l - 5) in
      match read_line_of (Filename.concat ".git" ref_) with
      | Some sha -> sha
      | None -> Option.value ~default:"unknown" (packed ref_))
  | Some sha when String.length sha >= 40 -> sha
  | _ -> "unknown"

let host () =
  [
    ("nproc", J.Int (nproc ()));
    ("ocaml", J.String Sys.ocaml_version);
    ("git_sha", J.String (git_sha ()));
    ("jobs", J.Int Proc.jobs);
  ]

(* With fewer cores than workers a pool can only add overhead; the pool
   ratios say so instead of posing as speedups. *)
let pool_note () = if nproc () < Proc.jobs then Printf.sprintf "overhead (nproc=%d < jobs=%d)" (nproc ()) Proc.jobs else ""

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let lines r =
  List.rev_map
    (fun m ->
      Printf.sprintf "%s %s %s %.6g %.6g %.6g %d%s" r.workload m.name m.unit_ m.s.median m.s.q1 m.s.q3 m.s.n
        (if m.note = "" then "" else "  # " ^ m.note))
    r.metrics

let find r name = List.find_opt (fun m -> m.name = name) r.metrics

(* The one-line result: the metrics of [declared] (name, unit) only, by
   their medians. A declared metric the run did not produce is a bug in
   the benchmark and fails the run. *)
let result_json r ~declared =
  let missing = List.filter (fun (n, _) -> find r n = None) declared in
  List.iter (fun (n, _) -> check r ("emits " ^ n) false) missing;
  let metrics =
    List.filter_map
      (fun (n, u) ->
        Option.map (fun m -> (n, J.Obj [ ("value", J.Float m.s.median); ("unit", J.String u) ])) (find r n))
      declared
  in
  J.Obj
    [
      ("correct", J.Bool (correct r));
      ("attempted", J.Int (max 1 r.attempted));
      ("failed", J.Int r.failed);
      ("metrics", J.Obj metrics);
    ]

(* Every record with host and seed, for `--json FILE`. *)
let records_json r =
  J.Obj
    (host ()
    @ [
        ("workload", J.String r.workload);
        ("seed", J.Int r.seed);
        ("correct", J.Bool (correct r));
        ("attempted", J.Int r.attempted);
        ("failed", J.Int r.failed);
        ("failed_checks", J.List (List.rev_map (fun s -> J.String s) r.failures));
        ( "records",
          J.List
            (List.rev_map
               (fun m ->
                 J.Obj
                   [
                     ("metric", J.String m.name);
                     ("unit", J.String m.unit_);
                     ("median", J.Float m.s.median);
                     ("q1", J.Float m.s.q1);
                     ("q3", J.Float m.s.q3);
                     ("n", J.Int m.s.n);
                     ("note", J.String m.note);
                   ])
               r.metrics) );
      ])
