(* ipdb_bench — the repository's benchmark (README.md).

     ipdb_bench run <workload|all> --seed N [--seconds S] [--json FILE] [--smoke]
     ipdb_bench trace <workload> --seed N --out FILE [--smoke]
     ipdb_bench --workload W --seed N --seconds S --trace 0|1

   `run` measures a workload with the program's tracing and metrics off,
   checks its outputs, and prints `workload metric unit median q1 q3 n`
   lines; `trace` is the traced run with per-layer metrics and a span
   file. The third form is BENCHMARK.json's command (`--trace 1` is
   `trace`, spans going under .ipdb_bench/). The last line of stdout is
   always one JSON object: correct, attempted, failed and the metrics.
   Exit status: 0 when every check passed, 1 when one failed, 2 on usage
   errors, 77 when a serve workload cannot reach loopback TCP. *)

open Bench_core

let workloads = [ "series-fast"; "series-observed"; "serve-hot"; "serve-cold"; "kb-scale" ]
let default_seconds = 15.0

let usage () =
  prerr_string
    "usage: ipdb_bench run <workload|all> --seed N [--seconds S] [--json FILE] [--smoke]\n\
    \       ipdb_bench trace <workload> --seed N --out FILE [--smoke]\n\
    \       ipdb_bench --workload W --seed N --seconds S --trace 0|1\n\
     workloads: ";
  prerr_endline (String.concat ", " workloads);
  exit 2

let skip_code = 77

let write_json path j =
  Out_channel.with_open_text path (fun oc -> output_string oc (Ipdb_obs.Json.to_string j ^ "\n"))

(* One workload in this process. *)
let run_one ~workload ~seed ~seconds ~smoke ~traced ~json ~spans_out =
  if Serve_wl.is_serve workload && not (Proc.loopback_ok ()) then begin
    Printf.eprintf "ipdb_bench: %s: SKIP (no loopback TCP)\n%!" workload;
    exit skip_code
  end;
  let r = Report.create ~workload ~seed in
  (try
     if not traced then
       match workload with
       | "series-fast" -> Series_wl.run r ~observed:false ~seed ~seconds ~smoke
       | "series-observed" -> Series_wl.run r ~observed:true ~seed ~seconds ~smoke
       | "serve-hot" -> Serve_wl.run r Serve_wl.hot ~seed ~seconds ~smoke
       | "serve-cold" -> Serve_wl.run r Serve_wl.cold ~seed ~seconds ~smoke
       | _ -> Kb_wl.run r ~seed ~seconds ~smoke
   with e -> Report.check r ("raised " ^ Printexc.to_string e) false);
  (* A smoke run is both runs at toy sizes, so every metric name shows. *)
  (if traced || smoke then
     try Layers.run r ~workload ~seed ~smoke ~spans_out
     with e -> Report.check r ("trace raised " ^ Printexc.to_string e) false);
  List.iter print_endline (Report.lines r);
  Option.iter (fun path -> write_json path (Report.records_json r)) json;
  let declared =
    (if traced then [] else Report.end_to_end)
    @ if traced || smoke then List.filter (fun (n, _) -> Proc.loopback_ok () || not (List.mem n Layers.tcp_metrics)) Report.per_layer else []
  in
  print_endline (Ipdb_obs.Json.to_string (Report.result_json r ~declared));
  exit (if Report.correct r then 0 else 1)

(* `run all`: each workload in a fresh child process, so heap, memo
   tables, kb indexes and peak RSS do not carry over between workloads. *)
let run_all ~seed ~seconds ~smoke ~json =
  let dir = Proc.fresh_dir "all" in
  let results =
    List.map
      (fun w ->
        let out = Filename.concat dir (w ^ ".json") in
        let args =
          [ Sys.executable_name; "run"; w; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--json"; out ]
          @ if smoke then [ "--smoke" ] else []
        in
        let pid = Unix.create_process_env Sys.executable_name (Array.of_list args) (Proc.env ()) Unix.stdin Unix.stdout Unix.stderr in
        Proc.live := pid :: !Proc.live;
        let code, _ = Proc.reap pid in
        (w, code, out))
      workloads
  in
  let runs = List.filter_map (fun (_, code, out) -> if code = 0 || code = 1 then Some out else None) results in
  let skipped = List.filter_map (fun (w, code, _) -> if code = skip_code then Some w else None) results in
  let failed = List.filter_map (fun (w, code, _) -> if code <> 0 && code <> skip_code then Some w else None) results in
  Option.iter
    (fun path ->
      let module J = Ipdb_obs.Json in
      let load f = match J.parse (In_channel.with_open_text f In_channel.input_all) with Ok j -> j | Error e -> J.String e in
      write_json path
        (J.Obj
           [
             ("seed", J.Int seed);
             ("runs", J.List (List.map load runs));
             ("skipped", J.List (List.map (fun w -> J.String w) skipped));
             ("failed", J.List (List.map (fun w -> J.String w) failed));
           ]))
    json;
  List.iter (fun w -> Printf.printf "all %s SKIP\n" w) skipped;
  if failed <> [] then begin
    Printf.printf "all failed: %s\n" (String.concat ", " failed);
    exit 1
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | "--smoke" :: rest -> flags (("--smoke", "") :: acc) rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f -> flags ((f, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let mode, positional, rest =
    match argv with
    | ("run" | "trace") as m :: w :: rest -> (m, w, rest)
    | _ -> ("command", "", argv)
  in
  let fl = flags [] rest in
  let get f = List.assoc_opt f fl in
  let int f = match Option.map int_of_string_opt (get f) with Some (Some n) -> Some n | _ -> None in
  let seed = match int "--seed" with Some s -> s | None -> usage () in
  let seconds = match get "--seconds" with None -> default_seconds | Some s -> ( match float_of_string_opt s with Some x when x > 0.0 -> x | _ -> usage ()) in
  let smoke = get "--smoke" <> None in
  (* A smoke run checks names, units and correctness, not speed. *)
  let seconds = if smoke then Float.min seconds 0.2 else seconds in
  let json = get "--json" in
  let workload w = if List.mem w workloads then w else usage () in
  match mode with
  | "run" when positional = "all" ->
      run_all ~seed ~seconds ~smoke ~json
  | "run" -> run_one ~workload:(workload positional) ~seed ~seconds ~smoke ~traced:false ~json ~spans_out:(Filename.concat (Lazy.force Proc.scratch) "spans.jsonl")
  | "trace" -> (
      match get "--out" with
      | Some out -> run_one ~workload:(workload positional) ~seed ~seconds ~smoke ~traced:true ~json ~spans_out:out
      | None -> usage ())
  | _ ->
      let w = workload (Option.value ~default:"" (get "--workload")) in
      let traced = match int "--trace" with Some 0 -> false | Some 1 -> true | _ -> usage () in
      if get "--seconds" = None then usage ();
      let spans_out = Filename.concat Proc.root (Printf.sprintf "trace-%s-seed%d.jsonl" w seed) in
      Proc.mkdir_p Proc.root;
      run_one ~workload:w ~seed ~seconds ~smoke ~traced ~json ~spans_out
