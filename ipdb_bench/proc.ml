(* Child processes: the CLI found next to the harness in _build, run with
   a scrubbed environment, and daemons that are always reaped. *)

external wait4 : int -> int * int = "ipdb_bench_wait4"

(* Every invocation pins this many worker domains: the benchmark host's
   core count when the workloads were defined. *)
let jobs = 2

let main_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat Filename.parent_dir_name "bin/main.exe")

(* The program must not inherit worker counts or the reference-arithmetic
   switch from whoever runs the benchmark; only the reference check sets
   the latter, explicitly. *)
let env ?(reference = false) () =
  let keep kv =
    not (String.starts_with ~prefix:"IPDB_JOBS=" kv || String.starts_with ~prefix:"IPDB_ARITH_REFERENCE=" kv)
  in
  let base = List.filter keep (Array.to_list (Unix.environment ())) in
  Array.of_list (if reference then "IPDB_ARITH_REFERENCE=1" :: base else base)

(* Live children, killed and reaped at exit whatever path leads there. *)
let live : int list ref = ref []

(* Wait for a child: its exit code (128 + signal when killed) and its
   peak resident set in KiB. *)
let reap pid =
  let r = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  r

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

let spawn ?reference ?(stderr = "/dev/null") args ~stdout =
  let err = Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let exe = main_exe () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close err) @@ fun () ->
    Unix.create_process_env exe (Array.of_list (exe :: args)) (env ?reference ()) Unix.stdin stdout err
  in
  live := pid :: !live;
  pid

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

type result = { code : int; out : string; secs : float; rss_kb : int }

(* Run the CLI to completion: exit code, stdout, wall time from spawn to
   reap on the monotonic clock, and the process's peak resident set. *)
let run ?reference args =
  let t0 = Clock.now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = try spawn ?reference args ~stdout:w with e -> Unix.close r; Unix.close w; raise e in
  Unix.close w;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let code, rss_kb = reap pid in
  { code; out; secs = Clock.now () -. t0; rss_kb }

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ()

(* ------------------------------------------------------------------ *)
(* Scratch space                                                       *)
(* ------------------------------------------------------------------ *)

(* Everything the benchmark writes lives under .ipdb_bench/ in the
   directory it runs from; a run's scratch directory is removed at exit. *)
let root = ".ipdb_bench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let scratch =
  lazy
    (mkdir_p root;
     let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf dir;
     Unix.mkdir dir 0o755;
     let owner = Unix.getpid () in
     at_exit (fun () -> if Unix.getpid () = owner then rm_rf dir);
     dir)

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d = Filename.concat (Lazy.force scratch) (Printf.sprintf "%s-%d" name !n) in
    Unix.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* Daemons                                                             *)
(* ------------------------------------------------------------------ *)

(* [out] is the read end of the daemon's stdout. It stays open until the
   daemon is reaped: closing it early would kill the daemon with SIGPIPE
   on its shutdown lines, before it checkpoints its cache. *)
type daemon = { pid : int; port : int; dir : string; startup_s : float; out : Unix.file_descr }

exception Startup of string

let listening_port s =
  let tag = "listening on 127.0.0.1:" in
  let n = String.length tag in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = tag then Scanf.sscanf_opt (String.sub s (i + n) (String.length s - i - n)) "%d" Fun.id
    else find (i + 1)
  in
  if String.contains s '\n' then find 0 else None

(* Spawn `ipdb serve` in [dir] and wait for its `listening` line;
   [startup_s] is spawn to that line, the time until it can answer. *)
let start_daemon ~dir args =
  let t0 = Clock.now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ("serve" :: "--port" :: "0" :: args) ~stdout:w ~stderr:(Filename.concat dir "daemon.err") in
  Unix.close w;
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let deadline = t0 +. 60.0 in
  let rec await () =
    let s = Buffer.contents buf in
    match listening_port s with
    | Some port -> port
    | None ->
        let left = deadline -. Clock.now () in
        if left <= 0.0 then raise (Startup "daemon did not report listening within 60s");
        (match Unix.select [ r ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read r chunk 0 (Bytes.length chunk) with
            | 0 -> raise (Startup ("daemon exited before listening: " ^ s))
            | k -> Buffer.add_subbytes buf chunk 0 k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        await ()
  in
  match await () with
  | port -> { pid; port; dir; startup_s = Clock.now () -. t0; out = r }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid);
      Unix.close r;
      raise e

(* Graceful stop: SIGTERM drains, checkpoints the cache, closes the
   journal; then reap. Its last lines (a few dozen bytes) fit the pipe. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap d.pid);
  Unix.close d.out

(* Can this host bind and reach a loopback TCP port? The serve workloads
   need it; the smoke run skips them without it, as the wire contract
   tests do. *)
let loopback_ok () =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | s ->
      Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
      try
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen s 1;
        let addr = Unix.getsockname s in
        let c = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close c) (fun () -> Unix.connect c addr);
        true
      with Unix.Unix_error _ -> false
