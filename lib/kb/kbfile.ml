(* ipdbkb1 reader/writer. See kbfile.mli for the format contract. *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Env = Ipdb_env.Env
module Run_error = Ipdb_run.Error
module Metrics = Ipdb_obs.Metrics
module Trace = Ipdb_obs.Trace

let format_version = "ipdbkb1"

let m_ingest_facts = Metrics.counter "kb.ingest.facts"
let m_ingest_bytes = Metrics.counter "kb.ingest.bytes"
let m_ingest_general = Metrics.counter "kb.ingest.general_tokens"

type loaded = {
  store : Store.t;
  facts : int;
  zero_dropped : int;
  digest : int64;
  torn_tail : bool;
}

(* FNV-1a/64 (same function as Ioutil.checksum), folded line by line:
   the digest covers complete lines only *)
let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv_fold acc b pos len =
  let h = ref acc in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)))) fnv_prime
  done;
  !h

let value_token v =
  match v with
  | Value.Int n -> Ok (string_of_int n)
  | Value.Bot -> Ok "_"
  | Value.Str s ->
    if s = "" then Error "empty string value has no token"
    else if s = "_" || s.[0] = '_' then Error (Printf.sprintf "string %S would read back as bottom" s)
    else if int_of_string_opt s <> None then Error (Printf.sprintf "string %S would read back as an integer" s)
    else if String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '#') s then
      Error (Printf.sprintf "string %S contains whitespace or #" s)
    else Ok s
  | Value.Pair _ -> Error "pair values have no ipdbkb1 encoding"

let value_of_token tok =
  if tok = "_" then Value.Bot
  else begin
    match int_of_string_opt tok with Some n -> Value.Int n | None -> Value.Str tok
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of Run_error.t

let fail_parse path lineno fmt =
  Printf.ksprintf
    (fun msg -> raise (Bad (Run_error.Parse { what = path; msg = Printf.sprintf "line %d: %s" lineno msg })))
    fmt

let fail_validation path lineno msg =
  raise (Bad (Run_error.Validation { what = path; msg = Printf.sprintf "line %d: %s" lineno msg }))

let is_space c = c = ' ' || c = '\t' || c = '\r'

(* The value of the decimal digits [b.[lo .. hi-1]], or -1 unless there
   are 1 to 18 of them, so that the value fits a native int. *)
let native_digits b lo hi =
  if hi - lo < 1 || hi - lo > 18 then -1
  else begin
    let acc = ref 0 and i = ref lo in
    while !i < hi && Bytes.get b !i >= '0' && Bytes.get b !i <= '9' do
      acc := (!acc * 10) + (Char.code (Bytes.get b !i) - Char.code '0');
      incr i
    done;
    if !i = hi then !acc else -1
  end

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* One pass over the file, read through a window [buf.(lo .. hi-1)] of
   unread bytes that is refilled in 64 KiB reads, so the file is never
   held whole. A line's tokens are byte ranges
   [tok_start.(k), tok_stop.(k)) into the window; only rare lines (the
   magic, [rel] lines, errors) and tokens the native readers decline
   are copied out. Native marginals are [n/d] or [n] with 1-18 digits
   per part, native values [_] and [-?[0-9]{1,18}]; every other
   spelling goes through [Q.of_string] or [value_of_token] on that one
   token (and counts in [general]), so the accepted language is the
   whitespace-split reader's. *)
let read path (fd : Env.fd) =
  let store = Store.create [] in
  (* a fact line holds a relation, a marginal and at most max_arity
     values; tokens past [cap] are counted, and fail the arity check *)
  let cap = Store.max_arity + 2 in
  let tok_start = Array.make cap 0 and tok_stop = Array.make cap 0 in
  let ids = Array.make Store.max_arity 0 in
  let facts = ref 0 and zero_dropped = ref 0 and general = ref 0 in
  let seen_magic = ref false and last = ref None in
  let buf = ref (Bytes.create 65536) and lo = ref 0 and hi = ref 0 and eof = ref false and read_bytes = ref 0 in
  (* Move the window to the front of the buffer (a twice larger one when
     a single line fills it) and read more bytes after it. *)
  let refill () =
    let keep = !hi - !lo in
    let dst = if keep = Bytes.length !buf then Bytes.create (2 * keep) else !buf in
    Bytes.blit !buf !lo dst 0 keep;
    buf := dst;
    lo := 0;
    hi := keep;
    let rec pull () =
      match fd.Env.read dst keep (Bytes.length dst - keep) with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pull ()
    in
    let n = pull () in
    if n = 0 then eof := true else hi := keep + n;
    read_bytes := !read_bytes + n
  in
  let token k = Bytes.sub_string !buf tok_start.(k) (tok_stop.(k) - tok_start.(k)) in
  let token_is k lit =
    let start = tok_start.(k) and len = String.length lit in
    if tok_stop.(k) - start <> len then false
    else begin
      let i = ref 0 in
      while !i < len && Bytes.get !buf (start + !i) = lit.[!i] do
        incr i
      done;
      !i = len
    end
  in
  let value_id k =
    let b = !buf and start = tok_start.(k) and stop = tok_stop.(k) in
    if stop - start = 1 && Bytes.get b start = '_' then Store.intern store Value.Bot
    else begin
      let neg = Bytes.get b start = '-' in
      let m = native_digits b (if neg then start + 1 else start) stop in
      if m >= 0 then Store.intern_int store (if neg then -m else m)
      else begin
        incr general;
        Store.intern store (value_of_token (token k))
      end
    end
  in
  let fact lineno ntok =
    (* the marginal: native [num/den] (den > 0, coprime), else [p] *)
    let b = !buf and start = tok_start.(1) and stop = tok_stop.(1) in
    let slash = ref start in
    while !slash < stop && Bytes.get b !slash <> '/' do
      incr slash
    done;
    let num = ref (native_digits b start !slash) in
    let den = ref (if !slash = stop then 1 else native_digits b (!slash + 1) stop) in
    let p = ref Q.zero in
    if !num >= 0 && !den > 0 then begin
      let g = if !num = 0 then !den else gcd !num !den in
      num := !num / g;
      den := !den / g
    end
    else begin
      (* zero denominators land here too: [Q.make] raises on them *)
      incr general;
      (match Q.of_string (token 1) with
      | q -> p := q
      | exception (Invalid_argument _ | Division_by_zero) -> fail_parse path lineno "unparsable marginal %S" (token 1));
      num := 0;
      den := 0
    end;
    let tbl =
      match !last with
      | Some tbl when token_is 0 (Store.handle_name tbl) -> tbl
      | _ -> (
        match Store.resolve store (token 0) with
        | Ok tbl ->
          last := Some tbl;
          tbl
        | Error msg -> fail_validation path lineno msg)
    in
    let num = !num and den = !den and p = !p in
    match Store.admit tbl ~nargs:(ntok - 2) ~num ~den p with
    | Error msg -> fail_validation path lineno msg
    | Ok false -> incr zero_dropped
    | Ok true -> (
      for k = 2 to ntok - 1 do
        ids.(k - 2) <- value_id k
      done;
      match Store.insert tbl ids ~num ~den p with
      | Ok () -> incr facts
      | Error msg -> fail_validation path lineno msg)
  in
  let declare lineno name arity_s =
    match int_of_string_opt arity_s with
    | None -> fail_parse path lineno "relation %s: unparsable arity %S" name arity_s
    | Some arity -> (
      if String.length name = 0 || not (name.[0] >= 'A' && name.[0] <= 'Z') then
        fail_parse path lineno "relation name %S must start with an upper-case letter" name;
      match Store.declare store name arity with
      | Ok () -> ()
      | Error msg -> fail_parse path lineno "%s" msg)
  in
  (* the line [buf.(start .. stop-1)], its newline excluded *)
  let handle_line lineno start stop =
    let b = !buf and ntok = ref 0 and i = ref start in
    while !i < stop do
      if is_space (Bytes.get b !i) then incr i
      else begin
        let first = !i in
        while !i < stop && not (is_space (Bytes.get b !i)) do
          incr i
        done;
        if !ntok < cap then begin
          tok_start.(!ntok) <- first;
          tok_stop.(!ntok) <- !i
        end;
        incr ntok
      end
    done;
    let ntok = !ntok in
    if ntok = 0 || Bytes.get b tok_start.(0) = '#' then ()
    else if not !seen_magic then begin
      if ntok = 1 && token_is 0 format_version then seen_magic := true
      else fail_parse path lineno "expected %s magic, got %S" format_version (Bytes.sub_string b start (stop - start))
    end
    else if token_is 0 "rel" then begin
      if ntok = 3 then declare lineno (token 1) (token 2)
      else fail_parse path lineno "rel needs a name and an arity"
    end
    else if ntok = 1 then fail_parse path lineno "fact line needs a marginal"
    else fact lineno ntok
  in
  let lineno = ref 0 and digest = ref fnv_offset and torn = ref false and reading = ref true in
  while !reading do
    let nl = ref !lo in
    while !nl < !hi && Bytes.get !buf !nl <> '\n' do
      incr nl
    done;
    if !nl < !hi then begin
      incr lineno;
      handle_line !lineno !lo !nl;
      digest := fnv_fold !digest !buf !lo (!nl + 1 - !lo);
      lo := !nl + 1
    end
    else if not !eof then refill ()
    else begin
      (* torn tail: a crash mid-append left a partial last line;
         ignore it, exactly like the journal's tail repair *)
      torn := !lo < !hi;
      reading := false
    end
  done;
  if not !seen_magic then
    raise (Bad (Run_error.Parse { what = path; msg = "empty or magic-less file (expected " ^ format_version ^ ")" }));
  Metrics.add m_ingest_facts !facts;
  Metrics.add m_ingest_bytes !read_bytes;
  Metrics.add m_ingest_general !general;
  Trace.annotate [ ("facts", Ipdb_obs.Json.Int !facts); ("torn", Ipdb_obs.Json.Bool !torn) ];
  { store; facts = !facts; zero_dropped = !zero_dropped; digest = !digest; torn_tail = !torn }

let load path =
  Trace.with_span "kb.ingest" @@ fun () ->
  let env = Env.current () in
  let io msg = Error (Run_error.Io { path; msg }) in
  if not (env.Env.exists path) then io "no such file"
  else begin
    match env.Env.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
    | exception Sys_error msg -> io msg
    | fd -> (
      Fun.protect ~finally:(fun () -> try fd.Env.close () with _ -> ()) @@ fun () ->
      match read path fd with
      | loaded -> Ok loaded
      | exception Bad e -> Error e
      | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
      | exception Sys_error msg -> io msg)
  end

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write ~path ~relations facts =
  let env = Env.current () in
  match
    let fd = env.Env.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect ~finally:(fun () -> fd.Env.close ()) @@ fun () ->
    let buf = Buffer.create 65536 in
    let flush () =
      if Buffer.length buf > 0 then begin
        Ioutil.write_all fd (Buffer.contents buf);
        Buffer.clear buf
      end
    in
    Buffer.add_string buf format_version;
    Buffer.add_char buf '\n';
    List.iter (fun (name, arity) -> Buffer.add_string buf (Printf.sprintf "rel %s %d\n" name arity)) relations;
    let count = ref 0 in
    Seq.iter
      (fun (rel, args, p) ->
        Buffer.add_string buf rel;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Q.to_string p);
        Array.iter
          (fun v ->
            Buffer.add_char buf ' ';
            match value_token v with
            | Ok tok -> Buffer.add_string buf tok
            | Error msg -> failwith (Printf.sprintf "%s: %s" rel msg))
          args;
        Buffer.add_char buf '\n';
        incr count;
        if Buffer.length buf >= 65536 then flush ())
      facts;
    flush ();
    Ioutil.fsync fd;
    !count
  with
  | count -> Ok count
  | exception Unix.Unix_error (e, _, _) -> Error (Run_error.Io { path; msg = Unix.error_message e })
  | exception Failure msg -> Error (Run_error.Validation { what = path; msg })

(* ------------------------------------------------------------------ *)
(* Crash-point scenario: the ipdbkb1 write path                        *)
(* ------------------------------------------------------------------ *)

(* The bulk-write drill the crash-point explorer sweeps: write a small
   deterministic kb, verify it back, acknowledge its digest. [write]
   truncates, so resuming from any crash-consistent image (empty file,
   torn mid-line tail, complete prefix of lines) is one idempotent
   rewrite; a torn image {e loads} (partial tail ignored, [torn_tail]
   set) rather than erroring, which is invariant 1 for this format. *)
let crash_scenario ?(path = "kb.ipdbkb") () =
  let relations = [ ("Edge", 2); ("Node", 1); ("Label", 2) ] in
  let facts () =
    List.to_seq
      [
        ("Node", [| Value.Int 1 |], Q.of_string "1/3");
        ("Node", [| Value.Int 2 |], Q.of_string "2/3");
        ("Edge", [| Value.Int 1; Value.Int 2 |], Q.of_string "1/2");
        ("Edge", [| Value.Int 2; Value.Int 3 |], Q.of_string "3/4");
        ("Label", [| Value.Int 1; Value.Str "blue" |], Q.of_string "0.25");
        ("Label", [| Value.Bot; Value.Str "green" |], Q.of_string "5/7");
      ]
  in
  let n_facts = 6 in
  (* Complete iff every fact line is durable and the tail is whole — a
     crash leaves a strict prefix, which either ends mid-line (torn) or
     short of [n_facts]; both mean "rewrite". *)
  let complete () =
    match load path with
    | Ok l when (not l.torn_tail) && l.facts = n_facts -> Some l.digest
    | _ -> None
  in
  let ack_line d = Printf.sprintf "kb %016Lx" d in
  {
    Ipdb_run.Crashexplore.name = "kbfile";
    setup = (fun () -> ());
    work =
      (fun ~ack ->
        let digest =
          match complete () with
          | Some d -> d
          | None -> (
              (match write ~path ~relations (facts ()) with
              | Ok _ -> ()
              | Error e -> failwith (Run_error.to_string e));
              match complete () with
              | Some d -> d
              | None -> failwith "kb rewrite did not converge")
        in
        ack (ack_line digest));
    recovered =
      (fun () -> match complete () with Some d -> Ok [ ack_line d ] | None -> Ok []);
    fingerprint =
      (fun () -> match Ioutil.read_file path with Ok s -> s | Error m -> failwith m);
  }
