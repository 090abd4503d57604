(* The traced run's span recorder: in memory, written as JSONL once the
   run is over. It lives in the benchmark on purpose. Turning on the
   program's own tracing or metrics flips the series engine onto its
   instrumented loop (`fast_eligible`), so a traced run would profile a
   different program; these spans wrap calls into the layers from
   outside and change nothing inside them.

   Single-domain: spans are opened and closed on the domain that runs the
   replay, which is the only one that records. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** request or job id, -1 when none *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable child_ns : int64;  (** summed durations of direct children *)
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

let with_span ?(req = -1) name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let req = match (req, !stack) with -1, p :: _ -> p.req | _ -> req in
    let s = { id = !next_id; name; parent; req; start_ns = Clock.now_ns (); stop_ns = 0L; child_ns = 0L } in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.stop_ns <- Clock.now_ns ();
      stack := List.tl !stack;
      (match !stack with p :: _ -> p.child_ns <- Int64.add p.child_ns (Int64.sub s.stop_ns s.start_ns) | [] -> ());
      recorded := s :: !recorded
    in
    Fun.protect ~finally:close f
  end

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Self time: the span's duration minus the part its children cover.
   Children of one span run one after another on one domain, so their
   durations do not overlap and their sum is the covered part. *)
let self_ns s = Int64.sub (duration_ns s) s.child_ns

let all () = List.rev !recorded

(* Share of the roots' wall time that named child spans account for. *)
let attributed_ratio () =
  let roots = List.filter (fun s -> s.parent = -1) (all ()) in
  let wall = List.fold_left (fun a s -> Int64.add a (duration_ns s)) 0L roots in
  let covered = List.fold_left (fun a s -> Int64.add a s.child_ns) 0L roots in
  if wall = 0L then 0.0 else Int64.to_float covered /. Int64.to_float wall

let write_jsonl path =
  let module J = Ipdb_obs.Json in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("id", J.Int s.id);
                ("name", J.String s.name);
                ("parent", J.Int s.parent);
                ("req", J.Int s.req);
                ("start_ns", J.Int (Int64.to_int s.start_ns));
                ("end_ns", J.Int (Int64.to_int s.stop_ns));
                ("self_ns", J.Int (Int64.to_int (self_ns s)));
              ]));
      output_char oc '\n')
    (all ())
