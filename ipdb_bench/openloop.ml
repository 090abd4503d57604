(* Open-loop load generation: request [i] is due at [due.(i)] whether or
   not earlier requests have been answered, as independent users would
   send it, and its latency runs from the due time. A stall therefore
   charges its wait to every request queued behind it, which a
   closed-loop client would silently absorb by sending less.

   One generator thread drives at most [slots] connections in flight. The
   generator is written against [io] so that the scheduling rules are unit
   tested against a simulated clock and server. *)

type io = {
  now : unit -> float;
  send : int -> bool;
      (** start request [i]; [false] when it failed on the spot (refused
          connection), which completes it as failed *)
  wait : until:float -> (int * bool * float) list;
      (** block until a request in flight completes or the clock reaches
          [until]; return the completions as [(i, ok, time)] *)
}

type outcome = {
  due : float array;
  sent : float array;
  finished : float array;
  ok : bool array;
  lateness : float array;
      (** how late the generator itself sent each request: past its due
          time, or past the moment a slot freed up when none was free *)
}

let due_times ~start ~rate ~n = Array.init n (fun i -> start +. (float_of_int i /. rate))

let run io ~slots ~due =
  let n = Array.length due in
  let sent = Array.make n Float.nan
  and finished = Array.make n Float.nan
  and ok = Array.make n false
  and lateness = Array.make n 0.0 in
  let next = ref 0 and in_flight = ref 0 and completed = ref 0 in
  let slot_freed = ref Float.neg_infinity in
  let complete (i, good, t) =
    finished.(i) <- t;
    ok.(i) <- good;
    decr in_flight;
    incr completed;
    slot_freed := io.now ()
  in
  while !completed < n do
    let t = io.now () in
    if !next < n && due.(!next) <= t && !in_flight < slots then begin
      let i = !next in
      incr next;
      sent.(i) <- t;
      lateness.(i) <- t -. Float.max due.(i) !slot_freed;
      incr in_flight;
      if not (io.send i) then complete (i, false, io.now ())
    end
    else
      let until = if !next < n && !in_flight < slots then due.(!next) else Float.infinity in
      List.iter complete (io.wait ~until)
  done;
  { due; sent; finished; ok; lateness }

(* Latency of each request from its due time; a failed request never
   met any limit. *)
let latencies o = Array.mapi (fun i d -> if o.ok.(i) then o.finished.(i) -. d else Float.infinity) o.due

let failures o = Array.fold_left (fun a good -> if good then a else a + 1) 0 o.ok

(* The system fell behind the schedule: by the end the last request was
   sent later than the latency limit allows, so the backlog was growing
   rather than draining. *)
let backlog_growing o ~limit =
  let n = Array.length o.due in
  n > 0 && o.sent.(n - 1) -. o.due.(n - 1) > limit

(* The tail of a run: the median of the tails of its 1000-request
   windows. *)
let tail o = Stats.windowed_tail ~window:1000 (latencies o)

(* A probe meets the limit when nothing failed, its tail latency is
   within [limit], and the backlog did not grow. *)
let meets o ~limit =
  let _, t, _ = tail o in
  failures o = 0 && t <= limit && not (backlog_growing o ~limit)
