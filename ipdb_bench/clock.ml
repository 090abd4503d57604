(* The benchmark's only clock: CLOCK_MONOTONIC via bechamel, so a wall
   clock step (NTP, suspend) can never produce a negative or inflated
   sample. *)

let now_ns () = Monotonic_clock.now ()

(* Seconds on the monotonic clock; only differences are meaningful. *)
let now () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
