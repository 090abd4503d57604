(** Seeded fault injection, for proving degradation paths fire.

    Production code is sprinkled with named {e sites} ({!fire} calls) that
    are inert until a test {!arm}s them. An armed site raises {!Injected}
    pseudo-randomly (deterministically, from the seed); the surrounding
    recovery boundary must convert it into a typed {!Error.t} rather than
    letting it escape. Tests arm a site, drive the API, and assert the
    typed error surfaces — demonstrating that term-evaluation, sampling,
    certificate and serve-worker failures degrade gracefully.

    File I/O has no site here: every file goes through
    {!Ipdb_env.Env}, and the simulated backend ({!Ipdb_env.Simenv})
    injects its faults — errnos, short and torn writes, power cuts.

    State is global to the process and meant for single-threaded test
    harnesses; always {!disarm} when done. *)

type site =
  | Term_eval  (** series term evaluation *)
  | Sampling  (** possible-world sampling *)
  | Certificate  (** certificate validation *)
  | Serve_worker  (** serve-daemon request handling (crash / slow-worker drives) *)

exception Injected of site

val site_name : site -> string

val arm : ?seed:int -> ?rate:float -> site list -> unit
(** Arm the listed sites. [rate] (default [1.0]) is the per-{!fire}
    probability of raising, drawn from a PRNG seeded with [seed] (default
    [0]) so failures are reproducible. *)

val disarm : unit -> unit
(** Return every site to inert. *)

val armed : site -> bool

val fire : site -> unit
(** The hook placed in production code.
    @raise Injected when the site is armed and the seeded coin fires. *)

val fired : unit -> int
(** Number of injections raised since the last {!arm}. *)

val protect : ?what:string -> (unit -> 'a) -> ('a, Error.t) result
(** Run a thunk to a typed result: {!Injected} becomes
    [Error.Injected_fault], any other exception is classified by
    {!Error.of_exn}. This is the standard recovery boundary wrapped around
    externally-triggered work (CLI subcommands, sampling loops). *)
