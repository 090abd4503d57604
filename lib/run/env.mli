(** Pluggable I/O environment — the seam between the durability stack and
    the operating system.

    Every file operation performed by [Ioutil], [Journal], [Checkpoint],
    the trace sink ([lib/obs/sink.ml]), the serve verdict cache
    ([lib/serve/cache.ml], via [Checkpoint]), the [ipdbkb1] reader and
    writer ([lib/kb/kbfile.ml]) and the [.ti] reader
    ([Serialize.load], via [Ioutil]) goes through one of these records
    instead of calling [Unix] directly; [test/env_seam.sh] keeps it that
    way. Two backends exist:

    - {!unix}, the default, delegating straight to [Unix] (with advisory
      locking via [lockf]); and
    - the {e simulated} backend ({!Simenv}), an in-memory filesystem that
      deterministically injects seeded faults — short writes, torn writes
      at arbitrary byte offsets, [EIO]/[ENOSPC]/[EINTR], fsync lies, and
      power cuts — which is what the crash-point explorer
      ({!Crashexplore} in [ipdb.run]) sweeps over.

    The contract mirrors the narrow POSIX subset the stack actually
    relies on: open / sequential read / sequential (append) write / fsync
    / close per descriptor, plus rename / unlink / mkdir / exists on
    paths. Descriptor operations are closures captured at open time, so a
    simulated env installed mid-process never hijacks descriptors the
    real backend handed out (TCP sockets keep working while a test
    simulates disk faults). *)

type fd = {
  write : string -> int -> int -> int;
      (** [write s off len]: write up to [len] bytes of [s] from [off],
          returning the number written (short writes allowed).
          @raise Unix.Unix_error like [write(2)] (including [EINTR]). *)
  read : bytes -> int -> int -> int;
      (** [read buf off len]: read up to [len] bytes (short reads
          allowed); [0] at end of file.
          @raise Unix.Unix_error like [read(2)]. *)
  fsync : unit -> unit;
      (** Persist written data. A {e lying} backend may report success
          without persisting — exactly the failure mode the simulated
          power cut surfaces. *)
  lock : unit -> bool;
      (** Try to take the advisory exclusive lock on this descriptor's
          file without blocking; [false] if another holder refuses it.
          The unix backend uses [Unix.lockf F_TLOCK] (note POSIX
          semantics: locks are per-process, so a second open {e in the
          same process} succeeds; the simulated backend refuses, which is
          what the single-writer tests exercise). *)
  unlock : unit -> unit;  (** Release the advisory lock (best effort). *)
  close : unit -> unit;  (** @raise Unix.Unix_error on failure. *)
}

type t = {
  backend : string;  (** ["unix"] or ["sim"], for diagnostics *)
  openfile : string -> Unix.open_flag list -> Unix.file_perm -> fd;
  rename : string -> string -> unit;
  unlink : string -> unit;
  mkdir : string -> Unix.file_perm -> unit;
  exists : string -> bool;
  socket : Unix.file_descr -> fd;
      (** Wrap a connected socket descriptor for framed wire I/O. The
          unix backend is {!of_unix}; the simulated backend layers
          partition injection on top (reads/writes raise [ECONNRESET]
          while a simulated partition is in force), which is how the
          replication protocol's connection-drop handling is swept. *)
}

val unix : t
(** The default backend: straight delegation to [Unix] / [Sys]. *)

val of_unix : Unix.file_descr -> fd
(** Wrap an existing real descriptor (e.g. a connected socket) so it can
    be driven through the {!fd} operations regardless of the ambient
    environment. *)

val current : unit -> t
(** The ambient environment ({!unix} unless a test installed another). *)

val set : t -> unit
(** Install an environment globally (atomic; visible to all domains). *)

val reset : unit -> unit
(** Restore {!unix}. *)

val with_env : t -> (unit -> 'a) -> 'a
(** Run a thunk with [e] installed, restoring the previous environment
    afterwards (even on exceptions). *)
