(** Shared durable-I/O discipline.

    One home for the low-level habits every persistent artifact in the
    system relies on — the journal ([lib/run/journal.ml]), the trace sink
    ([lib/obs/sink.ml]), checkpoint files ([lib/run/checkpoint.ml]) and the
    serve verdict cache ([lib/serve/cache.ml]) all write through here, and
    the [.ti] reader behind [ipdb import] ([Serialize.load]) reads
    through {!read_file}:

    - {b EINTR-safe transfer loops}: a signal landing mid-[write(2)]
      (SIGTERM during drain, SIGCHLD from a test harness) must never tear
      a record or drop bytes, and short reads/writes are always retried;
    - {b fsync-before-ack}: a record is durable before the caller
      proceeds;
    - {b atomic replace}: temp file + fsync + rename in the same
      directory, so readers observe old-or-new, never a torn file;
    - {b advisory single-writer lock files}: [lockf]-based [<path>.lock]
      guards so two daemons (or a daemon plus a resuming bench) cannot
      interleave appends into one file;
    - {b FNV-1a/64 checksums} and line-safe escaping, the framing
      integrity discipline shared by every on-disk format.

    Every file operation goes through the pluggable {!Ipdb_env.Env}
    environment, so the simulated backend ({!Ipdb_env.Simenv}) can
    inject short writes, torn writes, errnos, fsync lies and power cuts
    into all of it — the crash-point explorer and the QCheck coverage in
    [test/test_crashexplore.ml] rely on exactly this seam.

    This library deliberately depends only on [unix] and [ipdb.env], so
    both [ipdb_obs] and [ipdb_run] (which depends on [ipdb_obs]) can
    build on it. *)

val write_all : Ipdb_env.Env.fd -> string -> unit
(** Write the whole string, retrying on [EINTR] and short writes.
    @raise Unix.Unix_error on any other failure. *)

val fsync : Ipdb_env.Env.fd -> unit
(** [fsync(2)], retrying on [EINTR].
    @raise Unix.Unix_error on any other failure. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory, to persist a rename. Never raises:
    not every platform allows fsync on a directory fd, and the
    write+rename alone already gives old-or-new atomicity. *)

val read_all : Ipdb_env.Env.fd -> string
(** Read to end of file, retrying on [EINTR] and short reads — the
    result is complete: a short-read schedule can never yield a silent
    partial value.
    @raise Unix.Unix_error on any other failure. *)

val read_file : string -> (string, string) result
(** Whole-file read through the environment ({!read_all} semantics);
    failures (missing file, [EIO], …) come back as a diagnostic
    message, never an exception. *)

val checksum : string -> int64
(** FNV-1a, 64-bit. Dependency-free and plenty for torn-write detection;
    an integrity check, not an adversarial MAC. *)

val escape : string -> string
(** Make arbitrary payload bytes line-safe: ['\\'] → ["\\\\"], newline →
    ["\\n"], carriage return → ["\\r"]. *)

val unescape : string -> (string, string) result
(** Total inverse of {!escape}; malformed input yields a diagnostic. *)

val atomic_replace : path:string -> string -> unit
(** Atomically replace the contents of [path]: write to a temp file in the
    same directory, fsync it, rename over [path], then best-effort fsync
    the directory. On failure the temp file is removed and the original
    [path] is untouched.
    @raise Unix.Unix_error or [Failure] on I/O trouble. *)

type lock
(** A held advisory lock (a [<path>.lock] file with an exclusive [lockf]
    region). *)

val lock_file_of : string -> string
(** The lock-file path guarding [path] (["<path>.lock"]). *)

val acquire_lock : path:string -> (lock, string) result
(** Take the single-writer advisory lock guarding [path], without
    blocking. [Error] carries a diagnostic when another live process (or,
    under the simulated backend, any other holder) already holds it.
    POSIX caveat: [lockf] locks are per-process, so a second acquire from
    the {e same} process succeeds on the unix backend; locks die with the
    process, so a SIGKILL'd holder never wedges its successor. *)

val release_lock : lock -> unit
(** Release and close (idempotent-ish; errors ignored). *)
