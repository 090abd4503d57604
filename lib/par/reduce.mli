(** Deterministic ordered reduction over a pool.

    [map_fold] is the bridge between nondeterministic scheduling and
    deterministic results: items are mapped on the pool in waves, but the
    fold consumes mapped results strictly in input order, so any
    order-sensitive computation (floating-point accumulation, interval
    arithmetic, journal appends) replays exactly as a sequential loop
    would.  The window bounds how many items are in flight at once, which
    keeps memory proportional to [window], not to the (possibly huge,
    lazily produced) input sequence. *)

val map_fold :
  Pool.t option ->
  ?window:int ->
  map:('a -> 'b) ->
  fold:('acc -> 'b -> ('acc, 'stop) result) ->
  init:'acc ->
  'a Seq.t ->
  ('acc, 'stop) result
(** [map_fold pool ~map ~fold ~init items] maps every item on the pool and
    folds the results in input order.  [fold] returning [Error stop] stops
    the reduction: no further items are pulled from the sequence (so a lazy
    producer stops producing) and remaining in-flight results of the
    current wave are discarded.  Returns [Ok acc] when the sequence is
    exhausted.

    [window] (default [4 * Pool.jobs pool], min 1) is the wave size: each
    wave pulls up to [window] items, maps them concurrently (a barrier),
    then folds them in order before pulling the next wave.

    With [None] for the pool the same reduction runs inline on the
    calling domain, one item at a time: each item is pulled, mapped and
    folded before the next is pulled, and [window] is ignored.  The
    folded result is the same as with any pool, since the fold order is
    the input order either way.

    The input sequence is pulled at most once per element; effectful
    sequences (e.g. budget-admission wrappers) are safe. *)
