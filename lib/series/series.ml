type term = int -> float

(* 4-ulps-ish relative slack used when validating pointwise hypotheses.
   Multiplying by the constant 2^-48 is bit-identical to
   [Float.ldexp _ (-48)] (both are correctly rounded images of the same
   real number) but allocation-free in the per-term loops, where the
   cross-module [ldexp]/[Float.max] calls used to box every operand;
   inlined, so its float result is not boxed either. On a
   NaN argument this returns a finite junk value where the old expression
   returned NaN; every use site compares [_ +. slack]/[_ -. slack] against
   a term, and comparisons against NaN operands are false either way, so
   the decisions are unchanged.

   The floor's product, min_float * 2^-48 = 2^-1070, is subnormal, and on
   x86-64 a multiply with a subnormal result takes a microcode assist:
   ~68 ns against ~2 ns for a normal result, in a tight loop on a 2-vCPU
   Xeon VM. Past the underflow point of a decaying series every bound is
   at or below min_float, so the product is precomputed in [slack_floor]:
   the same bits for every argument, NaN included. *)
let slack_floor = Float.min_float *. 0x1p-48

let[@inline] ulp_slack x =
  let ax = Float.abs x in
  if ax > Float.min_float then ax *. 0x1p-48 else slack_floor

module Tail = struct
  type t =
    | Finite_support of { last : int }
    | Geometric of { index : int; first : float; ratio : float }
    | P_series of { index : int; coeff : float; p : float }
    | Exponential of { index : int; coeff : float; rate : float }

  let start_index = function
    | Finite_support _ -> min_int
    | Geometric { index; _ } | P_series { index; _ } | Exponential { index; _ } -> index

  let bound_from t n =
    if n < start_index t && start_index t > min_int then
      invalid_arg "Series.Tail.bound_from: index precedes certificate";
    match t with
    | Finite_support { last } -> if n > last then 0.0 else invalid_arg "Series.Tail.bound_from: support not exhausted"
    | Geometric { index; first; ratio } ->
      (* sum_{k>=n} first*ratio^(k-index) = first*ratio^(n-index)/(1-ratio) *)
      first *. (ratio ** float_of_int (n - index)) /. (1.0 -. ratio)
    | P_series { coeff; p; _ } ->
      (* integral test: sum_{k>=n} coeff/k^p <= coeff * ( n^-p + (n)^(1-p)/(p-1) ) *)
      let nf = float_of_int n in
      coeff *. ((nf ** -.p) +. ((nf ** (1.0 -. p)) /. (p -. 1.0)))
    | Exponential { coeff; rate; _ } ->
      coeff *. (rate ** float_of_int n) /. (1.0 -. rate)

  let pointwise_bound t n =
    match t with
    | Finite_support { last } -> if n > last then 0.0 else Float.infinity
    | Geometric { index; first; ratio } -> first *. (ratio ** float_of_int (n - index))
    | P_series { coeff; p; _ } -> coeff /. (float_of_int n ** p)
    | Exponential { coeff; rate; _ } -> coeff *. (rate ** float_of_int n)

  (* For a zero term the slackened test [0 <= b +. ulp_slack b] fails only
     when [b] is NaN. Given [params_ok], [b] cannot be NaN where this holds,
     so a zero term passes without evaluating [b] (a libm [**]):
     - finite support: [b] is 0 or +inf;
     - geometric: [ratio^k] lies in [0, 1] for [k = n - index >= 0], and a
       finite [first] times it is finite (the int subtraction can wrap for
       a very negative [index], hence the test on [k]);
     - p-series: [n^p >= 1] for [n >= 1], so a finite [coeff] over it is
       finite;
     - exponential: [rate^n] lies in [0, 1] for [n >= 0].
     An infinite [first]/[coeff] gives [inf * 0 = NaN] once the power
     underflows, and a negative exponent can make the power infinite, so
     those cases keep the full test. *)
  let zero_within t n =
    match t with
    | Finite_support _ -> true
    | Geometric { index; first; _ } -> Float.is_finite first && n - index >= 0
    | P_series { coeff; _ } -> Float.is_finite coeff && n >= 1
    | Exponential { coeff; _ } -> Float.is_finite coeff && n >= 0

  (* The pointwise hypothesis at [n], with the validation slack. The
     engine calls this once per term, after [params_ok]; it decides exactly
     as the slackened test alone. The terms of a fast-decaying series are
     exactly 0 past the underflow point (the geometric criterion's from
     n = 1075 on), and for those [zero_within] replaces the bound. It
     stays out of line: inlined into the engine's term loop, the same
     check measured ~20% slower per term on p-series tails (x86-64,
     OCaml 5.1 without flambda). *)
  let within t n a =
    (a = 0.0 && zero_within t n)
    ||
    let b = pointwise_bound t n in
    a <= b +. ulp_slack b

  let params_ok = function
    | Finite_support _ -> Ok ()
    | Geometric { first; ratio; _ } ->
      if ratio >= 0.0 && ratio < 1.0 && first >= 0.0 then Ok ()
      else Error "Geometric: need 0 <= ratio < 1 and first >= 0"
    | P_series { coeff; p; index } ->
      if p > 1.0 && coeff >= 0.0 && index >= 1 then Ok ()
      else Error "P_series: need p > 1, coeff >= 0, index >= 1"
    | Exponential { coeff; rate; _ } ->
      if rate >= 0.0 && rate < 1.0 && coeff >= 0.0 then Ok ()
      else Error "Exponential: need 0 <= rate < 1 and coeff >= 0"

  let pp fmt = function
    | Finite_support { last } -> Format.fprintf fmt "finite support (last=%d)" last
    | Geometric { index; first; ratio } -> Format.fprintf fmt "geometric from %d: %g * %g^(n-%d)" index first ratio index
    | P_series { index; coeff; p } -> Format.fprintf fmt "p-series from %d: %g / n^%g" index coeff p
    | Exponential { index; coeff; rate } -> Format.fprintf fmt "exponential from %d: %g * %g^n" index coeff rate
end

module Divergence = struct
  type t =
    | Harmonic of { index : int; coeff : float }
    | Bounded_below of { index : int; bound : float }
    | Eventually_ratio_ge_one of { index : int; floor : float }
    | Subsequence_harmonic of { index : int; pick : int -> int; coeff : float }

  let start_index = function
    | Harmonic { index; _ } | Bounded_below { index; _ } | Eventually_ratio_ge_one { index; _ } -> index
    | Subsequence_harmonic { index; pick; _ } -> pick index

  let validate t f ~upto =
    let i0 = start_index t in
    match t with
    | Harmonic { coeff; _ } ->
      if coeff <= 0.0 then Error "Harmonic: coeff must be positive"
      else begin
        let rec go n =
          if n > upto then Ok ()
          else begin
            let b = coeff /. float_of_int n in
            if f n >= b -. ulp_slack b then go (n + 1)
            else Error (Printf.sprintf "term %d = %g below harmonic minorant %g" n (f n) b)
          end
        in
        go (Stdlib.max i0 1)
      end
    | Bounded_below { bound; _ } ->
      if bound <= 0.0 then Error "Bounded_below: bound must be positive"
      else begin
        let rec go n =
          if n > upto then Ok ()
          else if f n >= bound -. ulp_slack bound then go (n + 1)
          else Error (Printf.sprintf "term %d = %g below floor %g" n (f n) bound)
        in
        go i0
      end
    | Eventually_ratio_ge_one { floor; _ } ->
      if floor <= 0.0 then Error "Eventually_ratio_ge_one: floor must be positive"
      else begin
        let rec go n =
          if n > upto then Ok ()
          else if f n < floor -. ulp_slack floor then
            Error (Printf.sprintf "term %d = %g below floor %g" n (f n) floor)
          else if n < upto && f (n + 1) < f n -. ulp_slack (f n) then
            Error (Printf.sprintf "terms decrease at %d" n)
          else go (n + 1)
        in
        go i0
      end
    | Subsequence_harmonic { index; pick; coeff } ->
      if coeff <= 0.0 then Error "Subsequence_harmonic: coeff must be positive"
      else begin
        let rec go k prev =
          let n = pick k in
          if n > upto then Ok ()
          else if n <= prev then Error (Printf.sprintf "pick not strictly increasing at %d" k)
          else begin
            let b = coeff /. float_of_int k in
            if f n >= b -. ulp_slack b then go (k + 1) n
            else Error (Printf.sprintf "term at pick %d = %d is %g, below minorant %g" k n (f n) b)
          end
        in
        go (Stdlib.max index 1) min_int
      end

  let minorant_partial_sum t n =
    match t with
    | Harmonic { index; coeff } ->
      (* sum_{k=index..n} coeff/k >= coeff * ln((n+1)/index) *)
      let i = Stdlib.max index 1 in
      if n < i then 0.0 else coeff *. log (float_of_int (n + 1) /. float_of_int i)
    | Bounded_below { index; bound } | Eventually_ratio_ge_one { index; floor = bound } ->
      if n < index then 0.0 else bound *. float_of_int (n - index + 1)
    | Subsequence_harmonic { index; pick; coeff } ->
      (* count the picks that fall below n *)
      let i = Stdlib.max index 1 in
      let rec go k acc = if pick k > n then acc else go (k + 1) (acc +. (coeff /. float_of_int k)) in
      go i 0.0

  let pp fmt = function
    | Harmonic { index; coeff } -> Format.fprintf fmt "harmonic minorant from %d: %g/n" index coeff
    | Bounded_below { index; bound } -> Format.fprintf fmt "terms >= %g from %d" bound index
    | Eventually_ratio_ge_one { index; floor } ->
      Format.fprintf fmt "nondecreasing terms >= %g from %d" floor index
    | Subsequence_harmonic { index; coeff; _ } ->
      Format.fprintf fmt "harmonic minorant %g/k along a subsequence from k=%d" coeff index
end

type verdict =
  | Converges of Interval.t
  | Diverges of { certificate : Divergence.t; partial : float; at : int }

let partial_sum ?(start = 0) f n =
  let acc = ref 0.0 in
  for k = start to n do
    acc := !acc +. f k
  done;
  !acc

let partial_sum_interval ?(start = 0) f n =
  let acc = ref Interval.zero in
  for k = start to n do
    acc := Interval.add !acc (Interval.point (f k))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The budgeted engine                                                  *)
(* ------------------------------------------------------------------ *)

module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Faultinj = Ipdb_run.Faultinj
module Pool = Ipdb_par.Pool
module Chunk = Ipdb_par.Chunk
module Reduce = Ipdb_par.Reduce
module Metrics = Ipdb_obs.Metrics
module Trace = Ipdb_obs.Trace
module OJson = Ipdb_obs.Json

let m_terms = Metrics.counter "series.terms"
let m_chunks = Metrics.counter "series.chunks"
let m_widenings = Metrics.counter "series.widenings"

(* One interval accumulation with the widening counter: a "widening" is a
   fold step that strictly grew the enclosure's width (rounding slack
   picked up beyond the point terms themselves). The count depends only
   on the index-ordered fold, so it is identical for every worker count.
   This is the reference-arithmetic fold step, the oracle that
   [fold_terms_fast] must match bit for bit and count for count. *)
let accumulate acc a =
  let acc' = Interval.add acc (Interval.point a) in
  if Metrics.enabled () && Interval.width acc' > Interval.width acc then Metrics.incr m_widenings;
  acc'

(* Wrap an engine invocation in a trace span: records the requested
   range and engine flavour up front, and on the way out the outcome
   plus the budget steps this call consumed. Every [Error] additionally
   surfaces as an ["error"] event. When no sink is installed this is
   exactly [run ()]. *)
let traced_engine name ~pooled ~start ~upto ~budget ~outcome run =
  if not (Trace.enabled ()) then run ()
  else
    Trace.with_span name
      ~attrs:
        [ ("start", OJson.Int start);
          ("upto", OJson.Int upto);
          ("engine", OJson.String (if pooled then "pool" else "seq")) ]
      (fun () ->
        let steps0 = Budget.steps_used budget in
        let r = run () in
        (match r with
        | Ok v -> Trace.annotate [ ("outcome", OJson.String (outcome v)) ]
        | Error e ->
          Run_error.emit e;
          Trace.annotate
            [ ("outcome", OJson.String "error"); ("code", OJson.String (Run_error.code e)) ]);
        Trace.annotate [ ("steps", OJson.Int (Budget.steps_used budget - steps0)) ];
        r)

(* Pull chunks from a plan while the budget still grants their steps.
   Reservation happens here — on the single admitting domain, in chunk
   order — so the index at which a step budget exhausts depends only on
   the chunk plan and the limit, never on worker scheduling. A partial
   grant truncates the chunk to the granted steps and ends admission
   (Budget.reserve latches the trip). The first reservation failure is
   recorded in [stop]. *)
let admit_chunks ~budget ~stop plan =
  let rec admit plan () =
    if !stop <> None then Seq.Nil
    else
      match plan () with
      | Seq.Nil -> Seq.Nil
      | Seq.Cons (c, rest) -> (
          let len = Chunk.length c in
          match Budget.reserve budget len with
          | Error e ->
              stop := Some e;
              Seq.Nil
          | Ok g when g = len -> Seq.Cons (c, admit rest)
          | Ok g ->
              let c, _ = Chunk.split c g in
              (stop :=
                 match Budget.poll budget with
                 | Error e -> Some e
                 | Ok () -> (* unreachable: the partial grant latched a trip *) None);
              Seq.Cons (c, fun () -> Seq.Nil))
  in
  admit plan

(* Chunk-start budget poll for chunks whose steps were reserved at
   admission: an admitted chunk must run to completion under a pure step
   budget (or the stop index would depend on scheduling), so latched step
   exhaustion is ignored here; only wall-clock and cancellation cut a
   chunk, and only before its first term. *)
let poll_cut budget =
  match Budget.poll budget with
  | Ok () | Error (Run_error.Steps _) -> None
  | Error e -> Some e

(* Run one admitted chunk: its span, the chunk counter, the chunk-start
   deadline/cancel poll ([cut] builds the outcome of a chunk cut there),
   then [eval]. Metrics are per chunk, not per term: [terms] reads the
   number of term evaluations off the outcome — a term that raised, was
   not a non-negative number or failed its check counts — and
   series.terms gets one add. *)
let run_chunk ~budget ~cut ~terms eval (c : Chunk.t) =
  Metrics.incr m_chunks;
  Trace.with_span "series.chunk" ~attrs:[ ("lo", OJson.Int c.Chunk.lo); ("hi", OJson.Int c.Chunk.hi) ]
  @@ fun () ->
  let outcome = match poll_cut budget with Some exh -> cut exh | None -> eval c in
  Metrics.add m_terms (terms outcome);
  outcome

let chunk_size = function Some s -> Stdlib.max 1 s | None -> Chunk.default_size
let injected site = Run_error.Injected_fault { site = Faultinj.site_name site }

(* Directed rounding for the chunk fold, locally unboxed. Semantically
   identical to [Interval.down]/[Interval.up], i.e. [Float.pred]/
   [Float.succ] on finite values and the identity otherwise. Declared
   here because without flambda a cross-module call boxes its float
   argument and result — at two rounded additions per term that boxing
   dominated the accumulation loops.

   For 2^-960 <= |x| <= max_float the neighbour is computed with an
   unfused multiply and add in round-to-nearest: x ± |x|·φ with
   φ = 2^-53·(1 + 2^-52) = 0x1.0000000000001p-53 is exactly succ/pred x
   away from the underflow threshold (Rump, Zimmermann, Boldo and
   Melquiond, "Computing predecessor and successor in rounding to
   nearest", BIT 49, 2009).
   Their extra η = 2^-1074 term is below half an ulp of |x|·φ in this
   range, so it is dropped. Everything else — tiny, zero, infinite, NaN —
   takes the [next_after] call, with [x -. x = 0.0] as the
   allocation-free finiteness test. The fold is a serial chain through
   these roundings, so a C call per step would be its critical path. The
   metamorphic suite pins the equivalence by comparing fast-mode
   enclosures with reference-mode ones bit for bit, across the whole
   exponent range. *)
external next_after : float -> float -> float = "caml_nextafter_float" "caml_nextafter"
  [@@unboxed] [@@noalloc]

let[@inline] round_down x =
  let ax = Float.abs x in
  if ax >= 0x1p-960 && ax <= Float.max_float then x -. (ax *. 0x1.0000000000001p-53)
  else if x -. x = 0.0 then next_after x Float.neg_infinity
  else x

let[@inline] round_up x =
  let ax = Float.abs x in
  if ax >= 0x1p-960 && ax <= Float.max_float then x +. (ax *. 0x1.0000000000001p-53)
  else if x -. x = 0.0 then next_after x Float.infinity
  else x

(* Index-ordered fold of [accumulate] over a chunk's terms with the
   endpoints kept in local refs (the reference fold allocates one
   interval per term). Same additions, same [down]/[up] rounding, so the
   resulting interval is bit-identical to [Array.fold_left accumulate];
   widenings are counted with the same strict width test in a local and
   added to series.widenings once per chunk. *)
let fold_terms_fast acc arr =
  let lo = ref (Interval.lo acc) and hi = ref (Interval.hi acc) in
  let widened = ref 0 in
  for j = 0 to Array.length arr - 1 do
    let a = Array.unsafe_get arr j in
    let lo' = round_down (!lo +. a) and hi' = round_up (!hi +. a) in
    if hi' -. lo' > !hi -. !lo then incr widened;
    lo := lo';
    hi := hi'
  done;
  Metrics.add m_widenings !widened;
  Interval.make !lo !hi

(* Recycling pool for chunk term buffers. A worker pops a buffer (or
   allocates on miss), fills every slot it reports, and the admitting
   domain returns it after folding — so the process keeps a handful of
   live buffers instead of churning one major-heap array per chunk (each
   array is chunk-sized, well past the minor-alloc cutoff, and the churn
   showed up as dozens of major collections per run). Only buffers of the
   default chunk size are recycled; other sizes (the odd-sized final
   chunk, a caller's [?chunk]) are allocated and dropped. The pools are
   shared by all runs, so a caller that runs many short sums, like the
   serve daemon, allocates no buffer per call. The Treiber-stack handoff
   publishes the buffer contents between domains. *)
type 'a buf_pool = { bufs : 'a array list Atomic.t; want : int; blank : 'a }

let buf_pool_make want blank = { bufs = Atomic.make []; want; blank }

let rec buf_take p len =
  if len <> p.want then Array.make len p.blank
  else
    match Atomic.get p.bufs with
    | [] -> Array.make len p.blank
    | (b :: rest) as old ->
      if Atomic.compare_and_set p.bufs old rest then b else buf_take p len

let rec buf_give p b =
  if Array.length b = p.want then begin
    let old = Atomic.get p.bufs in
    if not (Atomic.compare_and_set p.bufs old (b :: old)) then buf_give p b
  end

let term_bufs = buf_pool_make Chunk.default_size 0.0
let pick_bufs = buf_pool_make Chunk.default_size 0

type partial = {
  enclosure : Interval.t option;
  prefix : Interval.t;
  last : int;
  requested : int;
  exhausted : Run_error.exhaustion;
}

type budgeted =
  | Complete of Interval.t
  | Exhausted of partial

(* Non-raising variant of [Tail.bound_from]: [None] when the certificate
   cannot bound the tail at [n] (finite support not yet exhausted, index
   before the certificate's start, or a non-finite bound). *)
let tail_bound_opt tail n =
  match tail with
  | Tail.Finite_support { last } -> if n > last then Some 0.0 else None
  | _ ->
    if n < Tail.start_index tail then None
    else begin
      let b = Tail.bound_from tail n in
      if Float.is_nan b || b < 0.0 then None else Some b
    end

let certify_divergence ?(start = 0) f ~certificate ~upto =
  ignore start;
  match Divergence.validate certificate f ~upto with
  | Error _ as e -> e
  | Ok () -> Ok (Diverges { certificate; partial = partial_sum ~start:(Divergence.start_index certificate) f upto; at = upto })

type divergence_budgeted =
  | Div_complete of { partial : float; at : int }
  | Div_exhausted of { partial : float; minorant : float; last : int; requested : int; exhausted : Run_error.exhaustion }

(* ------------------------------------------------------------------ *)
(* Snapshots and resumable engines                                      *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  module Q = Ipdb_bignum.Q

  (* Floats are persisted as exact rationals (plus tokens for the
     non-rational values), so a decode . encode roundtrip is the identity
     on bits and resumed runs reproduce one-shot enclosures exactly. *)
  let encode_float x =
    if Float.is_nan x then "nan"
    else if x = Float.infinity then "inf"
    else if x = Float.neg_infinity then "-inf"
    else if x = 0.0 && 1.0 /. x < 0.0 then "-0"
    else Q.to_string (Q.of_float_exact x)

  let decode_float s =
    match s with
    | "nan" -> Ok Float.nan
    | "inf" -> Ok Float.infinity
    | "-inf" -> Ok Float.neg_infinity
    | "-0" -> Ok (-0.0)
    | _ -> (
        match Q.of_string s with
        | q -> Ok (Q.to_float q)
        | exception Invalid_argument m ->
            Error (Printf.sprintf "unparsable rational %S: %s" s m)
        | exception _ -> Error (Printf.sprintf "unparsable rational %S" s))

  let float_equal_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

  type sum_state = { sum_start : int; next : int; prefix : Interval.t }

  type div_state = {
    div_start : int;
    next_k : int;
    partial : float;
    prev_term : float option;
    prev_pick : int;
  }

  type t = Sum_state of sum_state | Div_state of div_state

  let to_string = function
    | Sum_state { sum_start; next; prefix } ->
        Printf.sprintf "sum %d %d %s %s" sum_start next
          (encode_float (Interval.lo prefix))
          (encode_float (Interval.hi prefix))
    | Div_state { div_start; next_k; partial; prev_term; prev_pick } ->
        Printf.sprintf "div %d %d %s %s %d" div_start next_k
          (encode_float partial)
          (match prev_term with None -> "_" | Some x -> encode_float x)
          prev_pick

  let ( let* ) = Result.bind

  let int_field name s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "unparsable %s %S" name s)

  let of_string s =
    match String.split_on_char ' ' (String.trim s) with
    | [ "sum"; start_s; next_s; lo_s; hi_s ] ->
        let* sum_start = int_field "start index" start_s in
        let* next = int_field "next index" next_s in
        let* lo = decode_float lo_s in
        let* hi = decode_float hi_s in
        if Float.is_nan lo || Float.is_nan hi || lo > hi then
          Error "prefix endpoints do not form an interval"
        else Ok (Sum_state { sum_start; next; prefix = Interval.make lo hi })
    | [ "div"; start_s; next_s; partial_s; prev_s; pick_s ] ->
        let* div_start = int_field "start index" start_s in
        let* next_k = int_field "next index" next_s in
        let* partial = decode_float partial_s in
        let* prev_term =
          if prev_s = "_" then Ok None
          else Result.map Option.some (decode_float prev_s)
        in
        let* prev_pick = int_field "previous pick" pick_s in
        Ok (Div_state { div_start; next_k; partial; prev_term; prev_pick })
    | kind :: _ when kind <> "sum" && kind <> "div" ->
        Error (Printf.sprintf "unknown snapshot kind %S" kind)
    | _ -> Error "wrong number of snapshot fields"

  let equal a b =
    match (a, b) with
    | Sum_state x, Sum_state y ->
        x.sum_start = y.sum_start && x.next = y.next
        && float_equal_bits (Interval.lo x.prefix) (Interval.lo y.prefix)
        && float_equal_bits (Interval.hi x.prefix) (Interval.hi y.prefix)
    | Div_state x, Div_state y ->
        x.div_start = y.div_start && x.next_k = y.next_k
        && float_equal_bits x.partial y.partial
        && x.prev_pick = y.prev_pick
        && (match (x.prev_term, y.prev_term) with
           | None, None -> true
           | Some a, Some b -> float_equal_bits a b
           | _ -> false)
    | _ -> false

  let pp fmt t =
    match t with
    | Sum_state { sum_start; next; prefix } ->
        Format.fprintf fmt "sum snapshot: start=%d next=%d prefix=%a" sum_start
          next Interval.pp prefix
    | Div_state { div_start; next_k; partial; _ } ->
        Format.fprintf fmt "divergence snapshot: start=%d next=%d partial=%.17g"
          div_start next_k partial
end

let snapshot_mismatch msg = Error (Run_error.Validation { what = "snapshot"; msg })

let sum_resumable ?pool ?chunk ?(start = 0) ?(budget = Budget.unlimited) ?from ?progress
    ?(progress_every = 1000) f ~tail ~upto =
  traced_engine "series.sum" ~pooled:(Option.is_some pool) ~start ~upto ~budget
    ~outcome:(function Complete _, _ -> "complete" | Exhausted _, _ -> "exhausted")
  @@ fun () ->
  match Tail.params_ok tail with
  | Error msg -> Error (Run_error.Certificate { what = "tail certificate"; msg })
  | Ok () -> (
    let init =
      match from with
      | None -> Ok (start, Interval.zero)
      | Some (Snapshot.Sum_state s) ->
        if s.sum_start <> start then
          snapshot_mismatch
            (Printf.sprintf "snapshot starts at %d, computation at %d" s.sum_start start)
        else if s.next < start || s.next > upto + 1 then
          snapshot_mismatch
            (Printf.sprintf "snapshot resume index %d outside %d..%d" s.next start (upto + 1))
        else Ok (s.next, s.prefix)
      | Some (Snapshot.Div_state _) ->
        snapshot_mismatch "divergence snapshot given to a summation"
    in
    match init with
    | Error _ as e -> e
    | Ok (n0, acc0) ->
      let snapshot n acc = Snapshot.Sum_state { sum_start = start; next = n; prefix = acc } in
      let check_from = Stdlib.max start (Tail.start_index tail) in
      let stop acc last exhausted =
        let enclosure =
          match tail_bound_opt tail (last + 1) with
          | Some b -> Some (Interval.add acc (Interval.make 0.0 b))
          | None -> None
        in
        Ok
          ( Exhausted { enclosure; prefix = acc; last; requested = upto; exhausted },
            snapshot (last + 1) acc )
      in
      (* Workers (or the calling domain, without a pool) evaluate and
         validate each admitted chunk's terms into a recycled buffer; the
         interval fold below replays them strictly in index order on the
         calling domain, so the enclosure is bit-identical for every
         worker count and without a pool. *)
      let size = chunk_size chunk in
      let admit_stop = ref None in
      let chunks = admit_chunks ~budget ~stop:admit_stop (Chunk.plan ~size ~start:n0 ~upto ()) in
      let term_error n msg = Run_error.Certificate { what = Printf.sprintf "term %d" n; msg } in
      let eval_chunk (c : Chunk.t) =
        (* Fault sites are read once per chunk: unarmed, each costs a branch. *)
        let term_fault = Faultinj.armed Faultinj.Term_eval in
        let cert_fault = Faultinj.armed Faultinj.Certificate in
        let arr = buf_take term_bufs (Chunk.length c) in
        let rec at n =
          if n > c.Chunk.hi then `Terms arr
          else
            match
              if term_fault then Faultinj.fire Faultinj.Term_eval;
              f n
            with
            | exception Faultinj.Injected site -> `Fail (n, injected site)
            | exception e -> `Fail (n, term_error n ("term evaluation raised " ^ Printexc.to_string e))
            | a ->
              if Float.is_nan a || a < 0.0 then
                `Fail (n, term_error n (Printf.sprintf "term is not a non-negative number (%g)" a))
              else if n < check_from then begin
                arr.(n - c.Chunk.lo) <- a;
                at (n + 1)
              end
              else begin
                match
                  if cert_fault then
                    match Faultinj.fire Faultinj.Certificate with
                    | () -> None
                    | exception Faultinj.Injected site -> Some site
                  else None
                with
                | Some site -> `Fail (n, injected site)
                | None ->
                  if Tail.within tail n a then begin
                    arr.(n - c.Chunk.lo) <- a;
                    at (n + 1)
                  end
                  else
                    let b = Tail.pointwise_bound tail n in
                    `Fail
                      ( n,
                        Run_error.Certificate
                          { what = "tail certificate"; msg = Printf.sprintf "term %d = %g exceeds certified bound %g" n a b } )
              end
        in
        at c.Chunk.lo
      in
      let map (c : Chunk.t) =
        ( c,
          run_chunk ~budget eval_chunk c
            ~cut:(fun exh -> `Cut exh)
            ~terms:(function `Terms _ -> Chunk.length c | `Fail (n, _) -> n - c.Chunk.lo + 1 | `Cut _ -> 0) )
      in
      (* The reference-arithmetic fold is the oracle for [fold_terms_fast]. *)
      let fold_chunk = if Ipdb_bignum.Arith.reference () then Array.fold_left accumulate else fold_terms_fast in
      let fold (acc, next, emitted) (c, outcome) =
        match outcome with
        | `Fail (_, e) -> Error (`Fail e)
        | `Cut exh -> Error (`Cut (acc, next, exh))
        | `Terms arr ->
          let acc = fold_chunk acc arr in
          buf_give term_bufs arr;
          let next = c.Chunk.hi + 1 in
          let emitted =
            match progress with
            | Some emit ->
              let due = (next - n0) / progress_every in
              if due > emitted then begin
                emit (snapshot next acc);
                due
              end
              else emitted
            | None -> emitted
          in
          Ok (acc, next, emitted)
      in
      match Reduce.map_fold pool ~map ~fold ~init:(acc0, n0, 0) chunks with
      | Error (`Fail e) -> Error e
      | Error (`Cut (acc, next, exh)) -> stop acc (next - 1) exh
      | Ok (acc, next, _) -> (
        match !admit_stop with
        | Some exh -> stop acc (next - 1) exh
        | None -> (
          match tail_bound_opt tail (upto + 1) with
          | Some b -> Ok (Complete (Interval.add acc (Interval.make 0.0 b)), snapshot next acc)
          | None ->
            Error
              (Run_error.Certificate
                 { what = "tail certificate"; msg = "no tail bound at the cutoff (finite support not exhausted?)" }))))

let certify_divergence_resumable ?pool ?chunk ?(start = 0) ?(budget = Budget.unlimited) ?from
    ?progress ?(progress_every = 1000) f ~certificate ~upto =
  ignore start;
  traced_engine "series.divergence" ~pooled:(Option.is_some pool)
    ~start:(Divergence.start_index certificate) ~upto ~budget
    ~outcome:(function Div_complete _, _ -> "complete" | Div_exhausted _, _ -> "exhausted")
  @@ fun () ->
  (* [Divergence.validate]'s four traversals as one chunked engine over the
     loop index k: one term evaluation and one budget step per index, with
     the cross-index context ([prev_term] for the ratio certificate,
     [prev_pick] for the subsequence one) carried explicitly so it can be
     checkpointed and restored. The witness partial sum is a left fold in
     index order, hence bit-for-bit reproducible across resumes. *)
  let param_error =
    match certificate with
    | Divergence.Harmonic { coeff; _ } when coeff <= 0.0 -> Some "Harmonic: coeff must be positive"
    | Divergence.Bounded_below { bound; _ } when bound <= 0.0 -> Some "Bounded_below: bound must be positive"
    | Divergence.Eventually_ratio_ge_one { floor; _ } when floor <= 0.0 ->
      Some "Eventually_ratio_ge_one: floor must be positive"
    | Divergence.Subsequence_harmonic { coeff; _ } when coeff <= 0.0 ->
      Some "Subsequence_harmonic: coeff must be positive"
    | _ -> None
  in
  match param_error with
  | Some msg -> Error (Run_error.Certificate { what = "divergence certificate"; msg })
  | None -> (
    let i0 =
      match certificate with
      | Divergence.Harmonic { index; _ } -> Stdlib.max index 1
      | Divergence.Bounded_below { index; _ } -> index
      | Divergence.Eventually_ratio_ge_one { index; _ } -> index
      | Divergence.Subsequence_harmonic { index; _ } -> Stdlib.max index 1
    in
    let init =
      match from with
      | None ->
        Ok Snapshot.{ div_start = i0; next_k = i0; partial = 0.0; prev_term = None; prev_pick = min_int }
      | Some (Snapshot.Div_state s) ->
        if s.Snapshot.div_start <> i0 then
          snapshot_mismatch
            (Printf.sprintf "snapshot starts at %d, certificate at %d" s.Snapshot.div_start i0)
        else if s.Snapshot.next_k < i0 then
          snapshot_mismatch
            (Printf.sprintf "snapshot resume index %d precedes certificate start %d" s.Snapshot.next_k i0)
        else Ok s
      | Some (Snapshot.Sum_state _) ->
        snapshot_mismatch "summation snapshot given to a divergence check"
    in
    match init with
    | Error _ as e -> e
    | Ok st0 ->
      let cert_error msg = Run_error.Certificate { what = "divergence certificate"; msg } in
      let snapshot k partial prev_term prev_pick =
        Snapshot.Div_state { div_start = i0; next_k = k; partial; prev_term; prev_pick }
      in
      let index_of k =
        match certificate with
        | Divergence.Subsequence_harmonic { pick; _ } -> pick k
        | _ -> k
      in
      let last_evaluated k prev_pick =
        match certificate with
        | Divergence.Subsequence_harmonic _ ->
          if prev_pick = min_int then Divergence.start_index certificate - 1 else prev_pick
        | _ -> k - 1
      in
      (* Chunks over the loop index k. Workers evaluate terms and check the
         pointwise minorant hypotheses; the witness fold and the
         cross-index checks (ratio decrease at a chunk boundary, pick
         monotonicity) replay in k order on the calling domain, in the
         per-index check order of a one-index-at-a-time loop. *)
      let k0 = st0.Snapshot.next_k in
      let size = chunk_size chunk in
      (* Upper bound on k: for a plain certificate the loop index is the
         term index; for a subsequence, [pick] strictly increasing means
         pick k >= pick k0 + (k - k0), so the first k with pick k > upto
         is at most k0 + (upto - pick k0) + 1. *)
      let kmax =
        match certificate with
        | Divergence.Subsequence_harmonic { pick; _ } ->
          let n_first = pick k0 in
          if n_first > upto then k0 - 1 else k0 + (upto - n_first)
        | _ -> upto
      in
      let admit_stop = ref None in
      let chunks = admit_chunks ~budget ~stop:admit_stop (Chunk.plan ~size ~start:k0 ~upto:kmax ()) in
      let eval_chunk (c : Chunk.t) =
        let term_fault = Faultinj.armed Faultinj.Term_eval in
        let len = Chunk.length c in
        let terms = buf_take term_bufs len in
        let picks = buf_take pick_bufs len in
        let stop_at j s = `Stopped (j, s) in
        let rec at j =
          if j >= len then `Full
          else begin
            let k = c.Chunk.lo + j in
            let n = index_of k in
            if n > upto then stop_at j `Upto_hit
            else begin
              match
                if term_fault then Faultinj.fire Faultinj.Term_eval;
                f n
              with
              | exception Faultinj.Injected site -> stop_at j (`Err (injected site))
              | exception e -> stop_at j (`Err (cert_error ("term evaluation raised " ^ Printexc.to_string e)))
              | a -> (
                let verdict =
                  match certificate with
                  | Divergence.Harmonic { coeff; _ } ->
                    let b = coeff /. float_of_int n in
                    if a >= b -. ulp_slack b then Ok ()
                    else Error (Printf.sprintf "term %d = %g below harmonic minorant %g" n a b)
                  | Divergence.Bounded_below { bound; _ } ->
                    if a >= bound -. ulp_slack bound then Ok ()
                    else Error (Printf.sprintf "term %d = %g below floor %g" n a bound)
                  | Divergence.Eventually_ratio_ge_one { floor; _ } ->
                    if a < floor -. ulp_slack floor then
                      Error (Printf.sprintf "term %d = %g below floor %g" n a floor)
                    else if j > 0 && a < terms.(j - 1) -. ulp_slack terms.(j - 1) then
                      Error (Printf.sprintf "terms decrease at %d" (n - 1))
                    else Ok ()
                  | Divergence.Subsequence_harmonic { coeff; _ } ->
                    if j > 0 && n <= picks.(j - 1) then
                      Error (Printf.sprintf "pick not strictly increasing at %d" k)
                    else begin
                      let b = coeff /. float_of_int k in
                      if a >= b -. ulp_slack b then Ok ()
                      else Error (Printf.sprintf "term at pick %d = %d is %g, below minorant %g" k n a b)
                    end
                in
                match verdict with
                | Error msg -> stop_at j (`Err (cert_error msg))
                | Ok () ->
                  terms.(j) <- a;
                  picks.(j) <- n;
                  at (j + 1))
            end
          end
        in
        (terms, picks, at 0)
      in
      let map (c : Chunk.t) =
        let terms, picks, outcome =
          run_chunk ~budget eval_chunk c
            ~cut:(fun exh -> ([||], [||], `Stopped (0, `Cut exh)))
            ~terms:(function
              | _, _, `Full -> Chunk.length c
              | _, _, `Stopped (j, `Err _) -> j + 1
              | _, _, `Stopped (j, _) -> j)
        in
        (c, terms, picks, outcome)
      in
      (* Merge state mirrors a one-index-at-a-time loop's accumulator exactly. *)
      let fold (partial, prev, prev_pick, k_next, emitted) (c, terms, picks, outcome) =
        let dlen = match outcome with `Full -> Chunk.length c | `Stopped (j, _) -> j in
        (* Cross-index checks on the chunk's first index, against the
           carried state — in the per-index check order. *)
        let boundary_err =
          match certificate with
          | Divergence.Eventually_ratio_ge_one _ when dlen >= 1 -> (
            match prev with
            | Some p when terms.(0) < p -. ulp_slack p ->
              Some (Printf.sprintf "terms decrease at %d" (c.Chunk.lo - 1))
            | _ -> None)
          | Divergence.Subsequence_harmonic _ when prev_pick <> min_int -> (
            let first_attempted =
              if dlen >= 1 then Some picks.(0)
              else
                match outcome with
                | `Stopped (0, `Err _) -> Some (index_of c.Chunk.lo)
                | _ -> None
            in
            match first_attempted with
            | Some n when n <= prev_pick ->
              Some (Printf.sprintf "pick not strictly increasing at %d" c.Chunk.lo)
            | _ -> None)
          | _ -> None
        in
        match boundary_err with
        | Some msg -> Error (`Fail (cert_error msg))
        | None ->
          let partial = ref partial in
          for j = 0 to dlen - 1 do
            if not (Float.is_nan terms.(j)) then partial := !partial +. terms.(j)
          done;
          let partial = !partial in
          let prev = if dlen >= 1 then Some terms.(dlen - 1) else prev in
          let prev_pick = if dlen >= 1 then picks.(dlen - 1) else prev_pick in
          let k_next = if dlen >= 1 then c.Chunk.lo + dlen else k_next in
          let st = (partial, prev, prev_pick, k_next, emitted) in
          buf_give term_bufs terms;
          buf_give pick_bufs picks;
          (match outcome with
          | `Full ->
            let emitted =
              match progress with
              | Some emit ->
                let due = (k_next - k0) / progress_every in
                if due > emitted then begin
                  emit (snapshot k_next partial prev prev_pick);
                  due
                end
                else emitted
              | None -> emitted
            in
            Ok (partial, prev, prev_pick, k_next, emitted)
          | `Stopped (_, `Upto_hit) -> Error (`Done st)
          | `Stopped (_, `Cut exh) -> Error (`Cut (st, exh))
          | `Stopped (_, `Err e) -> Error (`Fail e))
      in
      let finish_exhausted (partial, prev, prev_pick, k_next, _) exhausted =
        let last = last_evaluated k_next prev_pick in
        Ok
          ( Div_exhausted
              {
                partial;
                minorant = Divergence.minorant_partial_sum certificate (Stdlib.max last 0);
                last;
                requested = upto;
                exhausted;
              },
            snapshot k_next partial prev prev_pick )
      in
      let init = (st0.Snapshot.partial, st0.Snapshot.prev_term, st0.Snapshot.prev_pick, k0, 0) in
      match Reduce.map_fold pool ~map ~fold ~init chunks with
      | Error (`Fail e) -> Error e
      | Error (`Cut (st, exh)) -> finish_exhausted st exh
      | Error (`Done (partial, prev, prev_pick, k_next, _)) ->
        Ok (Div_complete { partial; at = upto }, snapshot k_next partial prev prev_pick)
      | Ok ((partial, prev, prev_pick, k_next, _) as st) -> (
        match !admit_stop with
        | Some exh -> finish_exhausted st exh
        | None -> Ok (Div_complete { partial; at = upto }, snapshot k_next partial prev prev_pick)))

let certify_divergence_budgeted ?pool ?chunk ?start ?budget f ~certificate ~upto =
  Result.map fst (certify_divergence_resumable ?pool ?chunk ?start ?budget f ~certificate ~upto)

let sum_budgeted ?pool ?chunk ?start ?budget f ~tail ~upto =
  Result.map fst (sum_resumable ?pool ?chunk ?start ?budget f ~tail ~upto)

let sum ?(start = 0) f ~tail ~upto =
  match sum_budgeted ~start f ~tail ~upto with
  | Ok (Complete enclosure) -> Ok enclosure
  | Ok (Exhausted _) -> Error "unlimited budget exhausted (impossible)"
  | Error e -> Error (Run_error.message e)

let sum_exn ?start f ~tail ~upto =
  match sum ?start f ~tail ~upto with Ok i -> i | Error msg -> failwith ("Series.sum: " ^ msg)

module Qb = Ipdb_bignum.Q

(* Memoised per-ratio state for [geometric_tail_exact]: the power table
   for r^n and the precomputed 1/(1-r). [Q.div a b] is [Q.mul a (inv b)]
   and canonical forms are unique, so [pow r n * inv (1 - r)] is
   bit-identical to the direct formula. Guarded by a mutex because zoo
   distributions evaluate tails from pool workers. *)
let geotail_lock = Mutex.create ()
let geotail_tabs : (Qb.t, Qb.Powtab.t * Qb.t) Hashtbl.t = Hashtbl.create 8

(* Beyond this exponent the table (quadratic total size in the exponent)
   would cost more memory than the memoisation saves; compute directly. *)
let geotail_memo_max = 4096

let geometric_tail_exact r n =
  let module Q = Ipdb_bignum.Q in
  if not (Q.is_probability r) || Q.is_one r then invalid_arg "Series.geometric_tail_exact: need 0 <= r < 1";
  if Ipdb_bignum.Arith.reference () || n < 0 || n > geotail_memo_max then Q.div (Q.pow r n) (Q.one_minus r)
  else begin
    Mutex.lock geotail_lock;
    let tab, inv_one_minus =
      match Hashtbl.find_opt geotail_tabs r with
      | Some v ->
        Mutex.unlock geotail_lock;
        v
      | None ->
        let v = (Q.Powtab.create r, Q.inv (Q.one_minus r)) in
        Hashtbl.add geotail_tabs r v;
        Mutex.unlock geotail_lock;
        v
    in
    Q.mul (Q.Powtab.pow tab n) inv_one_minus
  end
