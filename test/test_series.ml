(* Tests for interval arithmetic and the certified series engine. *)

module Q = Ipdb_bignum.Q
module Interval = Ipdb_series.Interval
module Series = Ipdb_series.Series

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let arb_interval =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Interval.pp i)
    QCheck.Gen.(
      let* a = float_bound_inclusive 100.0 in
      let* b = float_bound_inclusive 100.0 in
      let* s1 = bool in
      let* s2 = bool in
      let a = if s1 then -.a else a and b = if s2 then -.b else b in
      return (Interval.make (Float.min a b) (Float.max a b)))

let prop ?(count = 500) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let interval_props =
  [ prop "add encloses" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.add a b in
        Interval.contains c (Interval.lo a +. Interval.lo b) && Interval.contains c (Interval.hi a +. Interval.hi b));
    prop "mul encloses endpoint products" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.mul a b in
        List.for_all (Interval.contains c)
          [ Interval.lo a *. Interval.lo b; Interval.lo a *. Interval.hi b; Interval.hi a *. Interval.lo b; Interval.hi a *. Interval.hi b ]);
    prop "sub encloses" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.sub a b in
        Interval.contains c (Interval.midpoint a -. Interval.midpoint b));
    prop "pow_int encloses midpoint power" (QCheck.pair arb_interval QCheck.(0 -- 5)) (fun (a, k) ->
        let c = Interval.pow_int a k in
        Interval.contains c (Interval.midpoint a ** float_of_int k) || Interval.width a > 0.0);
    prop "union contains both" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.union a b in
        Interval.contains c (Interval.lo a) && Interval.contains c (Interval.hi b))
  ]

let test_interval_basics () =
  let i = Interval.make 1.0 2.0 in
  Alcotest.(check bool) "contains" true (Interval.contains i 1.5);
  Alcotest.(check bool) "certainly_lt" true (Interval.certainly_lt i (Interval.make 3.0 4.0));
  Alcotest.(check bool) "not certainly_lt overlap" false (Interval.certainly_lt i (Interval.make 1.5 4.0));
  Alcotest.check_raises "div by zero interval" Division_by_zero (fun () ->
      ignore (Interval.div Interval.one (Interval.make (-1.0) 1.0)));
  Alcotest.(check bool) "of_q encloses" true (Interval.contains (Interval.of_q (Q.of_ints 1 3)) (1.0 /. 3.0))

(* ------------------------------------------------------------------ *)
(* Series: convergent certificates                                     *)
(* ------------------------------------------------------------------ *)

let test_geometric_sum () =
  (* Σ (1/2)^n from 0 = 2 *)
  let term n = 0.5 ** float_of_int n in
  let s = Series.sum_exn ~start:0 term ~tail:(Series.Tail.Geometric { index = 0; first = 1.0; ratio = 0.5 }) ~upto:50 in
  Alcotest.(check bool) "encloses 2" true (Interval.contains s 2.0);
  Alcotest.(check bool) "tight" true (Interval.width s < 1e-9)

let test_p_series_sum () =
  (* Σ 1/n² = π²/6 *)
  let term n = 1.0 /. (float_of_int n *. float_of_int n) in
  let s = Series.sum_exn ~start:1 term ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 }) ~upto:2000 in
  Alcotest.(check bool) "encloses pi^2/6" true (Interval.contains s (Float.pi *. Float.pi /. 6.0));
  Alcotest.(check bool) "reasonably tight" true (Interval.width s < 1e-2)

let test_exponential_sum () =
  let term n = 3.0 *. (0.25 ** float_of_int n) in
  let s = Series.sum_exn ~start:1 term ~tail:(Series.Tail.Exponential { index = 1; coeff = 3.0; rate = 0.25 }) ~upto:60 in
  Alcotest.(check bool) "encloses 1" true (Interval.contains s 1.0)

let test_finite_support () =
  let term n = if n <= 3 then 1.0 else 0.0 in
  let s = Series.sum_exn ~start:0 term ~tail:(Series.Tail.Finite_support { last = 3 }) ~upto:10 in
  Alcotest.(check bool) "encloses 4" true (Interval.contains s 4.0);
  Alcotest.(check bool) "exact-ish" true (Interval.width s < 1e-12)

let test_certificate_rejection () =
  (* a certificate whose pointwise bound the terms violate must be rejected *)
  let term n = 1.0 /. float_of_int n in
  (match Series.sum ~start:1 term ~tail:(Series.Tail.P_series { index = 1; coeff = 0.5; p = 2.0 }) ~upto:100 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "harmonic series accepted under a p-series certificate");
  (* negative terms are rejected *)
  (match Series.sum ~start:1 (fun n -> -.float_of_int n) ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 }) ~upto:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative terms accepted");
  (* bad parameters are rejected *)
  match Series.sum ~start:1 term ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 1.0 }) ~upto:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p = 1 accepted"

(* ------------------------------------------------------------------ *)
(* Series: divergence certificates                                     *)
(* ------------------------------------------------------------------ *)

let test_harmonic_divergence () =
  let term n = 1.0 /. float_of_int n in
  match Series.certify_divergence ~start:1 term ~certificate:(Series.Divergence.Harmonic { index = 1; coeff = 1.0 }) ~upto:1000 with
  | Ok (Series.Diverges { partial; _ }) -> Alcotest.(check bool) "partial grows" true (partial > 7.0)
  | Ok (Series.Converges _) -> Alcotest.fail "wrong verdict"
  | Error e -> Alcotest.fail e

let test_divergence_rejection () =
  (* 1/n² does not admit a harmonic minorant *)
  let term n = 1.0 /. (float_of_int n *. float_of_int n) in
  match Series.certify_divergence ~start:1 term ~certificate:(Series.Divergence.Harmonic { index = 1; coeff = 1.0 }) ~upto:100 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p-series accepted under harmonic minorant"

let test_subsequence_divergence () =
  (* terms: 1/k at even indices 2k, tiny elsewhere *)
  let term n = if n mod 2 = 0 then 2.0 /. float_of_int n else Float.ldexp 1.0 (-n) in
  let cert = Series.Divergence.Subsequence_harmonic { index = 1; pick = (fun k -> 2 * k); coeff = 1.0 } in
  (match Series.certify_divergence ~start:1 term ~certificate:cert ~upto:500 with
  | Ok (Series.Diverges _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "subsequence certificate rejected");
  (* non-increasing pick is rejected *)
  let bad = Series.Divergence.Subsequence_harmonic { index = 1; pick = (fun _ -> 2); coeff = 1.0 } in
  match Series.certify_divergence ~start:1 term ~certificate:bad ~upto:500 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-monotone pick accepted"

let test_minorant_partial () =
  let h = Series.Divergence.Harmonic { index = 1; coeff = 1.0 } in
  let m1000 = Series.Divergence.minorant_partial_sum h 1000 in
  Alcotest.(check bool) "ln lower bound" true (m1000 > 6.9 && m1000 < 7.0);
  let b = Series.Divergence.Bounded_below { index = 5; bound = 2.0 } in
  Alcotest.(check (float 1e-9)) "arithmetic" 12.0 (Series.Divergence.minorant_partial_sum b 10)

(* ------------------------------------------------------------------ *)
(* Series: the per-term certificate test                               *)
(* ------------------------------------------------------------------ *)

(* The engine skips the bound for a zero term where the bound cannot be
   NaN. The reference below never skips: it evaluates the bound for every
   term, applies the slackened test with the slack floor computed inline,
   and folds the terms with [Interval.add]. The engine must agree with it
   on the enclosure bits or on the certificate error's text (which names
   the index). *)
let reference_bound tail n =
  match tail with
  | Series.Tail.Finite_support { last } -> if n > last then 0.0 else Float.infinity
  | Geometric { index; first; ratio } -> first *. (ratio ** float_of_int (n - index))
  | P_series { coeff; p; _ } -> coeff /. (float_of_int n ** p)
  | Exponential { coeff; rate; _ } -> coeff *. (rate ** float_of_int n)

let reference_within tail n a =
  let b = reference_bound tail n in
  a <= b +. ((if Float.abs b > Float.min_float then Float.abs b else Float.min_float) *. 0x1p-48)

let reference_tail_bound tail n =
  match tail with
  | Series.Tail.Finite_support { last } -> if n > last then Some 0.0 else None
  | _ ->
    if n < Series.Tail.start_index tail then None
    else
      let b = Series.Tail.bound_from tail n in
      if Float.is_nan b || b < 0.0 then None else Some b

type outcome = Enclosure of Int64.t * Int64.t | Rejected of string

let show_outcome = function
  | Enclosure (lo, hi) -> Printf.sprintf "enclosure [%h, %h]" (Int64.float_of_bits lo) (Int64.float_of_bits hi)
  | Rejected msg -> msg

let enclosure i = Enclosure (Int64.bits_of_float (Interval.lo i), Int64.bits_of_float (Interval.hi i))
let rejected msg = Rejected (Ipdb_run.Error.message (Ipdb_run.Error.Certificate { what = "tail certificate"; msg }))

let reference_sum tail f ~start ~upto =
  let check_from = Stdlib.max start (Series.Tail.start_index tail) in
  let rec go n acc =
    if n > upto then
      match reference_tail_bound tail (upto + 1) with
      | Some b -> enclosure (Interval.add acc (Interval.make 0.0 b))
      | None -> rejected "no tail bound at the cutoff (finite support not exhausted?)"
    else
      let a = f n in
      if n >= check_from && not (reference_within tail n a) then
        rejected (Printf.sprintf "term %d = %g exceeds certified bound %g" n a (reference_bound tail n))
      else go (n + 1) (Interval.add acc (Interval.point a))
  in
  go start Interval.zero

let engine_sum tail f ~start ~upto =
  match Series.sum_budgeted ~chunk:7 ~start f ~tail ~upto with
  | Ok (Series.Complete e) -> enclosure e
  | Ok (Series.Exhausted _) -> Rejected "exhausted under an unlimited budget"
  | Error e -> Rejected (Ipdb_run.Error.message e)

(* Certificates that pass [params_ok] but sit at the edges: zero, subnormal
   and infinite [first]/[coeff], powers that underflow to 0 within a few
   indices, a geometric [index] whose [n - index] wraps, and exponential
   tails with a negative index, where [0 ** n] is infinite. *)
let gen_tail =
  QCheck.Gen.(
    let scale = oneofl [ 0.0; 5e-324; 1e-300; 1.0; 1e300; Float.max_float; Float.infinity ] in
    oneof
      [ map (fun last -> Series.Tail.Finite_support { last }) (oneofl [ -1; 0; 5; 1040 ]);
        map3
          (fun index first ratio -> Series.Tail.Geometric { index; first; ratio })
          (oneofl [ 0; 3; -2; min_int ])
          scale
          (oneofl [ 0.0; 1e-100; 1e-10; 0.5; 0.999 ]);
        map3
          (fun index coeff p -> Series.Tail.P_series { index; coeff; p })
          (oneofl [ 1; 2; 5 ])
          scale
          (oneofl [ 1.5; 2.0; 50.0; 400.0; Float.infinity ]);
        map3
          (fun index coeff rate -> Series.Tail.Exponential { index; coeff; rate })
          (oneofl [ -5; 0; 3 ])
          scale
          (oneofl [ 0.0; 1e-200; 0.5; 0.9 ]) ])

(* A term near the bound at [n]: either zero, a subnormal within four
   ulps of the slack floor min_float * 2^-48 = 16 * 2^-1074, or a value
   at or one ulp either side of the bound and of the slackened bound. *)
let gen_term tail n =
  QCheck.Gen.(
    let b = reference_bound tail n in
    let near_bound =
      if Float.is_nan b then [ 0.0 ]
      else
        let s = b +. Float.abs b *. 0x1p-48 in
        List.filter
          (fun x -> not (Float.is_nan x || x < 0.0))
          [ Float.pred b; b; Float.succ b; Float.pred s; s; Float.succ s ]
    in
    frequency
      [ (3, oneofl [ 0.0; -0.0 ]);
        (2, map (fun k -> Int64.float_of_bits (Int64.of_int (16 + k))) (-4 -- 4));
        (3, oneofl (if near_bound = [] then [ 0.0 ] else near_bound));
        (1, oneofl [ 1.0; 1e-300; Float.min_float ]) ])

let arb_certified_case =
  let gen =
    QCheck.Gen.(
      let* tail = gen_tail in
      let* start = oneofl [ -3; 0; 1; 1018; 1045; 1068 ] in
      let* len = 0 -- 30 in
      let upto = start + len - 1 in
      let rec terms n acc = if n < start then return acc else let* a = gen_term tail n in terms (n - 1) (a :: acc) in
      let* terms = terms upto [] in
      return (tail, start, upto, Array.of_list terms))
  in
  QCheck.make gen ~print:(fun (tail, start, upto, terms) ->
      Format.asprintf "%a, indices %d..%d, terms [%s]" Series.Tail.pp tail start upto
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") terms))))

let engine_matches_slackened_test =
  prop ~count:2000 "the engine decides every term as the slackened test" arb_certified_case
    (fun (tail, start, upto, terms) ->
      let f n = terms.(n - start) in
      let want = reference_sum tail f ~start ~upto and got = engine_sum tail f ~start ~upto in
      want = got
      || QCheck.Test.fail_reportf "engine: %s\nreference: %s" (show_outcome got) (show_outcome want))

let test_geometric_tail_exact () =
  Alcotest.(check bool) "exact 2^-n/(1/2)" true
    (Q.equal (Q.of_ints 1 2) (Series.geometric_tail_exact Q.half 2));
  Alcotest.check_raises "ratio 1 rejected" (Invalid_argument "Series.geometric_tail_exact: need 0 <= r < 1")
    (fun () -> ignore (Series.geometric_tail_exact Q.one 2))

let () =
  Alcotest.run "series"
    [ ("interval-unit", [ Alcotest.test_case "basics" `Quick test_interval_basics ]);
      ("interval-props", interval_props);
      ( "convergence",
        [ Alcotest.test_case "geometric" `Quick test_geometric_sum;
          Alcotest.test_case "p-series (Basel)" `Quick test_p_series_sum;
          Alcotest.test_case "exponential" `Quick test_exponential_sum;
          Alcotest.test_case "finite support" `Quick test_finite_support;
          Alcotest.test_case "bad certificates rejected" `Quick test_certificate_rejection;
          Alcotest.test_case "exact geometric tail" `Quick test_geometric_tail_exact;
          engine_matches_slackened_test
        ] );
      ( "divergence",
        [ Alcotest.test_case "harmonic" `Quick test_harmonic_divergence;
          Alcotest.test_case "rejection" `Quick test_divergence_rejection;
          Alcotest.test_case "subsequence minorant" `Quick test_subsequence_divergence;
          Alcotest.test_case "minorant partial sums" `Quick test_minorant_partial
        ] )
    ]
