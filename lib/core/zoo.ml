module Q = Ipdb_bignum.Q
module Zint = Ipdb_bignum.Zint
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Instance = Ipdb_relational.Instance
module Fact = Ipdb_relational.Fact
module Fo = Ipdb_logic.Fo
module View = Ipdb_logic.View
module Series = Ipdb_series.Series
module Interval = Ipdb_series.Interval
module Family = Ipdb_pdb.Family
module Ti = Ipdb_pdb.Ti
module Bid = Ipdb_pdb.Bid
module Discrete = Ipdb_dist.Discrete

type certified_family = {
  family : Family.t;
  moment_cert : int -> Criteria.certificate option;
  thm53_cert : int -> Criteria.certificate option;
  size_bound : int option;
  domain_disjoint : bool;
  expected_in_foti : bool option;
  check_upto : int;
  description : string;
}

let unary_schema = Schema.make [ ("R", 1) ]

(* Memoised power tables for the zoo's recurring exact-weight families:
   (1/2)^n for the geometric distributions and 2^{-i²} (example 5.5), and
   4^i (example 3.5). Each value produced through a table is canonical and
   bit-identical to the direct [Q.pow]/[Zint.pow] formula — the tables are
   domain-safe, so [prob_q] stays callable from pool workers. *)
let half_pows = Q.Powtab.create Q.half
let four_pows = Q.Powtab.create (Q.of_int 4)

(* World with [size] fresh elements, disjoint across indices. *)
let disjoint_world index size =
  Instance.of_list (List.init size (fun j -> Fact.make "R" [ Value.Pair (Value.Int index, Value.Int j) ]))

(* ------------------------------------------------------------------ *)
(* Example 3.5                                                         *)
(* ------------------------------------------------------------------ *)

let example_3_5 =
  let three = Q.of_int 3 in
  let prob_q i = Q.div three (Q.Powtab.pow four_pows i) in
  let family =
    Family.make ~name:"example-3.5" ~schema:unary_schema
      ~instance:(fun i -> disjoint_world i (1 lsl i))
      ~prob:(fun i -> 3.0 *. (0.25 ** float_of_int i))
      ~prob_q
      ~size:(fun i -> if i < 62 then 1 lsl i else max_int)
      ~start:1
      ~prob_tail:(Series.Tail.Exponential { index = 1; coeff = 3.0; rate = 0.25 })
      ()
  in
  {
    family;
    moment_cert =
      (fun k ->
        if k <= 0 then None
        else if k = 1 then
          (* 2^i * 3 * 4^{-i} = 3 * 2^{-i}; the coefficient 6 absorbs the
             factor-2 slack of the size function's max_int cap past i=62 *)
          Some (Criteria.Tail (Series.Tail.Exponential { index = 1; coeff = 6.0; rate = 0.5 }))
        else
          (* 2^{ik} * 3 * 4^{-i} = 3 * 2^{i(k-2)} >= 3 *)
          Some (Criteria.Divergence (Series.Divergence.Bounded_below { index = 1; bound = 3.0 })));
    thm53_cert =
      (fun c ->
        if c < 1 || c > 16 then None
        else
          (* |D_i| P^{c/|D_i|} = 2^i (3 4^{-i})^{c 2^{-i}} ~ 2^i: past i=4+c
             every term exceeds 2 (terms blow up doubly fast). *)
          Some (Criteria.Divergence (Series.Divergence.Bounded_below { index = 4 + c; bound = 2.0 })));
    size_bound = None;
    domain_disjoint = true;
    expected_in_foti = Some false;
    check_upto = 55;
    description = "E(|.|) = 3 but E(|.|^2) infinite: excluded from FO(TI) by Proposition 3.4";
  }

(* ------------------------------------------------------------------ *)
(* Example 3.9                                                         *)
(* ------------------------------------------------------------------ *)

let basel_c = 6.0 /. (Float.pi *. Float.pi)
let log2_ceil n = if n <= 1 then 0 else int_of_float (ceil (log (float_of_int n) /. log 2.0))

(* sup over levels of c * L^k * 2^{-(L-1)/2}: within level L (2^{L-1} < n <=
   2^L) the moment term c*d_n^k/n^2 is at most [coeff]/n^{3/2}. *)
let ex39_moment_coeff k =
  let best = ref 0.0 in
  for l = 1 to 400 do
    let v = basel_c *. (float_of_int l ** float_of_int k) *. (2.0 ** (-.float_of_int (l - 1) /. 2.0)) in
    if v > !best then best := v
  done;
  1.05 *. !best

let example_3_9 =
  let family =
    Family.make ~name:"example-3.9" ~schema:unary_schema
      ~instance:(fun n -> disjoint_world n (log2_ceil n))
      ~size:log2_ceil
      ~prob:(fun n -> basel_c /. (float_of_int n *. float_of_int n))
      ~start:1
      ~prob_tail:(Series.Tail.P_series { index = 1; coeff = basel_c *. 1.0001; p = 2.0 })
      ()
  in
  {
    family;
    moment_cert =
      (fun k ->
        if k < 1 || k > 8 then None
        else Some (Criteria.Tail (Series.Tail.P_series { index = 1; coeff = ex39_moment_coeff k; p = 1.5 })));
    thm53_cert =
      (fun c ->
        if c < 1 || c > 6 then None
        else begin
          (* Within level L the term d_n (c0/n^2)^{c/d_n} is minimised at
             n = 2^L where it equals L * c0^{c/L} * 4^{-c}, which increases
             in L (c0 < 1): a positive floor from level 3 on. *)
          let floor_ = 0.9 *. 3.0 *. (basel_c ** (float_of_int c /. 3.0)) *. (4.0 ** -.float_of_int c) in
          Some (Criteria.Divergence (Series.Divergence.Bounded_below { index = 5; bound = floor_ }))
        end);
    size_bound = None;
    domain_disjoint = true;
    expected_in_foti = Some false;
    check_upto = 100_000;
    description =
      "finite moments of every order, yet not in FO(TI): the Lemma 3.7 bound is violated \
       for all large n (Theorem 3.10)";
  }

let example_3_9_lemma37_data () =
  let prob n = basel_c /. (float_of_int n *. float_of_int n) in
  let adom n = log2_ceil n in
  let a n = 1.0 /. float_of_int n in
  (prob, adom, a)

(* ------------------------------------------------------------------ *)
(* Example 5.5                                                         *)
(* ------------------------------------------------------------------ *)

let example_5_5_normalizer =
  (* x = Σ_{i>=1} 2^{-i²}; terms vanish below double precision past i = 6. *)
  let term i = Float.ldexp 1.0 (-(i * i)) in
  (* 2^{-i²} <= 2^{-1} · 4^{-(i-1)} since i² >= 2i - 1. *)
  Series.sum_exn ~start:1 term
    ~tail:(Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.25 })
    ~upto:40

let example_5_5 =
  let x = Interval.midpoint example_5_5_normalizer in
  let prob_q i =
    (* unnormalised exact weight 2^{-i²} = (1/2)^(i²), memoised
       (Family.truncate_exact renormalises) *)
    Q.Powtab.pow half_pows (i * i)
  in
  let prob i = Float.ldexp 1.0 (-(i * i)) /. x in
  let family =
    Family.make ~name:"example-5.5" ~schema:unary_schema
      ~instance:(fun i -> disjoint_world i i)
      ~size:(fun i -> i)
      ~prob ~prob_q ~start:1
      ~prob_tail:(Series.Tail.Geometric { index = 1; first = prob 1 *. 1.001; ratio = 0.125 })
      ()
  in
  {
    family;
    moment_cert =
      (fun k ->
        if k < 1 || k > 12 then None
        else begin
          let term i = (float_of_int i ** float_of_int k) *. prob i in
          Some (Criteria.Tail (Series.Tail.Geometric { index = k + 1; first = term (k + 1) *. 1.01; ratio = 0.5 }))
        end);
    thm53_cert =
      (fun c ->
        if c < 1 || c > 12 then None
        else begin
          let term i = float_of_int i *. (prob i ** (float_of_int c /. float_of_int i)) in
          Some (Criteria.Tail (Series.Tail.Geometric { index = 4; first = term 4 *. 1.05; ratio = 0.75 }))
        end);
    size_bound = None;
    domain_disjoint = true;
    expected_in_foti = Some true;
    check_upto = 10_000;
    description = "unbounded instance size but in FO(TI): Theorem 5.3 applies with c = 1";
  }

(* ------------------------------------------------------------------ *)
(* Example 5.6 / Proposition D.2                                       *)
(* ------------------------------------------------------------------ *)

let example_5_6_ti =
  Ti.Infinite.make ~name:"example-5.6"
    ~schema:(Schema.make [ ("R", 1) ])
    ~fact:(fun i -> Fact.make "R" [ Value.Int i ])
    ~marginal:(fun i -> 1.0 /. ((float_of_int i *. float_of_int i) +. 1.0))
    ~start:1
    ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 })
    ()

let z_enclosure ~upto =
  (* Z = Π_{i>=1} (1 - p_i) with p_i = 1/(i²+1):
     ln Z = Σ ln(1 - p_i); for i > N, |ln(1-p_i)| <= p_i + p_i² <= 2/i², so
     the tail of the log-sum lies in [-2/N, 0]. *)
  let partial = ref 0.0 in
  for i = 1 to upto do
    let p = 1.0 /. ((float_of_int i *. float_of_int i) +. 1.0) in
    partial := !partial +. log (1.0 -. p)
  done;
  let tail = 2.0 /. float_of_int upto in
  Interval.make (exp (!partial -. tail)) (exp !partial)

let propD2_grouped_term ~c ~z_lo n =
  (* min(1,Z)^c * 2^{n-1} * (p_n/(1-p_n))^c with p_n/(1-p_n) = 1/n². *)
  let zc = Float.min 1.0 z_lo ** float_of_int c in
  zc *. Float.ldexp 1.0 (n - 1) /. (float_of_int n ** (2.0 *. float_of_int c))

let propD2_divergence_cert ~c ~z_lo =
  (* ratio = 2 (n/(n+1))^{2c} >= 1 for n >= 3c; the floor is the term
     there. *)
  let index = (6 * c) + 2 in
  Criteria.Divergence
    (Series.Divergence.Eventually_ratio_ge_one
       { index; floor = propD2_grouped_term ~c ~z_lo index *. 0.99 })

(* ------------------------------------------------------------------ *)
(* Proposition D.3                                                     *)
(* ------------------------------------------------------------------ *)

let propD3_block i =
  let p = Q.div Q.one (Q.of_int (2 * ((i * i) + 1))) in
  [ (Fact.make "R" [ Value.Int i; Value.Int 0 ], p); (Fact.make "R" [ Value.Int i; Value.Int 1 ], p) ]

let propD3_schema = Schema.make [ ("R", 2) ]
let propD3_truncation ~blocks = Bid.Finite.make propD3_schema (List.init blocks (fun i -> propD3_block (i + 1)))

let propD3_stream =
  (* block mass = 2 · 1/(2(i²+1)) = 1/(i²+1): summable, residuals → 1 *)
  Bid.Block_stream.make ~name:"propD3" ~schema:propD3_schema ~block:propD3_block ~start:1
    ~mass_tail:(Series.Tail.P_series { index = 1; coeff = 1.0001; p = 2.0 })
    ()

let propD3_grouped_term ~c ~z_lo n = propD2_grouped_term ~c ~z_lo n /. (2.0 ** float_of_int c)

let propD3_divergence_cert ~c ~z_lo =
  let index = (6 * c) + 2 in
  Criteria.Divergence
    (Series.Divergence.Eventually_ratio_ge_one
       { index; floor = propD3_grouped_term ~c ~z_lo index *. 0.99 })

(* ------------------------------------------------------------------ *)
(* Examples B.2 and B.3                                                *)
(* ------------------------------------------------------------------ *)

let example_b2 =
  Bid.Finite.make
    (Schema.make [ ("S", 1) ])
    [ [ (Fact.make "S" [ Value.Str "a" ], Q.half); (Fact.make "S" [ Value.Str "b" ], Q.half) ] ]

let example_b3 =
  let schema = Schema.make [ ("R", 2) ] in
  let a = Value.Str "a" and b = Value.Str "b" in
  let ti =
    Ti.Finite.make schema
      [ (Fact.make "R" [ a; a ], Q.of_ints 1 3); (Fact.make "R" [ a; b ], Q.of_ints 1 2) ]
  in
  let view =
    View.make
      [ ("T", [ "x"; "z" ], Fo.Exists ("y", Fo.And (Fo.atom "R" [ Fo.v "x"; Fo.v "y" ], Fo.atom "R" [ Fo.v "y"; Fo.v "z" ])))
      ]
  in
  (ti, view)

(* The paper's Appendix B table swaps p and p' (with t = R(a,a), t' = R(a,b),
   p = P(t), p' = P(t')): Φ({t}) = {T(a,a)} with probability p(1-p') and
   Φ({t'}) = ∅, so the image worlds are ∅ ↦ 1-p, {T(a,a)} ↦ p(1-p'),
   {T(a,a), T(a,b)} ↦ pp'. The separation argument (a 3-world image whose
   missing singleton rules out TI and BID) is unaffected. *)
let example_b3_expected p p' =
  let a = Value.Str "a" and b = Value.Str "b" in
  let taa = Instance.of_list [ Fact.make "T" [ a; a ] ] in
  let tt = Instance.of_list [ Fact.make "T" [ a; a ]; Fact.make "T" [ a; b ] ] in
  [ (Instance.empty, Q.one_minus p);
    (taa, Q.mul p (Q.one_minus p'));
    (tt, Q.mul p p')
  ]

(* ------------------------------------------------------------------ *)
(* Car accidents (Section 1)                                           *)
(* ------------------------------------------------------------------ *)

let car_accidents =
  let schema = Schema.make [ ("Accidents", 2) ] in
  let block country lambda =
    {
      Bid.Infinite.label = country;
      fact_of = (fun n -> Fact.make "Accidents" [ Value.Str country; Value.Int n ]);
      dist = Discrete.poisson lambda;
    }
  in
  Bid.Infinite.make ~name:"car-accidents" ~schema
    [ block "DE" 2.3; block "FR" 1.7; block "IL" 0.9; block "US" 6.2 ]

(* ------------------------------------------------------------------ *)
(* Approximate counters (Section 1's other motivating shape)           *)
(* ------------------------------------------------------------------ *)

let approximate_counters =
  (* One geometric-distributed counter per monitored key: a BID-PDB with
     exact rational masses, so truncations verify exactly through the
     Theorem 5.9 construction. *)
  let schema = Schema.make [ ("Counter", 2) ] in
  let block key p =
    {
      Bid.Infinite.label = key;
      fact_of = (fun n -> Fact.make "Counter" [ Value.Str key; Value.Int n ]);
      dist = Discrete.geometric p;
    }
  in
  Bid.Infinite.make ~name:"approximate-counters" ~schema
    [ block "requests" (Q.of_ints 1 3); block "errors" (Q.of_ints 2 3); block "retries" Q.half ]

(* ------------------------------------------------------------------ *)
(* Bounded-size sensor PDB                                             *)
(* ------------------------------------------------------------------ *)

let sensor_bounded =
  let schema = Schema.make [ ("Temp", 2) ] in
  let instance n =
    Instance.of_list
      [ Fact.make "Temp" [ Value.Str "s1"; Value.Int n ];
        Fact.make "Temp" [ Value.Str "s2"; Value.Int (n + 1) ]
      ]
  in
  let prob_q n = Q.Powtab.pow half_pows n in
  let family =
    Family.make ~name:"sensor-bounded" ~schema ~instance
      ~prob:(fun n -> Float.ldexp 1.0 (-n))
      ~prob_q ~start:1
      ~prob_tail:(Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 })
      ()
  in
  {
    family;
    moment_cert =
      (fun k ->
        if k < 1 || k > 30 then None
        else
          Some
            (Criteria.Tail
               (Series.Tail.Geometric { index = 1; first = (2.0 ** float_of_int k) *. 0.5 *. 1.001; ratio = 0.5 })));
    thm53_cert =
      (fun c ->
        if c < 1 || c > 30 then None
        else
          (* 2 * (2^{-n})^{c/2} = 2 * 2^{-cn/2} *)
          Some
            (Criteria.Tail
               (Series.Tail.Geometric
                  { index = 1; first = 2.0 *. (2.0 ** (-.float_of_int c /. 2.0)) *. 1.001; ratio = 2.0 ** (-.float_of_int c /. 2.0) })));
    size_bound = Some 2;
    domain_disjoint = false;
    expected_in_foti = Some true;
    check_upto = 900;
    description = "two-sensor readings, instance size always 2: FO(TI) by Corollary 5.4";
  }

(* ------------------------------------------------------------------ *)
(* The hello-world family: one fact, geometric world weights           *)
(* ------------------------------------------------------------------ *)

let geometric =
  (* |D_n| = 1, P(D_n) = 2^{-n}: the simplest certified family. Every
     series it induces is exactly geometric, so certificates hold at every
     index with no slack and no float-horizon — check_upto = max_int. That
     makes it the stress family for the budgeted engine: huge [upto]
     requests are legitimate, and only the budget stops them. *)
  let prob_q n = Q.Powtab.pow half_pows n in
  let family =
    Family.make ~name:"geometric" ~schema:unary_schema
      ~instance:(fun n -> Instance.of_list [ Fact.make "R" [ Value.Int n ] ])
      ~size:(fun _ -> 1)
      ~prob:(fun n -> Float.ldexp 1.0 (-n))
      ~prob_q ~start:1
      ~prob_tail:(Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 })
      ()
  in
  {
    family;
    moment_cert =
      (fun k ->
        (* 1^k · 2^{-n} = 2^{-n}, independent of k *)
        if k < 1 then None
        else Some (Criteria.Tail (Series.Tail.Geometric { index = 1; first = 0.5; ratio = 0.5 })));
    thm53_cert =
      (fun c ->
        (* 1 · (2^{-n})^{c/1} = 2^{-cn} *)
        if c < 1 || c > 30 then None
        else begin
          let r = Float.ldexp 1.0 (-c) in
          Some (Criteria.Tail (Series.Tail.Geometric { index = 1; first = r; ratio = r }))
        end);
    size_bound = Some 1;
    domain_disjoint = true;
    expected_in_foti = Some true;
    check_upto = max_int;
    description = "single fact per world, P(D_n) = 2^{-n}: trivially in FO(TI); exact certificates at every index";
  }

(* ------------------------------------------------------------------ *)
(* A synthetic companion: killed only by its fourth moment             *)
(* ------------------------------------------------------------------ *)

let sqrt_growth =
  (* |D_n| = ⌈√n⌉, P(D_n) = c/n³ (c = 1/ζ(3)): E(|·|^k) = c Σ n^(k/2-3)
     converges for k <= 3 and diverges at k = 4 — Proposition 3.4 excludes
     it from FO(TI), but only at the fourth moment (Example 3.5 falls at
     the second; the paper's moment condition is a whole hierarchy). *)
  let zeta3 = 1.2020569031595942 in
  let c0 = 1.0 /. zeta3 in
  let size n = int_of_float (ceil (sqrt (float_of_int n))) in
  let family =
    Family.make ~name:"sqrt-growth" ~schema:unary_schema
      ~instance:(fun n -> disjoint_world n (size n))
      ~size
      ~prob:(fun n -> c0 /. (float_of_int n ** 3.0))
      ~start:1
      ~prob_tail:(Series.Tail.P_series { index = 1; coeff = c0 *. 1.0001; p = 3.0 })
      ()
  in
  {
    family;
    moment_cert =
      (fun k ->
        (* term = c0 ⌈√n⌉^k / n³ <= c0 (√n + 1)^k / n³ <= coeff / n^(3-k/2)
           with a small slack for the ceiling *)
        if k < 1 then None
        else if k <= 3 then
          Some
            (Criteria.Tail
               (Series.Tail.P_series
                  { index = 1; coeff = c0 *. (2.0 ** float_of_int k); p = 3.0 -. (float_of_int k /. 2.0) }))
        else if k = 4 then
          (* ⌈√n⌉⁴ >= n² so the term is at least c0/n *)
          Some (Criteria.Divergence (Series.Divergence.Harmonic { index = 1; coeff = c0 *. 0.999 }))
        else None);
    thm53_cert = (fun _ -> None);
    size_bound = None;
    domain_disjoint = true;
    expected_in_foti = Some false;
    check_upto = 200_000;
    description =
      "synthetic: sizes ⌈√n⌉ with P = c/n³ — moments 1..3 finite, 4th infinite: excluded from \
       FO(TI) higher up the Proposition 3.4 hierarchy";
  }

let all_families =
  [ ("example-3.5", example_3_5);
    ("example-3.9", example_3_9);
    ("example-5.5", example_5_5);
    ("geometric", geometric);
    ("sensor-bounded", sensor_bounded);
    ("sqrt-growth", sqrt_growth)
  ]
