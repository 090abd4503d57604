(* Differential oracle for the filtered/fast arithmetic (DESIGN.md §14).

   Every fast-path operation — native-int shortcuts, Karatsuba, the GMP-style
   rational add/mul with proven-coprime skipped GCDs, the float-interval
   comparison filter, batched accumulation, memoised powers — is replayed
   against the unfiltered reference implementation and must agree bit for
   bit.  Operands are derived deterministically from a single QCheck-shrunk
   integer seed (the test_randomized.ml pattern), so a red case shrinks to a
   small seed and reproduces exactly; IPDB_SEED shifts the whole suite to a
   fresh region of the seed space.

   Generators are biased hard toward the decision frontiers:
   - the native-int guards (2^30 for the add path, 2^31 for mul/compare,
     2^53 for machine-division float conversion, max_int/2, max_int),
   - denormal / barely-normal floats around the filter's magnitude range,
   - adversarial pairs closer together than the filter width, forcing the
     interval to straddle the decision and the exact fallback to run. *)

module Arith = Ipdb_bignum.Arith
module Nat = Ipdb_bignum.Nat
module Zint = Ipdb_bignum.Zint
module Q = Ipdb_bignum.Q

let base_seed =
  match Sys.getenv_opt "IPDB_SEED" with
  | None -> 0
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None ->
      Printf.eprintf "test_bignum_diff: ignoring non-integer IPDB_SEED=%S\n%!" s;
      0)

let arb_seed =
  QCheck.make
    ~print:(fun i -> Printf.sprintf "%d (effective seed; IPDB_SEED=%d)" i base_seed)
    ~shrink:QCheck.Shrink.int
    QCheck.Gen.(map (fun i -> i + base_seed) (0 -- 10_000_000))

let prop ?(count = 1000) name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb_seed (fun seed ->
         f (Random.State.make [| 0x5eed; seed |])))

(* ------------------------------------------------------------------ *)
(* Seed-driven operand generators                                      *)
(* ------------------------------------------------------------------ *)

(* Anchors at every guard the fast paths branch on. *)
let anchors =
  [| 0; 1; 2; 3; 7;
     (1 lsl 29) - 1; 1 lsl 29;
     (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1;
     (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1;
     (1 lsl 52) - 1; 1 lsl 52;
     (1 lsl 53) - 1; 1 lsl 53; (1 lsl 53) + 1;
     (max_int / 2) - 1; max_int / 2; (max_int / 2) + 1;
     max_int - 2; max_int - 1; max_int
  |]

let pick st arr = arr.(Random.State.int st (Array.length arr))

(* A non-negative int straddling the overflow frontier: an anchor nudged by
   a small delta, or a uniform draw from a random bit width. *)
let gen_boundary_nat_int st =
  if Random.State.bool st then begin
    let a = pick st anchors in
    let d = Random.State.int st 7 - 3 in
    let v = if d >= 0 then (if a > max_int - d then max_int else a + d) else Stdlib.max 0 (a + d) in
    v
  end
  else
    let bits = 1 + Random.State.int st 62 in
    Random.State.full_int st max_int land ((1 lsl bits) - 1)

let gen_boundary_int st =
  let v = gen_boundary_nat_int st in
  if Random.State.bool st then -v else v

let digits st len =
  let b = Bytes.create len in
  Bytes.set b 0 (Char.chr (Char.code '1' + Random.State.int st 9));
  for i = 1 to len - 1 do
    Bytes.set b i (Char.chr (Char.code '0' + Random.State.int st 10))
  done;
  Bytes.to_string b

(* Mixed-magnitude Nat: mostly frontier ints (the fast paths), sometimes
   genuinely big (the limb algorithms, incl. Karatsuba above 24 limbs). *)
let gen_nat st =
  match Random.State.int st 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Nat.of_int (gen_boundary_nat_int st)
  | 6 | 7 -> Nat.of_string (digits st (1 + Random.State.int st 40))
  | _ ->
    (* comfortably past the 24-limb Karatsuba threshold (~217 digits) *)
    Nat.of_string (digits st (200 + Random.State.int st 120))

let gen_zint st =
  let n = gen_nat st in
  if Random.State.bool st then Zint.neg (Zint.of_nat n) else Zint.of_nat n

let gen_q st =
  match Random.State.int st 8 with
  | 0 | 1 | 2 | 3 ->
    (* small fraction: both legs of the int fast path *)
    let d = 1 + gen_boundary_nat_int st in
    Q.of_ints (gen_boundary_int st) d
  | 4 | 5 ->
    let n = gen_zint st in
    let d = gen_nat st in
    let d = if Nat.is_zero d then Nat.one else d in
    Q.make n (Zint.of_nat d)
  | 6 ->
    (* exact float values, incl. denormals and the filter's range edges *)
    let e = Random.State.int st 2100 - 1090 in
    let m = 1 + Random.State.int st 4093 in
    (* underflow to 0.0 is fine (exact); the upper end stays finite *)
    Q.of_float_exact (Float.ldexp (float_of_int m) e)
  | _ ->
    (* powers of ten walking across the filter's min/max magnitude gates *)
    let e = Random.State.int st 641 - 320 in
    let p = Q.pow (Q.of_int 10) e in
    if Random.State.bool st then Q.neg p else p

(* A pair closer together than the filter width: the enclosures overlap, so
   compare MUST take the exact fallback. *)
let gen_straddle_pair st =
  let a = gen_q st in
  let a = if Q.is_zero a then Q.one else a in
  let rel = Q.of_ints 1 max_int in
  let tiny = Q.mul (Q.mul a rel) rel (* |a| · 2^-124ish: far below eps = 2^-40 *) in
  match Random.State.int st 3 with
  | 0 -> (a, Q.add a tiny)
  | 1 -> (a, Q.sub a tiny)
  | _ -> (a, a)

(* ------------------------------------------------------------------ *)
(* Nat: limb algorithms vs their reference duals                        *)
(* ------------------------------------------------------------------ *)

(* A Nat of exactly [limbs] 30-bit limbs (top limb nonzero). *)
let nat_of_limbs st limbs =
  let r = ref Nat.zero in
  for i = 1 to limbs do
    let limb = if i = 1 then 1 + Random.State.int st ((1 lsl 30) - 1) else Random.State.bits st in
    r := Nat.add (Nat.shift_left !r 30) (Nat.of_int limb)
  done;
  !r

(* The decimal conversion as it was before the in-place division:
   repeated [divmod] by 10^9 on fresh quotients. *)
let to_string_by_divmod a =
  if Nat.is_zero a then "0"
  else begin
    let chunk = Nat.of_int 1_000_000_000 in
    let rec go a acc =
      if Nat.is_zero a then acc
      else begin
        let q, r = Nat.divmod a chunk in
        go q (Nat.to_int_exn r :: acc)
      end
    in
    match go a [] with
    | [] -> "0"
    | first :: rest -> String.concat "" (string_of_int first :: List.map (Printf.sprintf "%09d") rest)
  end

let nat_diff =
  [ prop ~count:1500 "mul = mul_classical" (fun st ->
        let a = gen_nat st and b = gen_nat st in
        Nat.equal (Nat.mul a b) (Nat.mul_classical a b));
    (* Unbalanced operands: the long one is cut into blocks (at or above
       the Karatsuba threshold) or multiplied classically (below it). *)
    prop ~count:12 "mul = mul_classical on unbalanced operands" (fun st ->
        let short = pick st [| 1; 40; Nat.karatsuba_threshold; Nat.karatsuba_threshold + 7; 150 |] in
        let long = pick st [| (2 * short) + 1; (5 * short) + 3; 4000 |] in
        let a = nat_of_limbs st short and b = nat_of_limbs st long in
        Nat.equal (Nat.mul a b) (Nat.mul_classical a b) && Nat.equal (Nat.mul b a) (Nat.mul_classical a b));
    prop ~count:3 "to_string = divmod conversion on 4000-limb values" (fun st ->
        let a = nat_of_limbs st (4000 + Random.State.int st 100) in
        String.equal (Nat.to_string a) (to_string_by_divmod a));
    prop ~count:300 "to_string = divmod conversion" (fun st ->
        let a = gen_nat st in
        String.equal (Nat.to_string a) (to_string_by_divmod a));
    prop ~count:1500 "divmod = divmod_reference" (fun st ->
        let a = gen_nat st and b = gen_nat st in
        let b = if Nat.is_zero b then Nat.one else b in
        let q1, r1 = Nat.divmod a b and q2, r2 = Nat.divmod_reference a b in
        Nat.equal q1 q2 && Nat.equal r1 r2);
    prop ~count:1500 "gcd = gcd_reference" (fun st ->
        let a = gen_nat st and b = gen_nat st in
        Nat.equal (Nat.gcd a b) (Nat.gcd_reference a b))
  ]

(* ------------------------------------------------------------------ *)
(* Zint: checked-overflow small paths vs Reference                      *)
(* ------------------------------------------------------------------ *)

let zint_diff =
  [ prop ~count:1500 "add/sub = Reference" (fun st ->
        let a = gen_zint st and b = gen_zint st in
        Zint.equal (Zint.add a b) (Zint.Reference.add a b)
        && Zint.equal (Zint.sub a b) (Zint.Reference.sub a b));
    prop ~count:1500 "mul = Reference" (fun st ->
        let a = gen_zint st and b = gen_zint st in
        Zint.equal (Zint.mul a b) (Zint.Reference.mul a b));
    prop ~count:1000 "divmod = Reference" (fun st ->
        let a = gen_zint st and b = gen_zint st in
        let b = if Zint.is_zero b then Zint.one else b in
        let q1, r1 = Zint.divmod a b and q2, r2 = Zint.Reference.divmod a b in
        Zint.equal q1 q2 && Zint.equal r1 r2);
    prop ~count:500 "pow = Reference" (fun st ->
        let a = Zint.of_int (gen_boundary_int st) in
        let k = Random.State.int st 9 in
        Zint.equal (Zint.pow a k) (Zint.Reference.pow a k));
    prop ~count:1000 "gcd and compare = Reference" (fun st ->
        let a = gen_zint st and b = gen_zint st in
        Nat.equal (Zint.gcd a b) (Zint.Reference.gcd a b)
        && Zint.compare a b = Zint.Reference.compare a b)
  ]

(* ------------------------------------------------------------------ *)
(* Q: filtered field ops vs Reference, bit for bit                      *)
(* ------------------------------------------------------------------ *)

let canonical c = Zint.is_zero (Q.num c) || Nat.is_one (Nat.gcd (Zint.to_nat (Q.num c)) (Q.den c))

let q_same a b = Q.equal a b && Zint.equal (Q.num a) (Q.num b) && Nat.equal (Q.den a) (Q.den b)

let q_diff =
  [ prop ~count:1500 "add/sub = Reference and canonical" (fun st ->
        let a = gen_q st and b = gen_q st in
        let s = Q.add a b and d = Q.sub a b in
        q_same s (Q.Reference.add a b) && q_same d (Q.Reference.sub a b) && canonical s && canonical d);
    prop ~count:1500 "mul/div = Reference and canonical" (fun st ->
        let a = gen_q st and b = gen_q st in
        let p = Q.mul a b in
        q_same p (Q.Reference.mul a b)
        && canonical p
        && (Q.is_zero b || q_same (Q.div a b) (Q.Reference.div a b)));
    prop ~count:1500 "compare = Reference" (fun st ->
        let a = gen_q st and b = gen_q st in
        Q.compare a b = Q.Reference.compare a b
        && Q.sign a = Q.Reference.compare a Q.zero);
    prop ~count:1500 "compare on straddling pairs = Reference" (fun st ->
        let a, b = gen_straddle_pair st in
        Q.compare a b = Q.Reference.compare a b && Q.compare b a = Q.Reference.compare b a);
    prop ~count:1000 "to_float = Reference.to_float (same bits)" (fun st ->
        let a = gen_q st in
        Int64.equal (Int64.bits_of_float (Q.to_float a)) (Int64.bits_of_float (Q.Reference.to_float a)));
    prop ~count:500 "sum = Reference.sum" (fun st ->
        let n = Random.State.int st 40 in
        let xs = List.init n (fun _ -> gen_q st) in
        q_same (Q.sum xs) (Q.Reference.sum xs));
    prop ~count:500 "pow: fast = forced-reference replay" (fun st ->
        let a = gen_q st in
        let k = Random.State.int st 17 - 8 in
        let k = if Q.is_zero a && k < 0 then -k else k in
        let fast = Q.pow a k in
        let slow = Arith.with_reference true (fun () -> Q.pow a k) in
        q_same fast slow)
  ]

(* ------------------------------------------------------------------ *)
(* Accum, Powtab, Filter                                                *)
(* ------------------------------------------------------------------ *)

let helper_diff =
  [ prop ~count:500 "Accum = eager signed fold" (fun st ->
        let n = Random.State.int st 60 in
        let ops = List.init n (fun _ -> (Random.State.bool st, gen_q st)) in
        let acc = Q.Accum.create () in
        List.iter (fun (add, x) -> if add then Q.Accum.add acc x else Q.Accum.sub acc x) ops;
        let eager =
          List.fold_left (fun t (add, x) -> if add then Q.add t x else Q.sub t x) Q.zero ops
        in
        (* total twice: the accumulator must stay usable *)
        q_same (Q.Accum.total acc) eager && q_same (Q.Accum.total acc) eager);
    (* Terms with >= 10^5-bit denominators take the eager path: a small
       unreduced sum is normalised before a big term joins it, and a big
       sum is never renormalised in full. Every term is c/p^e with a small
       c and one prime p, so each GCD on the way (eager, batched or
       reference) takes a few Euclid steps instead of the ~1 s a random
       10^5-bit GCD costs. *)
    prop ~count:3 "Accum = eager signed fold on 10^5-bit operands" (fun st ->
        let p = pick st [| 3; 7; 11; 13 |] in
        let k = int_of_float (Float.ceil (100_000. /. Float.log2 (float_of_int p))) in
        let pk = Nat.pow (Nat.of_int p) k in
        let term big =
          let c = (1 + Random.State.int st 50) * if Random.State.bool st then 1 else -1 in
          let pe = Nat.pow (Nat.of_int p) (Random.State.int st 4) in
          Q.make (Zint.of_int c) (Zint.of_nat (if big then Nat.mul pk pe else pe))
        in
        (* small, small, big (joins an unreduced sum), small (onto a big
           sum), big (big + big), small *)
        let ops = List.map (fun big -> (Random.State.bool st, term big)) [ false; false; true; false; true; false ] in
        let acc = Q.Accum.create () in
        List.iter (fun (add, x) -> if add then Q.Accum.add acc x else Q.Accum.sub acc x) ops;
        let eager =
          List.fold_left (fun t (add, x) -> if add then Q.add t x else Q.sub t x) Q.zero ops
        in
        q_same (Q.Accum.total acc) eager);
    prop ~count:500 "Powtab = Q.pow across a shared table" (fun st ->
        let b = gen_q st in
        let b = if Q.is_zero b then Q.half else b in
        let tab = Q.Powtab.create b in
        let ok = ref true in
        for _ = 1 to 12 do
          let k = Random.State.int st 61 - 10 in
          if not (q_same (Q.Powtab.pow tab k) (Q.pow b k)) then ok := false
        done;
        !ok);
    prop ~count:1000 "Filter.of_q encloses the exact value" (fun st ->
        let a = gen_q st in
        let f = Q.Filter.of_q a in
        let lo_ok =
          if Float.is_finite f.Q.Filter.lo then Q.leq (Q.of_float_exact f.Q.Filter.lo) a
          else f.Q.Filter.lo = Float.neg_infinity
        in
        let hi_ok =
          if Float.is_finite f.Q.Filter.hi then Q.leq a (Q.of_float_exact f.Q.Filter.hi)
          else f.Q.Filter.hi = Float.infinity
        in
        lo_ok && hi_ok);
    prop ~count:1000 "Filter decisions agree with exact compare" (fun st ->
        let a, b = if Random.State.bool st then (gen_q st, gen_q st) else gen_straddle_pair st in
        let fa = Q.Filter.of_q a and fb = Q.Filter.of_q b in
        (match Q.Filter.compare_opt fa fb with
        | Some c -> c = Q.Reference.compare a b
        | None -> true)
        && (match Q.Filter.sign_opt fa with Some s -> s = Q.sign a | None -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Whole-expression replay under the mode switch                        *)
(* ------------------------------------------------------------------ *)

let replay_diff =
  [ prop ~count:500 "composed expression: fast = reference replay" (fun st ->
        let a = gen_q st and b = gen_q st and c = gen_q st in
        let f () =
          let t = Q.add (Q.mul a b) (Q.sub c a) in
          let t = if Q.is_zero t then Q.one else t in
          Q.add (Q.div (Q.mul t b) t) (Q.sum [ a; b; c; Q.neg t ])
        in
        q_same (f ()) (Arith.with_reference true f))
  ]

let () =
  Alcotest.run "bignum-diff"
    [ ("nat", nat_diff); ("zint", zint_diff); ("q", q_diff); ("helpers", helper_diff);
      ("replay", replay_diff)
    ]
