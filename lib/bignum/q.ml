type t = { num : Zint.t; den : Nat.t }
(* Invariant: den > 0, gcd(|num|, den) = 1, and num = 0 implies den = 1.
   The representation is canonical, so structural equality is numeric
   equality — in both the fast and the reference arithmetic mode. *)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)
let abs_int n = if n < 0 then -n else n

let make_normalized_reference num den =
  (* den : Nat.t, nonzero — the original eager normaliser. *)
  if Zint.is_zero num then { num = Zint.zero; den = Nat.one }
  else begin
    let g = Nat.gcd (Zint.to_nat num) den in
    if Nat.is_one g then { num; den }
    else begin
      let reduced = Zint.of_nat (Nat.div (Zint.to_nat num) g) in
      { num = (if Zint.is_negative num then Zint.neg reduced else reduced); den = Nat.div den g }
    end
  end

(* Build from already-coprime native parts, d > 0. *)
let of_int_parts n d =
  if n = 0 then { num = Zint.zero; den = Nat.one } else { num = Zint.of_int n; den = Nat.of_int d }

let make_normalized num den =
  if Arith.reference () then make_normalized_reference num den
  else begin
    match (Zint.to_int_opt num, Nat.to_int_opt den) with
    | Some n, Some d when n <> min_int ->
      if n = 0 then { num = Zint.zero; den = Nat.one }
      else begin
        let g = gcd_int (abs_int n) d in
        if g = 1 then { num; den } else of_int_parts (n / g) (d / g)
      end
    | _ -> make_normalized_reference num den
  end

let make num den =
  if Zint.is_zero den then raise Division_by_zero;
  let num = if Zint.is_negative den then Zint.neg num else num in
  make_normalized num (Zint.to_nat den)

let zero = { num = Zint.zero; den = Nat.one }
let one = { num = Zint.one; den = Nat.one }
let two = { num = Zint.of_int 2; den = Nat.one }
let half = { num = Zint.one; den = Nat.two }
let minus_one = { num = Zint.minus_one; den = Nat.one }
let of_int n = { num = Zint.of_int n; den = Nat.one }
let of_ints a b = make (Zint.of_int a) (Zint.of_int b)
let of_zint z = { num = z; den = Nat.one }
let of_nat n = { num = Zint.of_nat n; den = Nat.one }

let of_ints_reduced n d =
  (* Caller contract: d > 0 and gcd(|n|, d) = 1 (e.g. the parts were taken
     from an already-normalised rational). Skips the GCD entirely on the
     fast path; the reference mode re-verifies the contract so a misuse
     fails loudly under IPDB_ARITH_REFERENCE=1. *)
  if d <= 0 then invalid_arg "Q.of_ints_reduced: denominator must be positive";
  if Arith.reference () && n <> min_int && gcd_int (abs_int n) d <> 1 then
    invalid_arg "Q.of_ints_reduced: parts are not coprime";
  if n = min_int then make (Zint.of_int n) (Zint.of_int d) else of_int_parts n d

let num q = q.num
let den q = q.den
let sign q = Zint.sign q.num
let is_zero q = Zint.is_zero q.num
let is_one q = Zint.equal q.num Zint.one && Nat.is_one q.den
let is_integer q = Nat.is_one q.den
let equal a b = Zint.equal a.num b.num && Nat.equal a.den b.den

(* ------------------------------------------------------------------ *)
(* Conversion to float (shared by the comparison filter)                *)
(* ------------------------------------------------------------------ *)

let to_float_reference q =
  (* Scale-aware conversion: huge numerators/denominators must not overflow
     to inf/inf. *)
  let mn, en = Nat.frexp (Zint.to_nat q.num) in
  let md, ed = Nat.frexp q.den in
  if mn = 0.0 then 0.0
  else begin
    let v = Float.ldexp (mn /. md) (en - ed) in
    if Zint.is_negative q.num then -.v else v
  end

let two_pow_53 = 1 lsl 53

let to_float q =
  (* For parts below 2^53 both conversions are exact and the division is
     the single correctly-rounded step, so machine division is
     bit-identical to the frexp route (the quotient is in normal range). *)
  if Arith.reference () then to_float_reference q
  else begin
    match (Zint.to_int_opt q.num, Nat.to_int_opt q.den) with
    | Some n, Some d when n > -two_pow_53 && n < two_pow_53 && d < two_pow_53 ->
      float_of_int n /. float_of_int d
    | _ -> to_float_reference q
  end

(* ------------------------------------------------------------------ *)
(* The float-interval comparison filter                                 *)
(* ------------------------------------------------------------------ *)

module Filter = struct
  type q = t
  type t = { lo : float; hi : float }

  (* The frexp-based conversion truncates the top 54 bits of each part and
     rounds one division, so its relative error is below 2^-50 whenever
     the result is a normal float. The filter widens by 2^-40 — a safety
     factor of ~1000 — and refuses to decide anything outside the
     comfortably-normal range (subnormal enclosures would lose their
     relative-error guarantee). *)
  let eps = Float.ldexp 1.0 (-40)
  let min_mag = 1e-290
  let max_mag = 1e290
  let everything = { lo = Float.neg_infinity; hi = Float.infinity }

  let of_q (q : q) =
    let f = to_float_reference q in
    let m = Float.abs f in
    if m >= min_mag && m <= max_mag then begin
      let slack = m *. eps in
      { lo = f -. slack; hi = f +. slack }
    end
    else everything

  let compare_opt a b = if a.hi < b.lo then Some (-1) else if b.hi < a.lo then Some 1 else None
  let sign_opt a = if a.hi < 0.0 then Some (-1) else if a.lo > 0.0 then Some 1 else None
end

(* ------------------------------------------------------------------ *)
(* Comparison                                                           *)
(* ------------------------------------------------------------------ *)

let compare_reference a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  Zint.compare (Zint.mul a.num (Zint.of_nat b.den)) (Zint.mul b.num (Zint.of_nat a.den))

(* Cross products of parts below 2^31 stay within the native int range. *)
let small_cmp_bound = 1 lsl 31

let compare a b =
  if Arith.reference () then compare_reference a b
  else begin
    let sa = Zint.sign a.num and sb = Zint.sign b.num in
    if sa <> sb then Stdlib.compare sa sb
    else if equal a b then 0
    else begin
      match (Zint.to_int_opt a.num, Nat.to_int_opt a.den, Zint.to_int_opt b.num, Nat.to_int_opt b.den) with
      | Some na, Some da, Some nb, Some db
        when na > -small_cmp_bound && na < small_cmp_bound && da < small_cmp_bound
             && nb > -small_cmp_bound && nb < small_cmp_bound && db < small_cmp_bound ->
        Stdlib.compare (na * db) (nb * da)
      | _ -> (
        (* Distinct values: a certified float enclosure decides unless the
           intervals straddle, in which case fall back to the exact
           cross-multiplication. The filter only ever accelerates the
           decision — it cannot change it. *)
        match Filter.compare_opt (Filter.of_q a) (Filter.of_q b) with
        | Some c -> c
        | None -> compare_reference a b)
    end
  end

let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b
let is_probability q = sign q >= 0 && leq q one
let hash q = Hashtbl.hash (Zint.hash q.num, Nat.hash q.den)
let neg q = { q with num = Zint.neg q.num }
let abs q = { q with num = Zint.abs q.num }

(* ------------------------------------------------------------------ *)
(* Ring operations                                                      *)
(* ------------------------------------------------------------------ *)

let add_reference a b =
  let num = Zint.add (Zint.mul a.num (Zint.of_nat b.den)) (Zint.mul b.num (Zint.of_nat a.den)) in
  make_normalized_reference num (Nat.mul a.den b.den)

(* Parts below 2^30 keep every intermediate (two products and their sum)
   within the native int range. *)
let small_add_bound = 1 lsl 30

let add a b =
  if Arith.reference () then add_reference a b
  else begin
    match (Zint.to_int_opt a.num, Nat.to_int_opt a.den, Zint.to_int_opt b.num, Nat.to_int_opt b.den) with
    | Some na, Some da, Some nb, Some db
      when na > -small_add_bound && na < small_add_bound && da < small_add_bound
           && nb > -small_add_bound && nb < small_add_bound && db < small_add_bound ->
      let n = (na * db) + (nb * da) in
      if n = 0 then zero
      else begin
        let d = da * db in
        let g = gcd_int (abs_int n) d in
        of_int_parts (n / g) (d / g)
      end
    | _ ->
      (* Knuth/GMP addition: with g = gcd(d1, d2), the candidate numerator
         t = n1*(d2/g) + n2*(d1/g) over den d1*(d2/g) only shares factors
         with g, so one small GCD replaces the full-size one. *)
      let g = Nat.gcd a.den b.den in
      if Nat.is_one g then begin
        let num = Zint.add (Zint.mul a.num (Zint.of_nat b.den)) (Zint.mul b.num (Zint.of_nat a.den)) in
        if Zint.is_zero num then zero else { num; den = Nat.mul a.den b.den }
      end
      else begin
        let d2g = Nat.div b.den g and d1g = Nat.div a.den g in
        let t = Zint.add (Zint.mul a.num (Zint.of_nat d2g)) (Zint.mul b.num (Zint.of_nat d1g)) in
        if Zint.is_zero t then zero
        else begin
          let g2 = Nat.gcd (Zint.to_nat t) g in
          let den = Nat.mul a.den d2g in
          if Nat.is_one g2 then { num = t; den }
          else begin
            let reduced = Zint.of_nat (Nat.div (Zint.to_nat t) g2) in
            { num = (if Zint.is_negative t then Zint.neg reduced else reduced); den = Nat.div den g2 }
          end
        end
      end
  end

let sub a b = add a (neg b)

let mul_reference a b = make_normalized_reference (Zint.mul a.num b.num) (Nat.mul a.den b.den)

let mul a b =
  if Arith.reference () then mul_reference a b
  else if Zint.is_zero a.num || Zint.is_zero b.num then zero
  else begin
    match (Zint.to_int_opt a.num, Nat.to_int_opt a.den, Zint.to_int_opt b.num, Nat.to_int_opt b.den) with
    | Some na, Some da, Some nb, Some db
      when na > -small_cmp_bound && na < small_cmp_bound && da < small_cmp_bound
           && nb > -small_cmp_bound && nb < small_cmp_bound && db < small_cmp_bound ->
      (* Cross-reduce first so the products are over coprime parts. *)
      let g1 = gcd_int (abs_int na) db and g2 = gcd_int (abs_int nb) da in
      of_int_parts (na / g1 * (nb / g2)) (da / g2 * (db / g1))
    | _ ->
      (* GMP multiplication: cross-cancel before multiplying, so the two
         GCDs run on operand-sized values and the products are already in
         lowest terms. *)
      let na = Zint.to_nat a.num and nb = Zint.to_nat b.num in
      let g1 = Nat.gcd na b.den and g2 = Nat.gcd nb a.den in
      let na' = if Nat.is_one g1 then na else Nat.div na g1 in
      let nb' = if Nat.is_one g2 then nb else Nat.div nb g2 in
      let da' = if Nat.is_one g2 then a.den else Nat.div a.den g2 in
      let db' = if Nat.is_one g1 then b.den else Nat.div b.den g1 in
      let mag = Nat.mul na' nb' in
      let neg_sign = Zint.is_negative a.num <> Zint.is_negative b.num in
      let num = Zint.of_nat mag in
      { num = (if neg_sign then Zint.neg num else num); den = Nat.mul da' db' }
  end

let inv q =
  if is_zero q then raise Division_by_zero;
  let den_as_num = Zint.of_nat q.den in
  if Zint.is_negative q.num then { num = Zint.neg den_as_num; den = Zint.to_nat q.num }
  else { num = den_as_num; den = Zint.to_nat q.num }

let div a b = mul a (inv b)

let pow q k =
  if k >= 0 then { num = Zint.pow q.num k; den = Nat.pow q.den k } else inv { num = Zint.pow q.num (-k); den = Nat.pow q.den (-k) }

let one_minus q = sub one q

(* ------------------------------------------------------------------ *)
(* Batched-GCD accumulation                                             *)
(* ------------------------------------------------------------------ *)

module Accum = struct
  type q = t

  type t = { mutable num : Zint.t; mutable den : Nat.t }
  (* Unnormalised partial sum num/den (den > 0). Normalisation is batched:
     it runs only when the denominator outgrows [normalize_bits], and once
     more in [total]. Invariant: a denominator above [normalize_bits] is
     canonical. Once a term or the reduced sum is that large, batching
     would only grow an unreduced sum whose next normalisation is a
     full-size GCD, so such terms fold eagerly through the GMP-style [add]
     instead. The committed value is identical to an eagerly normalised
     left fold — same rational, same canonical form. *)

  let normalize_bits = 4096

  let create () = { num = Zint.zero; den = Nat.one }
  let of_q (q : q) = { num = q.num; den = q.den }

  let set acc (s : q) =
    acc.num <- s.num;
    acc.den <- s.den

  let big den = Nat.bit_length den > normalize_bits
  let total acc : q = if big acc.den then { num = acc.num; den = acc.den } else make_normalized acc.num acc.den

  let add acc (q : q) =
    if Arith.reference () then
      (* Reference: eager normalisation at every step. *)
      set acc (add_reference { num = acc.num; den = acc.den } q)
    else if big acc.den || big q.den then
      (* a big [acc] is canonical already; a small unreduced one is
         normalised first (cheap), so [add] sees two canonical operands *)
      set acc (add (total acc) q)
    else begin
      acc.num <- Zint.add (Zint.mul acc.num (Zint.of_nat q.den)) (Zint.mul q.num (Zint.of_nat acc.den));
      acc.den <- Nat.mul acc.den q.den;
      if big acc.den then set acc (make_normalized acc.num acc.den)
    end

  let sub acc (q : q) = add acc (neg q)
end

let sum qs =
  if Arith.reference () then List.fold_left add zero qs
  else begin
    let acc = Accum.create () in
    List.iter (Accum.add acc) qs;
    Accum.total acc
  end

let prod qs = List.fold_left mul one qs
let mediant a b = make (Zint.add a.num b.num) (Zint.add (Zint.of_nat a.den) (Zint.of_nat b.den))

(* ------------------------------------------------------------------ *)
(* Memoised power products                                              *)
(* ------------------------------------------------------------------ *)

module Powtab = struct
  type q = t

  type t = { base : q; tab : q array Atomic.t }
  (* tab.(i) = base^i; extended by copy-and-CAS so concurrent domains can
     read lock-free (a lost race only recomputes, never corrupts). *)

  let create base = { base; tab = Atomic.make [| one |] }

  (* Beyond this exponent the table (quadratic total size in the largest
     exponent) costs more memory than the memoisation saves: compute
     directly instead of growing. *)
  let memo_max = 4096

  let rec pow t k =
    if k < 0 then inv (pow t (-k))
    else if Arith.reference () || k > memo_max then
      (* Reference mode (or an exponent past the memo cap): recompute. *)
      { num = Zint.pow t.base.num k; den = Nat.pow t.base.den k }
    else begin
      let tab = Atomic.get t.tab in
      let len = Array.length tab in
      if k < len then tab.(k)
      else begin
        let len' = Stdlib.max (k + 1) (2 * len) in
        let tab' = Array.make len' one in
        Array.blit tab 0 tab' 0 len;
        for i = len to len' - 1 do
          tab'.(i) <- mul tab'.(i - 1) t.base
        done;
        (* Successive multiplication of canonical values yields the same
           canonical powers as Q.pow; the differential suite checks it. *)
        ignore (Atomic.compare_and_set t.tab tab tab');
        (Atomic.get t.tab).(k)
      end
    end

  let base t = t.base
end

let to_string q = if is_integer q then Zint.to_string q.num else Zint.to_string q.num ^ "/" ^ Nat.to_string q.den

let to_decimal_string ?(digits = 12) q =
  let neg_sign = sign q < 0 in
  let n = Zint.to_nat q.num in
  let ip, rest = Nat.divmod n q.den in
  let scaled = Nat.mul rest (Nat.pow Nat.ten digits) in
  let frac = Nat.div scaled q.den in
  let frac_str = Nat.to_string frac in
  let frac_str = String.make (Stdlib.max 0 (digits - String.length frac_str)) '0' ^ frac_str in
  Printf.sprintf "%s%s.%s" (if neg_sign then "-" else "") (Nat.to_string ip) frac_str

let of_float_exact f =
  if not (Float.is_finite f) then invalid_arg "Q.of_float_exact: not finite";
  let m, e = Float.frexp f in
  (* m * 2^53 is an integer for finite doubles. *)
  let mi = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
  let e = e - 53 in
  let mag = of_zint (Zint.of_int mi) in
  if e >= 0 then mul mag (of_zint (Zint.of_nat (Nat.shift_left Nat.one e)))
  else div mag (of_zint (Zint.of_nat (Nat.shift_left Nat.one (-e))))

let of_string s =
  let s = String.trim s in
  match String.index_opt s '/' with
  | Some i ->
    let a = Zint.of_string (String.sub s 0 i) in
    let b = Zint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make a b
  | None -> (
    match String.index_opt s '.' with
    | None -> of_zint (Zint.of_string s)
    | Some i ->
      let ip = String.sub s 0 i in
      let fp = String.sub s (i + 1) (String.length s - i - 1) in
      let neg_sign = String.length ip > 0 && ip.[0] = '-' in
      let ipq = of_zint (Zint.of_string (if ip = "" || ip = "-" || ip = "+" then ip ^ "0" else ip)) in
      let fpq =
        if fp = "" then zero
        else make (Zint.of_nat (Nat.of_string fp)) (Zint.of_nat (Nat.pow Nat.ten (String.length fp)))
      in
      if neg_sign then sub ipq fpq else add ipq fpq)

module Reference = struct
  let add = add_reference
  let sub a b = add_reference a (neg b)
  let mul = mul_reference
  let div a b = mul_reference a (inv b)
  let compare = compare_reference
  let sum qs = List.fold_left add_reference zero qs
  let to_float = to_float_reference
end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( > ) = gt
  let ( >= ) = geq
end

let pp fmt q = Format.pp_print_string fmt (to_string q)
