(* Order statistics for benchmark samples. Percentiles are nearest-rank
   and given in per-mille (500 = median, 990 = p99), so ranks are exact
   integer arithmetic: no float rounding can move p99 of 1000 samples off
   rank 990. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of per-mille [pm] among [n] samples. *)
let rank ~pm n = max 1 (((pm * n) + 999) / 1000)

(* [percentile ~pm s] on a sorted sample: the smallest value with at
   least pm/1000 of the samples at or below it. *)
let percentile ~pm s =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  s.(min n (rank ~pm n) - 1)

type summary = { median : float; q1 : float; q3 : float; n : int }

let summary xs =
  let s = sorted xs in
  { median = percentile ~pm:500 s; q1 = percentile ~pm:250 s; q3 = percentile ~pm:750 s; n = Array.length s }

(* Samples strictly above the [pm] nearest-rank position. *)
let beyond ~pm n = n - rank ~pm n

(* The highest percentile of the ladder that still has at least ten
   samples beyond it: a p99 read off 400 samples rests on 4 values and
   says nothing about the tail, so those 400 only support p95. [None]
   when even the median is unsupported (fewer than 20 samples). *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let supported_percentile n = List.find_opt (fun pm -> beyond ~pm n >= 10) ladder

let pm_label pm = if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10) else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* The tail of a sample: its highest supported percentile and the value
   there; the maximum when nothing is supported. *)
let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  match supported_percentile n with
  | Some pm -> (pm_label pm, percentile ~pm s)
  | None -> ("max", s.(n - 1))

(* The tail of a long sample as the median of the tails of its
   consecutive windows of at least [window] samples: one burst of stalls
   moves one window's tail, not the figure. Returns the percentile label,
   the value and the number of windows. *)
let windowed_tail ~window xs =
  let n = Array.length xs in
  let k = max 1 (n / window) in
  let part j = Array.sub xs (j * n / k) (((j + 1) * n / k) - (j * n / k)) in
  let tails = Array.init k (fun j -> snd (tail (part j))) in
  (fst (tail (part 0)), (summary tails).median, k)
