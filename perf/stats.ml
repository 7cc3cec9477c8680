(* Order statistics over float samples.  Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive"
   method), so a spread printed here matches the one an external
   checker computes from the same values. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, median, q3); a single sample is its own quartiles *)
let quartiles values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, median values, q 3)

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize values =
  let q1, median, q3 = quartiles values in
  { median; q1; q3; n = List.length values }

(* interquartile range as a share of the median *)
let rel_iqr values =
  let q1, med, q3 = quartiles values in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* A log-linear histogram of non-negative integers (nanoseconds): 32
   sub-buckets per power of two, so a percentile read from it is within
   ~3% of the exact value while memory stays fixed however many
   samples arrive. *)
module Hist = struct
  let sub = 32
  let octaves = 48

  type t = { counts : int array; mutable total : int; mutable max : int }

  let create () = { counts = Array.make (sub * octaves) 0; total = 0; max = 0 }

  let bucket v =
    if v < sub then v
    else
      let rec log2 x k = if x < 2 then k else log2 (x lsr 1) (k + 1) in
      (* v in [2^(o+5), 2^(o+6)): its top five bits pick the sub-bucket *)
      let o = log2 v 0 - 5 in
      min ((sub * (o + 1)) + ((v lsr o) - sub)) ((sub * octaves) - 1)

  (* the midpoint of a bucket's value range *)
  let value_of b =
    if b < sub then float_of_int b
    else
      let o = (b / sub) - 1 in
      let lo = (sub + (b mod sub)) lsl o in
      float_of_int lo +. (float_of_int ((1 lsl o) - 1) /. 2.)

  let add t v =
    let v = max 0 v in
    let b = bucket v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1;
    if v > t.max then t.max <- v

  (* 0 when nothing was recorded *)
  let percentile t p =
    if t.total = 0 then 0.
    else
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.total))) in
      let rec go b seen =
        let seen = seen + t.counts.(b) in
        if seen >= rank || b = Array.length t.counts - 1 then value_of b
        else go (b + 1) seen
      in
      go 0 0
end
