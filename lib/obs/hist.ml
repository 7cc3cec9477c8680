(* Log2 latency histogram.  Bucket 0 holds exactly-zero (and clamped
   negative) observations; bucket i >= 1 covers [2^(i-1), 2^i) µs; the
   last bucket absorbs everything above its lower bound. *)

let buckets = 32

type t = {
  counts : int array;
  mutable total : int;
  mutable sum_us : int;
  mutable max_us : int;
}

let create () = { counts = Array.make buckets 0; total = 0; sum_us = 0; max_us = 0 }

let bucket_of_us us =
  if us <= 0 then 0
  else begin
    let rec log2 n acc = if n = 0 then acc else log2 (n lsr 1) (acc + 1) in
    min (buckets - 1) (log2 us 0)
  end

let lower_bound i = if i <= 0 then 0 else 1 lsl (i - 1)

let observe t us =
  let us = max 0 us in
  let b = bucket_of_us us in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  t.sum_us <- t.sum_us + us;
  if us > t.max_us then t.max_us <- us

let count t = t.total
let sum_us t = t.sum_us
let max_us t = t.max_us
let mean_us t = if t.total = 0 then 0. else float_of_int t.sum_us /. float_of_int t.total
let bucket t i = if i < 0 || i >= buckets then 0 else t.counts.(i)

let nonzero t =
  let acc = ref [] in
  for i = buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

(* Quantiles are upper-bucket-bound estimates: the rank-th observation
   is somewhere in its bucket, and we report the bucket's largest
   representable value (2^i - 1 for bucket i).  The overflow bucket has
   no upper edge, so it reports the exact observed maximum instead.
   Total over every histogram and every q: an empty histogram answers
   0, q is clamped to [0, 1], and rank 0 is rounded up to 1. *)
let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let rec find i seen =
      if i >= buckets - 1 then t.max_us
      else begin
        let seen = seen + t.counts.(i) in
        if seen >= rank then if i = 0 then 0 else (1 lsl i) - 1
        else find (i + 1) seen
      end
    in
    find 0 0
  end

let copy t =
  { counts = Array.copy t.counts; total = t.total; sum_us = t.sum_us; max_us = t.max_us }
