(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: without flambda the field is boxed afresh on every
   store, while a [Bytes] load and store of an [int64] stay unboxed, so
   a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

(* splitmix64 finaliser (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
