(* 1992-09-01T00:00:00Z in microseconds since the Unix epoch. *)
let default_epoch_us = 715_305_600 * 1_000_000

type t = { mutable now_us : int }

let create () = { now_us = default_epoch_us }
let now_us c = c.now_us
let elapsed_us c = c.now_us - default_epoch_us
let charge c us = if us > 0 then c.now_us <- c.now_us + us
let advance_to c t = if t > c.now_us then c.now_us <- t
let seconds c = float_of_int (elapsed_us c) /. 1e6
