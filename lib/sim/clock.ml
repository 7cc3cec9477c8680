(* 1992-09-01T00:00:00Z in microseconds since the Unix epoch. *)
let default_epoch_us = 715_305_600 * 1_000_000

type t = {
  epoch_us : int;
  mutable now_us : int;
  mutable scale : float;
}

let create ?(epoch_us = default_epoch_us) () =
  { epoch_us; now_us = epoch_us; scale = 1.0 }

let now_us c = c.now_us
let elapsed_us c = c.now_us - c.epoch_us

let charge c us =
  if us > 0 then begin
    let us =
      if c.scale = 1.0 then us
      else int_of_float (Float.round (float_of_int us *. c.scale))
    in
    c.now_us <- c.now_us + us
  end

let advance_to c t = if t > c.now_us then c.now_us <- t
let set_scale c f = c.scale <- (if f < 0.0 then 0.0 else f)
let seconds c = float_of_int (elapsed_us c) /. 1e6
