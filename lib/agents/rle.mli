(** PackBits-style run-length coding — the codec behind the
    transparent-compression agent.

    Control byte [c]: [0..127] means copy the next [c+1] bytes
    literally; [129..255] means repeat the next byte [257-c] times
    (runs of 2..128); 128 is unused, as in the original PackBits. *)

val encode : string -> string
val decode : string -> (string, string) result
(** [Error msg] on a malformed stream. *)
