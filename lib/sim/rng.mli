(** Deterministic pseudo-random numbers (splitmix64).

    The simulation must be reproducible run-to-run, so nothing in the
    library uses [Random]; every consumer takes an explicit {!t}. *)

type t

val create : int -> t
(** [create seed] returns an independent generator. *)

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
