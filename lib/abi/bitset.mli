(** Packed bitsets over a fixed universe [0, len).

    Sets of syscall numbers: an agent's declared interests, a fault
    injector's candidate numbers.  All operations treat out-of-range
    indices as absent ({!mem} returns [false]; {!set} is a no-op). *)

type t

val create : int -> t
(** [create len]: the empty set over universe [0, len). *)

val mem : t -> int -> bool
val set : t -> int -> unit

val to_list : t -> int list
(** Members in ascending order. *)

val iter : (int -> unit) -> t -> unit
