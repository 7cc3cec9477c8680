(** Packed bitsets over a fixed universe [0, len).

    Sets of syscall numbers: an agent's declared interests, a fault
    injector's candidate numbers.  All operations treat out-of-range
    indices as absent ({!mem} returns [false]; {!set}/{!clear} are
    no-ops). *)

type t

val create : int -> t
(** [create len]: the empty set over universe [0, len). *)

val length : t -> int
val mem : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val clear_all : t -> unit
val equal : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int

val to_list : t -> int list
(** Members in ascending order. *)

val iter : (int -> unit) -> t -> unit
