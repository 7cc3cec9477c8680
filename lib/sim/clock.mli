(** Virtual time.

    The simulated kernel charges every operation to a virtual clock so
    that macro-benchmarks can be reported in reproducible "simulated
    seconds" calibrated to the paper's hardware (25 MHz i486 for the
    micro-benchmarks, see {!Abi.Cost_model}), independent of the wall
    clock of the machine running the simulation. *)

type t

val create : unit -> t
(** [create ()] returns a clock whose current time is a fixed epoch,
    1992-09-01T00:00:00Z, the month the dissertation behind the paper
    was submitted. *)

val now_us : t -> int
(** Current virtual time in microseconds since the Unix epoch. *)

val elapsed_us : t -> int
(** Microseconds elapsed since [create]. *)

val charge : t -> int -> unit
(** [charge c us] advances virtual time by [us] microseconds.
    Negative charges are ignored. *)

val advance_to : t -> int -> unit
(** [advance_to c t] moves the clock forward to absolute time [t]
    (microseconds since the epoch); no-op if [t] is in the past. *)

val seconds : t -> float
(** [seconds c] is {!elapsed_us} expressed in seconds. *)
