(** Minimal stdio over descriptors: formatted printing and line
    reading for the simulated programs. *)

val stdin : int

val print : string -> unit
(** Write to fd 1, ignoring errors (like printf(3) in careless C). *)

val eprint : string -> unit
(** Write to fd 2. *)

val printf : ('a, unit, string, unit) format4 -> 'a
val eprintf : ('a, unit, string, unit) format4 -> 'a

val read_line : int -> string option
(** Read up to (and consuming) the next newline; [None] at EOF.
    Byte-at-a-time, as a teaching libc would. *)

val read_file : string -> (string, Abi.Errno.t) result
val write_file : string -> ?mode:int -> string -> (unit, Abi.Errno.t) result
(** Create/truncate and write the whole string. *)

val append_file : string -> ?mode:int -> string -> (unit, Abi.Errno.t) result
