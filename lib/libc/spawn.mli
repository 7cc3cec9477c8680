(** fork/exec/wait conveniences, system(3)-style. *)

val spawn : ?stdin:int -> ?stdout:int
  -> string -> string array -> (int, Abi.Errno.t) result
(** [spawn path argv] forks and execs; the optional descriptors are
    dup2'd onto 0/1 in the child before the exec.  Returns the child
    pid. *)

val run : ?stdin:int -> ?stdout:int
  -> string -> string array -> (int, Abi.Errno.t) result
(** {!spawn} then wait; returns the wait status. *)

val run_exit_code : string -> string array -> int
(** {!run}, decoded to an exit code; 127 on any failure (as a shell
    would report). *)
