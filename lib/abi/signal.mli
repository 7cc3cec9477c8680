(** 4.3BSD signals.

    Signal numbers follow the historical BSD table.  The [sigmask]
    helpers implement the 32-bit mask arithmetic used by
    [sigprocmask]/[sigsuspend]; SIGKILL and SIGSTOP can never be
    masked, exactly as in the original kernel. *)

val sighup : int
val sigint : int
val sigquit : int
val sigill : int
val sigtrap : int
val sigabrt : int
val sigemt : int
val sigfpe : int
val sigkill : int
val sigbus : int
val sigsegv : int
val sigsys : int
val sigpipe : int
val sigalrm : int
val sigterm : int
val sigurg : int
val sigstop : int
val sigtstp : int
val sigcont : int
val sigchld : int
val sigttin : int
val sigttou : int
val sigio : int
val sigxcpu : int
val sigxfsz : int
val sigvtalrm : int
val sigprof : int
val sigwinch : int
val siginfo : int
val sigusr1 : int
val sigusr2 : int

val max_signal : int
(** Largest valid signal number (31). *)

val is_valid : int -> bool
(** True for 1..{!max_signal}. *)

val name : int -> string
(** ["SIGINT"] etc.; ["SIG<n>"] for out-of-range numbers. *)

val of_name : string -> int option
(** Inverse of {!name}, accepting with or without the "SIG" prefix. *)

(** What an undisposed signal does to the process. *)
type default_action = Terminate | Ignore | Stop | Continue

val default_action : int -> default_action

(** Signal masks, as in the 4.3BSD [sigmask()] macro. *)
module Mask : sig
  type t = int

  val full : t
  val mask_bit : int -> t
  (** [mask_bit sig] = [1 lsl (sig - 1)]. *)

  val add : t -> int -> t
  val remove : t -> int -> t
  val mem : t -> int -> bool
  val union : t -> t -> t
  val inter : t -> t -> t

  val sanitize : t -> t
  (** Clears the SIGKILL and SIGSTOP bits, which are unmaskable. *)
end
