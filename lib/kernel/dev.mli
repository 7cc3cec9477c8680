(** Character device drivers.

    The VFS stores only an [rdev] number in a device inode; the kernel
    maps that number to one of these driver records.  The standard
    complement: [/dev/null], [/dev/zero], and a console/tty whose
    output is captured for the host test harness to inspect and whose
    input the host can feed. *)

type ops = {
  name : string;
  read : Bytes.t -> off:int -> len:int -> int;
  (** Returns bytes produced; 0 means end of file. *)
  write : string -> int;
  isatty : bool;
}

val rdev_null : int
val rdev_zero : int
val rdev_console : int
val rdev_tty : int

(** A console: write-side capture plus a host-fed input queue. *)
module Console : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit
  (** Append input for subsequent reads. *)

  val contents : t -> string
  (** Everything written so far. *)

  val set_echo : t -> (string -> unit) -> unit
  (** Also deliver every write to the given host function (used by the
      CLI front-ends to stream simulated output live). *)
end

type table

val standard_table : Console.t -> table
(** null, zero, and the given console bound to both [rdev_console] and
    [rdev_tty]. *)

val find : table -> int -> ops
(** The driver bound to [rdev].  Raises [Not_found] when none is, so a
    lookup allocates nothing. *)
