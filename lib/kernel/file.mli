(** Kernel open-file objects — the system-wide "file table".

    One [t] per successful [open]/[pipe]; descriptors in different
    processes may share an entry (after [fork] or [dup]), in which case
    they share the seek offset, exactly as in BSD. *)

(** A ring: the byte queue behind a pipe, a FIFO open or one direction
    of a stream connection.  [chan] is its causal channel
    ({!Obs.chan_pipe}, {!Obs.chan_fifo} or {!Obs.chan_sock}), computed
    once when the ring is made or the FIFO opened; it is unique across
    rings, and so are the ring's two wait channels ({!Wchan}). *)
type ring = {
  chan : int;
  buf : Vfs.Pipebuf.t;
}

(** One endpoint of a stream connection: reads drain [rx], writes fill
    [tx]; the peer holds the same rings crossed.  The shut flags record
    which ring references [shutdown] already dropped so the final close
    releases each side exactly once. *)
type conn = {
  rx : ring;
  tx : ring;
  mutable shut_rd : bool;
  mutable shut_wr : bool;
}

(** A listening socket's bounded accept queue.  [lid] names its two
    wait channels ({!Wchan.accept}, {!Wchan.connq}); [pending] holds
    established connections no [accept] has adopted yet — their rings
    already carry the server side's references, so a listener closed
    with pending connections resets them (peer reads EOF, peer writes
    EPIPE). *)
type listener = {
  lid : int;
  backlog : int;
  pending : conn Queue.t;
  mutable lclosed : bool;
}

(** The socket lifecycle: fresh after [socket], named after [bind],
    queueing after [listen], streaming after [connect]/[accept] (and
    directly for [socketpair] endpoints). *)
type sock_state =
  | S_fresh
  | S_bound of string
  | S_listening of string * listener
  | S_conn of conn

type sock = { mutable sock : sock_state }

type kind =
  | Vnode of Vfs.Inode.t             (** regular file, directory, device *)
  | Pipe_read of ring
  | Pipe_write of ring
  | Fifo_read of Vfs.Inode.t * ring
  | Fifo_write of Vfs.Inode.t * ring
  | Sock of sock

type t = {
  id : int;                          (** unique open-file id *)
  kind : kind;
  mutable offset : int;              (** byte offset, or entry index for
                                         directory reads *)
  mutable flags : int;               (** open flags; F_SETFL updates *)
  mutable refs : int;                (** descriptor references *)
}

val make : id:int -> kind -> flags:int -> t

val is_readable : t -> bool
val is_writable : t -> bool

(** Wait channels, as 4.3BSD's [sleep(chan)] and [wakeup(chan)] take
    them: what a parked process waits for ({!Proc.cond}), and the key
    of its queue in [Kstate.waitqs].  Each is an immediate int, and
    this module builds every one of them, so two kinds never collide. *)
module Wchan : sig
  type t = private int

  val readable : ring -> t
  (** the ring has bytes to read, or has lost its last writer *)

  val writable : ring -> t
  (** the ring has room, or has lost its last reader *)

  val children : int -> t
  (** a child of this pid changed state *)

  val accept : listener -> t
  (** a connection is pending, or the listener closed *)

  val connq : listener -> t
  (** the accept queue has room, or the listener closed *)
end

(** A slot in a process descriptor table. *)
type fd_entry = {
  file : t;
  mutable cloexec : bool;
}
