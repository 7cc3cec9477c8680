(** Kernel open-file objects — the system-wide "file table".

    One [t] per successful [open]/[pipe]; descriptors in different
    processes may share an entry (after [fork] or [dup]), in which case
    they share the seek offset, exactly as in BSD. *)

(** An anonymous pipe with its two wait queues' identity. *)
type pipe = {
  pipe_id : int;
  buf : Vfs.Pipebuf.t;
}

(** One endpoint of a stream connection: reads drain [rx], writes fill
    [tx]; the peer holds the same pipes crossed.  The shut flags record
    which pipe references [shutdown] already dropped so the final close
    releases each side exactly once. *)
type conn = {
  rx : pipe;
  tx : pipe;
  mutable shut_rd : bool;
  mutable shut_wr : bool;
}

(** A listening socket's bounded accept queue.  [lid] is its identity
    on the wait queues (accept blocks on it like a pipe read; a full
    queue blocks connectors on the same id); [pending] holds
    established connections no [accept] has adopted yet — their pipes
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
  | Pipe_read of pipe
  | Pipe_write of pipe
  | Fifo_read of Vfs.Inode.t * Vfs.Pipebuf.t
  | Fifo_write of Vfs.Inode.t * Vfs.Pipebuf.t
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

val inode : t -> Vfs.Inode.t option

(** A slot in a process descriptor table. *)
type fd_entry = {
  file : t;
  mutable cloexec : bool;
}
