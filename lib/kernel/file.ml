(* The byte queue behind a pipe, a FIFO open or one direction of a
   connection, with its causal channel, computed once. *)
type ring = {
  chan : int;
  buf : Vfs.Pipebuf.t;
}

(* One direction-pair of a stream connection.  The two endpoints hold
   the same rings crossed: this side reads [rx] and writes [tx], the
   peer reads [tx] and writes [rx].  The shut flags remember which of
   this endpoint's ring references [shutdown] already dropped, so the
   final close releases each side exactly once. *)
type conn = {
  rx : ring;
  tx : ring;
  mutable shut_rd : bool;
  mutable shut_wr : bool;
}

(* A listening socket's accept queue: connections [connect] has
   established (their rings already referenced for the server side)
   that no [accept] has adopted yet. *)
type listener = {
  lid : int;                     (* names its wait channels *)
  backlog : int;                 (* accept-queue bound, >= 1 *)
  pending : conn Queue.t;
  mutable lclosed : bool;
}

(* The socket lifecycle, driven by bind/listen/connect/accept. *)
type sock_state =
  | S_fresh
  | S_bound of string
  | S_listening of string * listener
  | S_conn of conn

type sock = { mutable sock : sock_state }

type kind =
  | Vnode of Vfs.Inode.t
  | Pipe_read of ring
  | Pipe_write of ring
  | Fifo_read of Vfs.Inode.t * ring
  | Fifo_write of Vfs.Inode.t * ring
  | Sock of sock

type t = {
  id : int;
  kind : kind;
  mutable offset : int;
  mutable flags : int;
  mutable refs : int;
}

let make ~id kind ~flags = { id; kind; offset = 0; flags; refs = 1 }

let is_readable t =
  match t.kind with
  | Pipe_read _ | Fifo_read _ | Sock _ -> true
  | Pipe_write _ | Fifo_write _ -> false
  | Vnode _ -> Abi.Flags.Open.readable t.flags

let is_writable t =
  match t.kind with
  | Pipe_write _ | Fifo_write _ | Sock _ -> true
  | Pipe_read _ | Fifo_read _ -> false
  | Vnode _ -> Abi.Flags.Open.writable t.flags

(* The kind of a wait channel sits in its low three bits, above them
   the ring's causal channel (itself unique across rings), a pid or a
   listener id. *)
module Wchan = struct
  type t = int

  let readable r = r.chan lsl 3
  let writable r = (r.chan lsl 3) lor 1
  let children pid = (pid lsl 3) lor 2
  let accept l = (l.lid lsl 3) lor 3
  let connq l = (l.lid lsl 3) lor 4
end

type fd_entry = {
  file : t;
  mutable cloexec : bool;
}
