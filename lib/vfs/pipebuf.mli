(** The bounded ring buffer behind pipes (and FIFOs).

    Blocking is the kernel's business: [read]/[write] here never block,
    they transfer what they can and the caller decides whether the
    calling process must sleep. *)

type t

val capacity : int
(** 4096 bytes, the 4.3BSD pipe size. *)

val create : unit -> t

val available : t -> int
(** Bytes waiting to be read. *)

val room : t -> int
(** Bytes that can be written without filling the buffer. *)

val written : t -> int
(** Bytes ever written: the absolute offset of the next byte in. *)

val consumed : t -> int
(** Bytes ever read: the absolute offset of the next byte out. *)

val stamps : t -> Obs.stamps
(** The writer stamps of the bytes in flight (DESIGN.md §3.9), kept
    here so that every open of a FIFO shares them.  [Obs.no_stamps]
    until the ring's first stamped write. *)

val set_stamps : t -> Obs.stamps -> unit
(** Keep what [Obs.causal_pipe_write] returned. *)

val write : t -> string -> pos:int -> int
(** [write t data ~pos] appends bytes of [data] from offset [pos]
    until the buffer fills; returns bytes accepted (possibly 0). *)

val read : t -> Bytes.t -> off:int -> len:int -> int
(** Consume up to [len] bytes into [buf] at [off]; returns bytes read
    (possibly 0). *)

(** End-point accounting, used for EOF and SIGPIPE/EPIPE decisions. *)

val add_reader : t -> unit
val add_writer : t -> unit
val drop_reader : t -> unit
val drop_writer : t -> unit
val readers : t -> int
val writers : t -> int
