(** Directory entries and the [getdirentries(2)] wire format.

    4.3BSD returns directory contents as a packed byte stream of
    [struct direct] records.  We reproduce that: entries are encoded
    into the caller's buffer with a fixed binary layout so that agents
    — notably the union-directory agent — can decode, filter, merge and
    re-encode them, exactly as the paper's [directory] toolkit object
    does with [next_direntry()].

    Layout (little-endian):
    {v
      bytes 0..3   d_ino    (uint32)
      bytes 4..5   d_reclen (uint16, total record length, 4-aligned)
      bytes 6..7   d_namlen (uint16)
      bytes 8..    d_name   (d_namlen bytes, no NUL)
      padding to d_reclen
    v} *)

type t = { d_ino : int; d_name : string }

val record_len : string -> int
(** [record_len name]: the encoded size ([d_reclen]) of an entry named
    [name], including padding. *)

val encode : Bytes.t -> pos:int -> t -> int
(** [encode buf ~pos e] writes [e] at [pos] and returns the new
    position.  Raises [Invalid_argument] if it does not fit. *)

val encode_name : Bytes.t -> pos:int -> ino:int -> string -> int
(** [encode_name buf ~pos ~ino name] is [encode] of the entry
    [{ d_ino = ino; d_name = name }] without building it: the kernel
    encodes a directory straight from its name map. *)

val fits : Bytes.t -> pos:int -> t -> bool

val decode : Bytes.t -> pos:int -> limit:int -> (t * int) option
(** [decode buf ~pos ~limit] reads one entry, returning it and the
    position of the next; [None] at end of data or on a malformed
    record. *)

val decode_all : Bytes.t -> len:int -> t list
(** Decode every entry in the first [len] bytes. *)
