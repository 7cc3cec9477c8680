(** The bytes of a regular file, kept in 4.3BSD's fast-file-system
    layout: fixed blocks of {!block} bytes, block 0 a fragment that
    doubles up to one block, each later block allocated whole on its
    first write.  A block inside a hole (a gap left by a write past EOF
    or a truncate upward) is not allocated and reads as zeros. *)

type t

val block : int
(** The block size, 4,096 bytes: the unit in which a file's storage is
    allocated, and the most a reader of a file's header needs. *)

val create : unit -> t
val of_string : string -> t
val to_string : t -> string

val size : t -> int

val read : t -> pos:int -> Bytes.t -> off:int -> len:int -> int
(** [read t ~pos buf ~off ~len] copies at most [len] bytes starting at
    file offset [pos] into [buf] at [off]; returns bytes copied (0 at
    or past EOF). *)

val write : t -> pos:int -> string -> int
(** [write t ~pos data] writes all of [data] at [pos], growing the file
    (a gap before [pos] reads as zeros, as a sparse write's would);
    returns the number of bytes written (always [String.length data]).
    An empty [data] changes nothing, wherever [pos] is: the file does
    not grow to [pos]. *)

val truncate : t -> int -> unit
(** Shrink, freeing every block past the new size, or extend with a
    hole. *)
