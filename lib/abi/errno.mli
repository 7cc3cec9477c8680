(** 4.3BSD error numbers.

    The subset of [<errno.h>] actually producible by the simulated
    kernel, with the historical BSD numbering so that numeric-layer
    agents observe authentic values. *)

type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EINTR
  | EIO
  | ENXIO
  | E2BIG
  | ENOEXEC
  | EBADF
  | ECHILD
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EBUSY
  | EEXIST
  | EXDEV
  | ENODEV
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | EMFILE
  | ENOTTY
  | EFBIG
  | ENOSPC
  | ESPIPE
  | EROFS
  | EMLINK
  | EPIPE
  | ERANGE
  | EWOULDBLOCK
  | ENOTSOCK
  | EADDRINUSE
  | ECONNRESET
  | EISCONN
  | ENOTCONN
  | ECONNREFUSED
  | ENAMETOOLONG
  | ENOTEMPTY
  | ELOOP
  | ENOSYS

val to_int : t -> int
(** The 4.3BSD number, in O(1). *)

val of_int : int -> t option

val tabulate : (t -> 'a) -> t -> 'a
(** [tabulate f] applies [f] to every error once, now, and returns a
    function that hands those results back: an array read, which
    allocates nothing and never calls [f] again. *)

val name : t -> string
(** Symbolic name, e.g. ["ENOENT"]. *)

val of_name : string -> t option
(** Inverse of {!name}; used by parsers of serialized fault plans and
    repro bundles. *)

val message : t -> string
(** [strerror]-style description. *)

val pp : Format.formatter -> t -> unit
