(** opendir/readdir over [getdirentries], as the C library builds it. *)

type t

val readdir : t -> (Abi.Dirent.t option, Abi.Errno.t) result
(** Next entry, including "." and ".."; [Ok None] at the end of the
    directory, and the errno of a failing [getdirentries]. *)

val entries : string -> (Abi.Dirent.t list, Abi.Errno.t) result
(** The whole directory in one call, "." and ".." excluded; the errno
    of any failing [getdirentries], never a partial listing. *)

val names : string -> (string list, Abi.Errno.t) result
(** Just the names, sorted, "." and ".." excluded. *)
