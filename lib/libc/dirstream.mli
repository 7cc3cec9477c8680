(** opendir/readdir over [getdirentries], as the C library builds it. *)

type t

val readdir : t -> Abi.Dirent.t option
(** Next entry, including "." and "..". *)

val entries : string -> (Abi.Dirent.t list, Abi.Errno.t) result
(** The whole directory in one call, "." and ".." excluded. *)

val names : string -> (string list, Abi.Errno.t) result
(** Just the names, sorted, "." and ".." excluded. *)
