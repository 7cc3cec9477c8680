(** Inodes of the in-memory filesystem. *)

type kind =
  | Reg of Filedata.t
  | Dir of (string, int) Hashtbl.t  (** name -> ino, includes "." ".." *)
  | Symlink of string
  | Chardev of int                  (** rdev; drivers live in the kernel *)
  | Fifo of Pipebuf.t

type t = {
  ino : int;
  kind : kind;
  mutable perm : int;   (** permission bits (lower 12) only *)
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : int;  (** seconds *)
  mutable mtime : int;
  mutable ctime : int;
}

val mode : t -> int
(** Kind bits combined with permission bits, as found in [st_mode]. *)

val size : t -> int

val to_stat : dev:int -> t -> Abi.Stat.t

val is_dir : t -> bool
val dir_table : t -> ((string, int) Hashtbl.t, Abi.Errno.t) result
(** [Error ENOTDIR] when the inode is not a directory. *)

val dir_entries : t -> (string * int) list
(** Sorted directory listing including "." and "..";
    empty list for non-directories. *)
