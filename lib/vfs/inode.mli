(** Inodes of the in-memory filesystem. *)

(** Name-ordered maps: a directory's entries. *)
module Names : Map.S with type key = string

(** A directory: one ordered map from name to ino, ["."] and [".."]
    included.  The same map answers namei's lookups and lists the
    directory in name order, which is the order [getdirentries]
    returns and the index its offset counts in. *)
type dir = { mutable entries : int Names.t }

type kind =
  | Reg of Filedata.t
  | Dir of dir
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

val size : t -> int

val to_stat : dev:int -> t -> Abi.Stat.t

val is_dir : t -> bool

val dir : t -> (dir, Abi.Errno.t) result
(** [Error ENOTDIR] when the inode is not a directory. *)

val dir_entries : t -> (string * int) list
(** The listing in name order, "." and ".." included; empty for
    non-directories.  Builds a list, so the kernel reads the map in
    place instead. *)
