(** The [struct stat] of the simulated 4.3BSD interface. *)

type t = {
  st_dev : int;
  st_ino : int;
  st_mode : int;   (** kind bits + permission bits; see {!Flags.Mode} *)
  st_nlink : int;
  st_uid : int;
  st_gid : int;
  st_rdev : int;
  st_size : int;
  st_atime : int;  (** seconds since the epoch *)
  st_mtime : int;
  st_ctime : int;
  st_blksize : int;
  st_blocks : int;
}

val zero : t

