(** The in-memory UFS-style filesystem.

    A single mounted volume: an inode table, a root directory, BSD
    permission checks, and the namespace operations the kernel's
    syscalls are built from.  All operations take the caller's
    credentials and working directory; none of them block. *)

type t

(** Caller identity for permission checks.  Uid 0 bypasses file
    permission checks, as in the original kernel. *)
type cred = { uid : int; gid : int }

val root_cred : cred

val create : ?now:(unit -> int) -> unit -> t
(** [now] supplies timestamps in seconds (default: constant 0; the
    kernel passes its virtual clock). *)

val root_ino : t -> int

val get_exn : t -> int -> Inode.t
(** [get_exn] raises [Invalid_argument] on a dangling ino; kernel code
    uses it only for inos it knows are live. *)

val live_inodes : t -> int
(** Number of inodes currently in the table (for tests and leak
    checks). *)

val open_refs : t -> int
(** Total outstanding open-file references (0 when every descriptor in
    every process has been closed). *)

val fsck : t -> (unit, string list) result
(** Verify the filesystem's structural invariants: every directory
    reachable from the root has correct ["."]/[".."] entries and a link
    count of 2 + subdirectories; every file's link count equals the
    number of directory entries referencing it; every referenced inode
    exists; no inode outside the reachable tree lingers without an open
    reference.  Returns the list of violations. *)

(** {1 Reference counting}

    Directory entries hold links; the kernel additionally holds one
    reference per open file.  An inode is reclaimed when both reach
    zero. *)

val incr_opens : t -> int -> unit
val decr_opens : t -> int -> unit

(** {1 Permission checks} *)

val access_ok : t -> cred -> Inode.t -> int -> bool
(** [access_ok fs cred ino bits] checks [bits] (an or of
    {!Abi.Flags.Access} r/w/x) against owner, group or other
    permissions. *)

(** {1 Path resolution} *)

val resolve : t -> cred -> cwd:int -> ?follow_last:bool -> string
  -> (Inode.t, Abi.Errno.t) result
(** Resolve a path to an inode.  [follow_last] (default true) controls
    whether a symlink in the final component is followed ([lstat] and
    friends pass [false]).  Fails with [ELOOP] after 8 link
    expansions, [EACCES] on a missing search permission, [ENOTDIR],
    [ENOENT], [ENAMETOOLONG]. *)

val resolve_parent : t -> cred -> cwd:int -> string
  -> (Inode.t * string * bool, Abi.Errno.t) result
(** [resolve_parent fs cred ~cwd path] resolves every component but
    the last, following symlinks, and returns that directory, the last
    component, and whether a slash followed it.  Fails with [ENOTDIR]
    when the parent is not a directory, and {!resolve}'s errors.  A
    last component of ["."] or [".."] is returned like any other, and a
    path of slashes only returns the root with the name ["/"]; the
    creating and removing calls apply their own rules to these and to
    the flag. *)

val path_of_ino : t -> int -> string option
(** Reconstruct an absolute path by walking ".." upward; [None] if the
    inode is not reachable from the root (e.g. an unlinked
    directory). *)

(** {1 Namespace operations}

    Each performs full resolution and permission checking and returns
    BSD errnos.  [perm] arguments are pre-masked by the caller's
    umask (the kernel does the masking). *)

val open_lookup : t -> cred -> cwd:int -> string -> flags:int -> perm:int
  -> (Inode.t * bool, Abi.Errno.t) result
(** The namespace half of [open(2)]: resolves, optionally creates
    (O_CREAT/O_EXCL), checks the access mode, truncates (O_TRUNC).
    Returns the inode and whether it was created.  O_CREAT through a
    dangling symlink creates the link's target, as Linux does; with
    O_EXCL it is [EEXIST]. *)

val mkdir : t -> cred -> cwd:int -> string -> perm:int
  -> (Inode.t, Abi.Errno.t) result

val mkfifo : t -> cred -> cwd:int -> string -> perm:int
  -> (Inode.t, Abi.Errno.t) result

val mkchardev : t -> cred -> cwd:int -> string -> perm:int -> rdev:int
  -> (Inode.t, Abi.Errno.t) result

val symlink : t -> cred -> cwd:int -> target:string -> string
  -> (unit, Abi.Errno.t) result

val readlink : t -> cred -> cwd:int -> string
  -> (string, Abi.Errno.t) result

val link : t -> cred -> cwd:int -> existing:string -> string
  -> (unit, Abi.Errno.t) result

val unlink : t -> cred -> cwd:int -> string -> (unit, Abi.Errno.t) result

val rmdir : t -> cred -> cwd:int -> string -> (unit, Abi.Errno.t) result

val rename : t -> cred -> cwd:int -> src:string -> string
  -> (unit, Abi.Errno.t) result

val stat_path : t -> cred -> cwd:int -> follow:bool -> string
  -> (Abi.Stat.t, Abi.Errno.t) result

val stat_inode : t -> Inode.t -> Abi.Stat.t

val chmod : t -> cred -> cwd:int -> string -> perm:int
  -> (unit, Abi.Errno.t) result

val chown : t -> cred -> cwd:int -> string -> uid:int -> gid:int
  -> (unit, Abi.Errno.t) result

val utimes : t -> cred -> cwd:int -> string -> atime:int -> mtime:int
  -> (unit, Abi.Errno.t) result

val truncate : t -> cred -> cwd:int -> string -> int
  -> (unit, Abi.Errno.t) result

val access : t -> cred -> cwd:int -> string -> int
  -> (unit, Abi.Errno.t) result

val chdir_lookup : t -> cred -> cwd:int -> string
  -> (Inode.t, Abi.Errno.t) result
(** Resolve a path for chdir: must be a searchable directory. *)

(** {1 Data plane helpers} *)

val touch_atime : t -> Inode.t -> unit
val touch_mtime : t -> Inode.t -> unit
