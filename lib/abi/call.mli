(** Typed (symbolic) view of the system interface.

    Applications and the kernel agree on this typed representation; the
    interception boundary between them, however, is the untyped numeric
    {!Value.wire} form.  {!encode} and {!decode} convert between the
    two, and are shared by the C-library stubs, the kernel's syscall
    entry, and the toolkit's [bsd_numeric_syscall] decoding object —
    one definition of the ABI, three users. *)

type t =
  | Exit of int
  | Fork of (unit -> int)
      (** [Fork body]: the child's program text.  In the original, fork
          duplicates the address space; here the caller supplies the
          child's continuation explicitly (see DESIGN.md). *)
  | Read of int * Bytes.t * int          (** fd, buffer, byte count *)
  | Write of int * string                (** fd, data *)
  | Open of string * int * int           (** path, flags, mode *)
  | Close of int
  | Wait4 of int * int                   (** pid (-1 = any), options *)
  | Creat of string * int
  | Link of string * string
  | Unlink of string
  | Execve of string * string array * string array
  | Chdir of string
  | Fchdir of int
  | Mknod of string * int * int          (** path, mode, dev *)
  | Chmod of string * int
  | Chown of string * int * int
  | Sbrk of int
  | Lseek of int * int * int             (** fd, offset, whence *)
  | Getpid
  | Setuid of int
  | Getuid
  | Geteuid
  | Alarm of int                         (** seconds; 0 cancels *)
  | Access of string * int
  | Sync
  | Kill of int * int                    (** pid (or -pgrp), signal *)
  | Stat of string * Stat.t option ref
  | Getppid
  | Lstat of string * Stat.t option ref
  | Dup of int
  | Pipe
  | Socketpair
      (** a connected bidirectional pair; both descriptors returned *)
  | Getegid
  | Sigaction of int * Value.handler option * Value.handler option ref option
  | Getgid
  | Sigprocmask of int * int             (** how, mask; old mask in r0 *)
  | Sigpending
  | Sigsuspend of int
  | Ioctl of int * int * Bytes.t
  | Symlink of string * string           (** target, linkpath *)
  | Readlink of string * Bytes.t
  | Umask of int
  | Fstat of int * Stat.t option ref
  | Getpagesize
  | Getpgrp
  | Setpgrp of int * int                 (** pid (0 = self), pgrp *)
  | Getdtablesize
  | Dup2 of int * int
  | Fcntl of int * int * int             (** fd, cmd, arg *)
  | Fsync of int
  | Socket
      (** a fresh unbound stream socket; the descriptor in r0 *)
  | Bind of int * string                 (** fd, address name *)
  | Listen of int * int                  (** fd, backlog (accept-queue
                                             bound, clamped to ≥ 1) *)
  | Accept of int
      (** fd; blocks until a connection is pending, new fd in r0 *)
  | Connect of int * string
      (** fd, address name; blocks while the listener's accept queue
          is full, [ECONNREFUSED] when nothing listens there *)
  | Send of int * string                 (** fd, data; write semantics *)
  | Recv of int * Bytes.t * int          (** fd, buffer, byte count;
                                             read semantics *)
  | Shutdown of int * int                (** fd, how ({!Flags.Shut}) *)
  | Select of int * int * int
      (** read-fd bitmask, write-fd bitmask, timeout in µs (-1 =
          forever); returns ready read mask in r0, write mask in r1 *)
  | Gettimeofday of (int * int) option ref
  | Getrusage of (int * int) option ref
      (** out: (user µs, system µs) of the calling process *)
  | Settimeofday of int * int
  | Rename of string * string
  | Truncate of string * int
  | Ftruncate of int * int
  | Mkdir of string * int
  | Rmdir of string
  | Utimes of string * int * int         (** path, atime, mtime (sec) *)
  | Getdirentries of int * Bytes.t       (** r0 = bytes, r1 = new basep *)
  | Sleepus of int
  | Getcwd of Bytes.t

val same1 : t -> int -> 'a -> bool
val same2 : t -> int -> 'a -> 'b -> bool

val same3 : t -> int -> 'a -> 'b -> 'c -> bool
(** [same3 c n a b d]: [c] is call number [n] with exactly three
    arguments, physically [a], [b] and [d] in order.  Such a [c] cannot
    be told apart from [n] rebuilt from those arguments, so a layer
    that would rebuild it may pass [c] on instead ([Downlink.pass3]).
    False for any other arity, whatever the arguments' types: no field
    past [c]'s block is read.  {!same1} and {!same2} are the one- and
    two-argument forms. *)

(** {1 The system-call table}

    Each call is one row of a table in this module: its number, its
    name, the kinds of its argument slots with the constructor that
    takes them, the Linux names strace(1) reports it under, and
    whether the toolkit's [descriptor_set] tracks the descriptor it
    returns.  Everything below is read off that table; a call finds its
    row by its constructor. *)

val number : t -> int

val encode : t -> Value.wire
(** A fresh wire: [decode (encode c)] equals [c], its out-parameter
    refs, buffers and closures physically shared. *)

val nargs : t -> int
(** The length of [encode c]'s argument vector, without encoding. *)

val decode : Value.wire -> (t, Errno.t) result
(** [decode w] fails with [ENOSYS] for an unknown number and [EFAULT]
    for arguments of the wrong shape. *)

val max_sysno : int
(** Largest number in the table; interception vectors are sized
    [max_sysno + 1]. *)

val name : int -> string
(** ["read"], ["open"], ...; ["syscall#<n>"] for numbers not in the
    table. *)

val of_name : string -> int option

val all : int list
(** Every valid syscall number, ascending. *)

val of_linux : string -> int option
(** The native call strace(1)'s name for a Linux call maps to
    (["openat"] is [open], ["clone"] is [fork]); [None] for a name with
    no native counterpart. *)

(** The two families the toolkit's layers carve out, ascending (see
    {!Sysno} for their sizes against the paper's).  A call is in the
    pathname family when one of its slots is a path, and in the
    descriptor family when one of its slots is a descriptor or
    [descriptor_set] tracks the descriptor it returns (open, creat,
    pipe). *)

val pathname_calls : int list
val descriptor_calls : int list

val file_calls : int list
(** Union of the pathname and descriptor families, sorted ascending —
    the interest set for agents that care about files and nothing
    else, so [register_interest] stays the cheap path rather than a
    blanket [register_interest_all]. *)

val fd_first : int -> bool
(** The call's first argument is a descriptor. *)

val pp : Format.formatter -> t -> unit
(** trace(1)-style rendering: [open("/etc/motd", O_RDONLY, 0)]. *)
