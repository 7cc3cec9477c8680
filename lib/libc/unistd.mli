(** Typed user-level wrappers over the raw system interface — the
    simulated C library.  Everything here issues calls through the
    normal trap path ({!Kernel.Uspace.syscall}), so running under an
    interposition agent changes the behaviour of these functions
    without any change to the programs using them.

    All functions return [('a, Abi.Errno.t) result]. *)

type 'a r = ('a, Abi.Errno.t) result

exception Unix_error of Abi.Errno.t * string
(** Raised by {!ok_exn}. *)

val ok_exn : string -> 'a r -> 'a
(** [ok_exn what r] unwraps or raises {!Unix_error} tagged [what]. *)

(** {1 Files} *)

val open_ : string -> int -> int -> int r
val creat : string -> int -> int r
val close : int -> unit r
val read : int -> Bytes.t -> int -> int r
val write : int -> string -> int r
val write_all : int -> string -> unit r
(** Loop until the whole string is written (pipes may short-write). *)

val read_all : int -> string r
(** Read to end of file, 4,096 bytes a trap, into a chunk borrowed from
    the shard's pool for this call ({!Kernel.Uspace.take_chunk}). *)

val lseek : int -> int -> int -> int r
val ftruncate : int -> int -> unit r
val fsync : int -> unit r
val dup : int -> int r
val dup2 : int -> int -> int r
val pipe : unit -> (int * int) r
val socketpair : unit -> (int * int) r
(** A connected bidirectional pair of descriptors. *)

(** {1 Sockets}

    Stream sockets in a flat, shard-wide name space: addresses are
    arbitrary strings (conventionally not starting with ['/'] — they
    are not filesystem paths and pathname agents ignore them). *)

val socket : unit -> int r
(** A fresh unbound stream socket. *)

val bind : int -> string -> unit r
(** Claim an address; [EADDRINUSE] if another socket holds it. *)

val listen : int -> int -> unit r
(** [listen fd backlog] turns a bound socket into a listener with a
    bounded accept queue (backlog clamped ≥ 1). *)

val accept : int -> int r
(** Pop the next pending connection as a new descriptor; blocks while
    the queue is empty. *)

val connect : int -> string -> unit r
(** Establish a connection to a listening address: [ECONNREFUSED] if
    nothing listens there, blocks while the accept queue is full. *)

val send : int -> string -> int r
(** Like {!write} on a connected socket ([EPIPE]/SIGPIPE when the peer
    is gone); may short-write when the buffer is nearly full. *)

val recv : int -> Bytes.t -> int -> int r
(** Like {!read} on a connected socket; 0 means the peer closed or
    shut down its write half. *)

val shutdown : int -> int -> unit r
(** Close one or both directions early ({!Abi.Flags.Shut}); the final
    [close] releases only what shutdown has not already dropped. *)

val send_all : int -> string -> unit r
(** Loop until the whole string is sent. *)

val fcntl : int -> int -> int -> int r
val set_cloexec : int -> bool -> unit r

(** {1 Names} *)

val stat : string -> Abi.Stat.t r
val lstat : string -> Abi.Stat.t r
val fstat : int -> Abi.Stat.t r
val access : string -> int -> unit r
val unlink : string -> unit r
val link : existing:string -> string -> unit r
val symlink : target:string -> string -> unit r
val readlink : string -> string r
val rename : src:string -> string -> unit r
val mkdir : string -> int -> unit r
val rmdir : string -> unit r
val mkfifo : string -> int -> unit r
val chmod : string -> int -> unit r
val chown : string -> uid:int -> gid:int -> unit r
val truncate : string -> int -> unit r
val utimes : string -> atime:int -> mtime:int -> unit r
val chdir : string -> unit r
val fchdir : int -> unit r
val getcwd : unit -> string r
val umask : int -> int r

(** {1 Processes} *)

val fork : child:(unit -> int) -> int r
(** Returns the child pid in the parent; the child runs [child] as its
    program body (see DESIGN.md for how this maps onto real fork). *)

val execve : string -> string array -> string array -> 'a r
(** On success, does not return. *)

val execv : string -> string array -> 'a r
val _exit : int -> 'a
val wait : unit -> (int * int) r
(** pid, wait-status. *)

val waitpid : int -> int -> (int * int) r
val getpid : unit -> int
val getppid : unit -> int
val getuid : unit -> int
val geteuid : unit -> int
val getgid : unit -> int
val setuid : int -> unit r
val getpgrp : unit -> int
val setpgrp : int -> int -> unit r
val kill : int -> int -> unit r
val getdtablesize : unit -> int

(** {1 Signals} *)

val signal : int -> Abi.Value.handler -> Abi.Value.handler r
(** Install a disposition, returning the previous one. *)

val sigprocmask : int -> int -> int r
val sigpending : unit -> int r
val sigsuspend : int -> unit r
(** Always "fails" with [EINTR], like the real call. *)

val alarm : int -> int r

(** {1 Time} *)

val gettimeofday : unit -> (int * int) r
val settimeofday : sec:int -> usec:int -> unit r
val getrusage : unit -> (int * int) r
(** (virtual user µs, virtual system µs) of the calling process. *)

val time : unit -> int r
val select :
  ?read:int list -> ?write:int list -> ?timeout_us:int -> unit
  -> (int list * int list) r
(** Wait until any of the read descriptors is readable or any of the
    write descriptors writable; returns the ready subsets.  A
    [timeout_us] of 0 polls; the default -1 waits forever.
    Descriptors must be below 63 (they always are: the table holds
    64). *)

val sleep_us : int -> unit r
val cpu_work : int -> unit
(** Model local computation costing the given µs of virtual time. *)

(** {1 Directories} *)

val getdirentries : int -> Bytes.t -> (int * int) r
(** bytes-filled, new base. *)

val ioctl : int -> int -> Bytes.t -> int r
val isatty : int -> bool
