(** The symbolic system call layer (the paper's [symbolic_syscall]).

    The system interface appears as one virtual method per system
    call; the toolkit decodes each intercepted untyped vector and
    invokes the corresponding method.  Every default implementation
    passes the call to the next-lower interface instance, so an agent
    derives from this class and overrides exactly the calls whose
    behaviour it changes — the timex agent, for example, is this class
    plus a new [sys_gettimeofday].

    While the methods run, the calling process serves the envelope
    they were dispatched from ([Kernel.Proc.serving], restored on
    return and on exception).  A default with arguments hands that
    envelope down when its arguments are physically the call's own
    ([Downlink.pass3]): an unchanged call is passed on, not rebuilt.
    An override that calls [super] with a changed argument sends the
    changed call in an envelope of its own.  A default without
    arguments hands the envelope down when its typed view is that very
    call ([Downlink.pass0]).  [exit], [fork] and [execve] build their
    call as before.

    Out-parameters keep their system-interface shape: [stat] fills a
    [Stat.t option ref], [read] fills the caller's buffer, and the
    methods return the two-register {!Abi.Value.res}. *)

class symbolic_syscall : object
  inherit Numeric.numeric_syscall

  method sys_exit : int -> Abi.Value.res
  method sys_fork : (unit -> int) -> Abi.Value.res
  method sys_read : int -> Bytes.t -> int -> Abi.Value.res
  method sys_write : int -> string -> Abi.Value.res
  method sys_open : string -> int -> int -> Abi.Value.res
  method sys_close : int -> Abi.Value.res
  method sys_wait4 : int -> int -> Abi.Value.res
  method sys_creat : string -> int -> Abi.Value.res
  method sys_link : string -> string -> Abi.Value.res
  method sys_unlink : string -> Abi.Value.res
  method sys_execve :
    string -> string array -> string array -> Abi.Value.res
  method sys_chdir : string -> Abi.Value.res
  method sys_fchdir : int -> Abi.Value.res
  method sys_mknod : string -> int -> int -> Abi.Value.res
  method sys_chmod : string -> int -> Abi.Value.res
  method sys_chown : string -> int -> int -> Abi.Value.res
  method sys_sbrk : int -> Abi.Value.res
  method sys_lseek : int -> int -> int -> Abi.Value.res
  method sys_getpid : unit -> Abi.Value.res
  method sys_setuid : int -> Abi.Value.res
  method sys_getuid : unit -> Abi.Value.res
  method sys_geteuid : unit -> Abi.Value.res
  method sys_alarm : int -> Abi.Value.res
  method sys_access : string -> int -> Abi.Value.res
  method sys_sync : unit -> Abi.Value.res
  method sys_kill : int -> int -> Abi.Value.res
  method sys_stat : string -> Abi.Stat.t option ref -> Abi.Value.res
  method sys_getppid : unit -> Abi.Value.res
  method sys_lstat : string -> Abi.Stat.t option ref -> Abi.Value.res
  method sys_dup : int -> Abi.Value.res
  method sys_pipe : unit -> Abi.Value.res
  method sys_socketpair : unit -> Abi.Value.res
  method sys_socket : unit -> Abi.Value.res
  method sys_bind : int -> string -> Abi.Value.res
  method sys_listen : int -> int -> Abi.Value.res
  method sys_accept : int -> Abi.Value.res
  method sys_connect : int -> string -> Abi.Value.res
  method sys_send : int -> string -> Abi.Value.res
  method sys_recv : int -> Bytes.t -> int -> Abi.Value.res
  method sys_shutdown : int -> int -> Abi.Value.res
  method sys_getegid : unit -> Abi.Value.res
  method sys_sigaction :
    int -> Abi.Value.handler option
    -> Abi.Value.handler option ref option -> Abi.Value.res
  method sys_getgid : unit -> Abi.Value.res
  method sys_sigprocmask : int -> int -> Abi.Value.res
  method sys_sigpending : unit -> Abi.Value.res
  method sys_sigsuspend : int -> Abi.Value.res
  method sys_ioctl : int -> int -> Bytes.t -> Abi.Value.res
  method sys_symlink : string -> string -> Abi.Value.res
  method sys_readlink : string -> Bytes.t -> Abi.Value.res
  method sys_umask : int -> Abi.Value.res
  method sys_fstat : int -> Abi.Stat.t option ref -> Abi.Value.res
  method sys_getpagesize : unit -> Abi.Value.res
  method sys_getpgrp : unit -> Abi.Value.res
  method sys_setpgrp : int -> int -> Abi.Value.res
  method sys_getdtablesize : unit -> Abi.Value.res
  method sys_dup2 : int -> int -> Abi.Value.res
  method sys_fcntl : int -> int -> int -> Abi.Value.res
  method sys_fsync : int -> Abi.Value.res
  method sys_select : int -> int -> int -> Abi.Value.res
  method sys_gettimeofday : (int * int) option ref -> Abi.Value.res
  method sys_getrusage : (int * int) option ref -> Abi.Value.res
  method sys_settimeofday : int -> int -> Abi.Value.res
  method sys_rename : string -> string -> Abi.Value.res
  method sys_truncate : string -> int -> Abi.Value.res
  method sys_ftruncate : int -> int -> Abi.Value.res
  method sys_mkdir : string -> int -> Abi.Value.res
  method sys_rmdir : string -> Abi.Value.res
  method sys_utimes : string -> int -> int -> Abi.Value.res
  method sys_getdirentries : int -> Bytes.t -> Abi.Value.res
  method sys_sleepus : int -> Abi.Value.res
  method sys_getcwd : Bytes.t -> Abi.Value.res

  method unknown_syscall : Abi.Envelope.t -> Abi.Value.res
  (** A number outside the decodable interface; default: pass the
      envelope down unchanged. *)
end
