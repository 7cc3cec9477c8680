open Abi

class symbolic_syscall =
  object (self)
    inherit Numeric.numeric_syscall as super

    (* The numeric -> symbolic mapping: obtain the typed view of the
       envelope and invoke the per-call virtual method (the role played
       by the toolkit-supplied derived numeric_syscall object in the
       paper).  The decode is paid — in codec work and in virtual time
       — only by the first symbolic layer the trap meets; every layer
       below rides the memoized view for free. *)
    method! syscall (env : Envelope.t) : Value.res =
      let fresh = not (Envelope.decoded env) in
      match Envelope.typed env with
      | exception Envelope.Undecodable Errno.ENOSYS -> self#unknown_syscall env
      | exception Envelope.Undecodable e -> Error e
      | call ->
        (* first symbolic layer pays the full decode; lower layers pay
           only the virtual-method dispatch on the memoized view *)
        Kernel.Uspace.cpu_work
          (if fresh then
             Cost_model.symbolic_decode_us ~nargs:(Envelope.nargs env)
           else Cost_model.numeric_dispatch_us);
        (* the process serves [env] while the methods run: a default
           that would rebuild [call] from its own arguments hands [env]
           down instead ([Downlink.pass3]).  [serving] is restored on
           every way out, exceptions included, so it follows the
           process's stack (DESIGN.md §3.8) *)
        let p = Kernel.Uspace.self () in
        let outer = p.serving in
        p.serving <- env;
        match self#dispatch_call call with
        | res ->
          p.serving <- outer;
          res
        | exception e ->
          p.serving <- outer;
          raise e

    method private dispatch_call (call : Call.t) : Value.res =
      match call with
      | Call.Exit code -> self#sys_exit code
      | Call.Fork body -> self#sys_fork body
      | Call.Read (fd, buf, cnt) -> self#sys_read fd buf cnt
      | Call.Write (fd, data) -> self#sys_write fd data
      | Call.Open (path, flags, mode) -> self#sys_open path flags mode
      | Call.Close fd -> self#sys_close fd
      | Call.Wait4 (pid, options) -> self#sys_wait4 pid options
      | Call.Creat (path, mode) -> self#sys_creat path mode
      | Call.Link (existing, path) -> self#sys_link existing path
      | Call.Unlink path -> self#sys_unlink path
      | Call.Execve (path, argv, envp) -> self#sys_execve path argv envp
      | Call.Chdir path -> self#sys_chdir path
      | Call.Fchdir fd -> self#sys_fchdir fd
      | Call.Mknod (path, mode, dev) -> self#sys_mknod path mode dev
      | Call.Chmod (path, mode) -> self#sys_chmod path mode
      | Call.Chown (path, uid, gid) -> self#sys_chown path uid gid
      | Call.Sbrk d -> self#sys_sbrk d
      | Call.Lseek (fd, off, whence) -> self#sys_lseek fd off whence
      | Call.Getpid -> self#sys_getpid ()
      | Call.Setuid u -> self#sys_setuid u
      | Call.Getuid -> self#sys_getuid ()
      | Call.Geteuid -> self#sys_geteuid ()
      | Call.Alarm sec -> self#sys_alarm sec
      | Call.Access (path, bits) -> self#sys_access path bits
      | Call.Sync -> self#sys_sync ()
      | Call.Kill (pid, s) -> self#sys_kill pid s
      | Call.Stat (path, r) -> self#sys_stat path r
      | Call.Getppid -> self#sys_getppid ()
      | Call.Lstat (path, r) -> self#sys_lstat path r
      | Call.Dup fd -> self#sys_dup fd
      | Call.Pipe -> self#sys_pipe ()
      | Call.Socketpair -> self#sys_socketpair ()
      | Call.Socket -> self#sys_socket ()
      | Call.Bind (fd, addr) -> self#sys_bind fd addr
      | Call.Listen (fd, backlog) -> self#sys_listen fd backlog
      | Call.Accept fd -> self#sys_accept fd
      | Call.Connect (fd, addr) -> self#sys_connect fd addr
      | Call.Send (fd, data) -> self#sys_send fd data
      | Call.Recv (fd, buf, cnt) -> self#sys_recv fd buf cnt
      | Call.Shutdown (fd, how) -> self#sys_shutdown fd how
      | Call.Getegid -> self#sys_getegid ()
      | Call.Sigaction (s, h, o) -> self#sys_sigaction s h o
      | Call.Getgid -> self#sys_getgid ()
      | Call.Sigprocmask (how, m) -> self#sys_sigprocmask how m
      | Call.Sigpending -> self#sys_sigpending ()
      | Call.Sigsuspend m -> self#sys_sigsuspend m
      | Call.Ioctl (fd, op, buf) -> self#sys_ioctl fd op buf
      | Call.Symlink (target, path) -> self#sys_symlink target path
      | Call.Readlink (path, buf) -> self#sys_readlink path buf
      | Call.Umask m -> self#sys_umask m
      | Call.Fstat (fd, r) -> self#sys_fstat fd r
      | Call.Getpagesize -> self#sys_getpagesize ()
      | Call.Getpgrp -> self#sys_getpgrp ()
      | Call.Setpgrp (pid, pgrp) -> self#sys_setpgrp pid pgrp
      | Call.Getdtablesize -> self#sys_getdtablesize ()
      | Call.Dup2 (o, n) -> self#sys_dup2 o n
      | Call.Fcntl (fd, cmd, arg) -> self#sys_fcntl fd cmd arg
      | Call.Fsync fd -> self#sys_fsync fd
      | Call.Select (r, w, tmo) -> self#sys_select r w tmo
      | Call.Gettimeofday r -> self#sys_gettimeofday r
      | Call.Getrusage r -> self#sys_getrusage r
      | Call.Settimeofday (sec, usec) -> self#sys_settimeofday sec usec
      | Call.Rename (src, dst) -> self#sys_rename src dst
      | Call.Truncate (path, len) -> self#sys_truncate path len
      | Call.Ftruncate (fd, len) -> self#sys_ftruncate fd len
      | Call.Mkdir (path, mode) -> self#sys_mkdir path mode
      | Call.Rmdir path -> self#sys_rmdir path
      | Call.Utimes (path, atime, mtime) -> self#sys_utimes path atime mtime
      | Call.Getdirentries (fd, buf) -> self#sys_getdirentries fd buf
      | Call.Sleepus us -> self#sys_sleepus us
      | Call.Getcwd buf -> self#sys_getcwd buf

    (* Defaults: take the call's normal action on the next level down.
       fork and execve route through the boilerplate so the agent
       survives both.  A default with arguments passes on the envelope
       it is serving when that holds this very call, and builds the
       call only when an override changed an argument. *)

    method sys_exit code = self#down (Call.Exit code)

    method sys_fork body =
      Boilerplate.do_fork self#downlink
        ~init_child:(fun () -> self#init_child)
        body

    method sys_execve path argv envp =
      Boilerplate.do_execve self#downlink path argv envp

    method sys_read fd buf cnt =
      Downlink.pass3 self#downlink Sysno.sys_read
        (fun a b c -> Call.Read (a, b, c)) fd buf cnt
    method sys_write fd data =
      Downlink.pass2 self#downlink Sysno.sys_write
        (fun a b -> Call.Write (a, b)) fd data
    method sys_open path flags mode =
      Downlink.pass3 self#downlink Sysno.sys_open
        (fun a b c -> Call.Open (a, b, c)) path flags mode
    method sys_close fd =
      Downlink.pass1 self#downlink Sysno.sys_close (fun a -> Call.Close a) fd
    method sys_wait4 pid options =
      Downlink.pass2 self#downlink Sysno.sys_wait4
        (fun a b -> Call.Wait4 (a, b)) pid options
    method sys_creat path mode =
      Downlink.pass2 self#downlink Sysno.sys_creat
        (fun a b -> Call.Creat (a, b)) path mode
    method sys_link existing path =
      Downlink.pass2 self#downlink Sysno.sys_link
        (fun a b -> Call.Link (a, b)) existing path
    method sys_unlink path =
      Downlink.pass1 self#downlink Sysno.sys_unlink
        (fun a -> Call.Unlink a) path
    method sys_chdir path =
      Downlink.pass1 self#downlink Sysno.sys_chdir (fun a -> Call.Chdir a) path
    method sys_fchdir fd =
      Downlink.pass1 self#downlink Sysno.sys_fchdir (fun a -> Call.Fchdir a) fd
    method sys_mknod path mode dev =
      Downlink.pass3 self#downlink Sysno.sys_mknod
        (fun a b c -> Call.Mknod (a, b, c)) path mode dev
    method sys_chmod path mode =
      Downlink.pass2 self#downlink Sysno.sys_chmod
        (fun a b -> Call.Chmod (a, b)) path mode
    method sys_chown path uid gid =
      Downlink.pass3 self#downlink Sysno.sys_chown
        (fun a b c -> Call.Chown (a, b, c)) path uid gid
    method sys_sbrk d =
      Downlink.pass1 self#downlink Sysno.sys_sbrk (fun a -> Call.Sbrk a) d
    method sys_lseek fd off whence =
      Downlink.pass3 self#downlink Sysno.sys_lseek
        (fun a b c -> Call.Lseek (a, b, c)) fd off whence
    method sys_getpid () = Downlink.pass0 self#downlink Call.Getpid
    method sys_setuid u =
      Downlink.pass1 self#downlink Sysno.sys_setuid (fun a -> Call.Setuid a) u
    method sys_getuid () = Downlink.pass0 self#downlink Call.Getuid
    method sys_geteuid () = Downlink.pass0 self#downlink Call.Geteuid
    method sys_alarm sec =
      Downlink.pass1 self#downlink Sysno.sys_alarm (fun a -> Call.Alarm a) sec
    method sys_access path bits =
      Downlink.pass2 self#downlink Sysno.sys_access
        (fun a b -> Call.Access (a, b)) path bits
    method sys_sync () = Downlink.pass0 self#downlink Call.Sync
    method sys_kill pid s =
      Downlink.pass2 self#downlink Sysno.sys_kill
        (fun a b -> Call.Kill (a, b)) pid s
    method sys_stat path r =
      Downlink.pass2 self#downlink Sysno.sys_stat
        (fun a b -> Call.Stat (a, b)) path r
    method sys_getppid () = Downlink.pass0 self#downlink Call.Getppid
    method sys_lstat path r =
      Downlink.pass2 self#downlink Sysno.sys_lstat
        (fun a b -> Call.Lstat (a, b)) path r
    method sys_dup fd =
      Downlink.pass1 self#downlink Sysno.sys_dup (fun a -> Call.Dup a) fd
    method sys_pipe () = Downlink.pass0 self#downlink Call.Pipe
    method sys_socketpair () = Downlink.pass0 self#downlink Call.Socketpair
    method sys_socket () = Downlink.pass0 self#downlink Call.Socket
    method sys_bind fd addr =
      Downlink.pass2 self#downlink Sysno.sys_bind
        (fun a b -> Call.Bind (a, b)) fd addr
    method sys_listen fd backlog =
      Downlink.pass2 self#downlink Sysno.sys_listen
        (fun a b -> Call.Listen (a, b)) fd backlog
    method sys_accept fd =
      Downlink.pass1 self#downlink Sysno.sys_accept (fun a -> Call.Accept a) fd
    method sys_connect fd addr =
      Downlink.pass2 self#downlink Sysno.sys_connect
        (fun a b -> Call.Connect (a, b)) fd addr
    method sys_send fd data =
      Downlink.pass2 self#downlink Sysno.sys_send
        (fun a b -> Call.Send (a, b)) fd data
    method sys_recv fd buf cnt =
      Downlink.pass3 self#downlink Sysno.sys_recv
        (fun a b c -> Call.Recv (a, b, c)) fd buf cnt
    method sys_shutdown fd how =
      Downlink.pass2 self#downlink Sysno.sys_shutdown
        (fun a b -> Call.Shutdown (a, b)) fd how
    method sys_getegid () = Downlink.pass0 self#downlink Call.Getegid
    method sys_sigaction s h o =
      Downlink.pass3 self#downlink Sysno.sys_sigaction
        (fun a b c -> Call.Sigaction (a, b, c)) s h o
    method sys_getgid () = Downlink.pass0 self#downlink Call.Getgid
    method sys_sigprocmask how m =
      Downlink.pass2 self#downlink Sysno.sys_sigprocmask
        (fun a b -> Call.Sigprocmask (a, b)) how m
    method sys_sigpending () = Downlink.pass0 self#downlink Call.Sigpending
    method sys_sigsuspend m =
      Downlink.pass1 self#downlink Sysno.sys_sigsuspend
        (fun a -> Call.Sigsuspend a) m
    method sys_ioctl fd op buf =
      Downlink.pass3 self#downlink Sysno.sys_ioctl
        (fun a b c -> Call.Ioctl (a, b, c)) fd op buf
    method sys_symlink target path =
      Downlink.pass2 self#downlink Sysno.sys_symlink
        (fun a b -> Call.Symlink (a, b)) target path
    method sys_readlink path buf =
      Downlink.pass2 self#downlink Sysno.sys_readlink
        (fun a b -> Call.Readlink (a, b)) path buf
    method sys_umask m =
      Downlink.pass1 self#downlink Sysno.sys_umask (fun a -> Call.Umask a) m
    method sys_fstat fd r =
      Downlink.pass2 self#downlink Sysno.sys_fstat
        (fun a b -> Call.Fstat (a, b)) fd r
    method sys_getpagesize () = Downlink.pass0 self#downlink Call.Getpagesize
    method sys_getpgrp () = Downlink.pass0 self#downlink Call.Getpgrp
    method sys_setpgrp pid pgrp =
      Downlink.pass2 self#downlink Sysno.sys_setpgrp
        (fun a b -> Call.Setpgrp (a, b)) pid pgrp
    method sys_getdtablesize () =
      Downlink.pass0 self#downlink Call.Getdtablesize
    method sys_dup2 o n =
      Downlink.pass2 self#downlink Sysno.sys_dup2
        (fun a b -> Call.Dup2 (a, b)) o n
    method sys_fcntl fd cmd arg =
      Downlink.pass3 self#downlink Sysno.sys_fcntl
        (fun a b c -> Call.Fcntl (a, b, c)) fd cmd arg
    method sys_fsync fd =
      Downlink.pass1 self#downlink Sysno.sys_fsync (fun a -> Call.Fsync a) fd
    method sys_select rmask wmask tmo =
      Downlink.pass3 self#downlink Sysno.sys_select
        (fun a b c -> Call.Select (a, b, c)) rmask wmask tmo
    method sys_gettimeofday r =
      Downlink.pass1 self#downlink Sysno.sys_gettimeofday
        (fun a -> Call.Gettimeofday a) r
    method sys_getrusage r =
      Downlink.pass1 self#downlink Sysno.sys_getrusage
        (fun a -> Call.Getrusage a) r
    method sys_settimeofday sec usec =
      Downlink.pass2 self#downlink Sysno.sys_settimeofday
        (fun a b -> Call.Settimeofday (a, b)) sec usec
    method sys_rename src dst =
      Downlink.pass2 self#downlink Sysno.sys_rename
        (fun a b -> Call.Rename (a, b)) src dst
    method sys_truncate path len =
      Downlink.pass2 self#downlink Sysno.sys_truncate
        (fun a b -> Call.Truncate (a, b)) path len
    method sys_ftruncate fd len =
      Downlink.pass2 self#downlink Sysno.sys_ftruncate
        (fun a b -> Call.Ftruncate (a, b)) fd len
    method sys_mkdir path mode =
      Downlink.pass2 self#downlink Sysno.sys_mkdir
        (fun a b -> Call.Mkdir (a, b)) path mode
    method sys_rmdir path =
      Downlink.pass1 self#downlink Sysno.sys_rmdir (fun a -> Call.Rmdir a) path
    method sys_utimes path atime mtime =
      Downlink.pass3 self#downlink Sysno.sys_utimes
        (fun a b c -> Call.Utimes (a, b, c)) path atime mtime
    method sys_getdirentries fd buf =
      Downlink.pass2 self#downlink Sysno.sys_getdirentries
        (fun a b -> Call.Getdirentries (a, b)) fd buf
    method sys_sleepus us =
      Downlink.pass1 self#downlink Sysno.sys_sleepus
        (fun a -> Call.Sleepus a) us
    method sys_getcwd buf =
      Downlink.pass1 self#downlink Sysno.sys_getcwd (fun a -> Call.Getcwd a) buf

    method unknown_syscall (env : Envelope.t) : Value.res = super#syscall env
  end
