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
        self#dispatch_call call

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
       survives both. *)

    method sys_exit code = self#down (Call.Exit code)

    method sys_fork body =
      Boilerplate.do_fork self#downlink
        ~init_child:(fun () -> self#init_child)
        body

    method sys_execve path argv envp =
      Boilerplate.do_execve self#downlink path argv envp

    method sys_read fd buf cnt = self#down (Call.Read (fd, buf, cnt))
    method sys_write fd data = self#down (Call.Write (fd, data))
    method sys_open path flags mode = self#down (Call.Open (path, flags, mode))
    method sys_close fd = self#down (Call.Close fd)
    method sys_wait4 pid options = self#down (Call.Wait4 (pid, options))
    method sys_creat path mode = self#down (Call.Creat (path, mode))
    method sys_link existing path = self#down (Call.Link (existing, path))
    method sys_unlink path = self#down (Call.Unlink path)
    method sys_chdir path = self#down (Call.Chdir path)
    method sys_fchdir fd = self#down (Call.Fchdir fd)
    method sys_mknod path mode dev = self#down (Call.Mknod (path, mode, dev))
    method sys_chmod path mode = self#down (Call.Chmod (path, mode))
    method sys_chown path uid gid = self#down (Call.Chown (path, uid, gid))
    method sys_sbrk d = self#down (Call.Sbrk d)
    method sys_lseek fd off whence = self#down (Call.Lseek (fd, off, whence))
    method sys_getpid () = self#down Call.Getpid
    method sys_setuid u = self#down (Call.Setuid u)
    method sys_getuid () = self#down Call.Getuid
    method sys_geteuid () = self#down Call.Geteuid
    method sys_alarm sec = self#down (Call.Alarm sec)
    method sys_access path bits = self#down (Call.Access (path, bits))
    method sys_sync () = self#down Call.Sync
    method sys_kill pid s = self#down (Call.Kill (pid, s))
    method sys_stat path r = self#down (Call.Stat (path, r))
    method sys_getppid () = self#down Call.Getppid
    method sys_lstat path r = self#down (Call.Lstat (path, r))
    method sys_dup fd = self#down (Call.Dup fd)
    method sys_pipe () = self#down Call.Pipe
    method sys_socketpair () = self#down Call.Socketpair
    method sys_socket () = self#down Call.Socket
    method sys_bind fd addr = self#down (Call.Bind (fd, addr))
    method sys_listen fd backlog = self#down (Call.Listen (fd, backlog))
    method sys_accept fd = self#down (Call.Accept fd)
    method sys_connect fd addr = self#down (Call.Connect (fd, addr))
    method sys_send fd data = self#down (Call.Send (fd, data))
    method sys_recv fd buf cnt = self#down (Call.Recv (fd, buf, cnt))
    method sys_shutdown fd how = self#down (Call.Shutdown (fd, how))
    method sys_getegid () = self#down Call.Getegid
    method sys_sigaction s h o = self#down (Call.Sigaction (s, h, o))
    method sys_getgid () = self#down Call.Getgid
    method sys_sigprocmask how m = self#down (Call.Sigprocmask (how, m))
    method sys_sigpending () = self#down Call.Sigpending
    method sys_sigsuspend m = self#down (Call.Sigsuspend m)
    method sys_ioctl fd op buf = self#down (Call.Ioctl (fd, op, buf))
    method sys_symlink target path = self#down (Call.Symlink (target, path))
    method sys_readlink path buf = self#down (Call.Readlink (path, buf))
    method sys_umask m = self#down (Call.Umask m)
    method sys_fstat fd r = self#down (Call.Fstat (fd, r))
    method sys_getpagesize () = self#down Call.Getpagesize
    method sys_getpgrp () = self#down Call.Getpgrp
    method sys_setpgrp pid pgrp = self#down (Call.Setpgrp (pid, pgrp))
    method sys_getdtablesize () = self#down Call.Getdtablesize
    method sys_dup2 o n = self#down (Call.Dup2 (o, n))
    method sys_fcntl fd cmd arg = self#down (Call.Fcntl (fd, cmd, arg))
    method sys_fsync fd = self#down (Call.Fsync fd)
    method sys_select rmask wmask tmo = self#down (Call.Select (rmask, wmask, tmo))
    method sys_gettimeofday r = self#down (Call.Gettimeofday r)
    method sys_getrusage r = self#down (Call.Getrusage r)
    method sys_settimeofday sec usec =
      self#down (Call.Settimeofday (sec, usec))
    method sys_rename src dst = self#down (Call.Rename (src, dst))
    method sys_truncate path len = self#down (Call.Truncate (path, len))
    method sys_ftruncate fd len = self#down (Call.Ftruncate (fd, len))
    method sys_mkdir path mode = self#down (Call.Mkdir (path, mode))
    method sys_rmdir path = self#down (Call.Rmdir path)
    method sys_utimes path atime mtime =
      self#down (Call.Utimes (path, atime, mtime))
    method sys_getdirentries fd buf = self#down (Call.Getdirentries (fd, buf))
    method sys_sleepus us = self#down (Call.Sleepus us)
    method sys_getcwd buf = self#down (Call.Getcwd buf)

    method unknown_syscall (env : Envelope.t) : Value.res = super#syscall env
  end
