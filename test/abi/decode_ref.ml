(* The typed-call decoder as it stood before [Call.decode] read each
   argument slot once: one accessor per argument, each returning an
   option-wrapped slot and a result, chained with [let*].  Kept only as
   the oracle the new decoder must agree with on every wire, malformed
   ones included. *)

open Abi
open Value
open Call

module G = struct
  let arg (w : Value.wire) i =
    if i >= 0 && i < Array.length w.args then Some w.args.(i) else None

  let int w i =
    match arg w i with Some (Int n) -> Ok n | _ -> Error Errno.EFAULT

  let str w i =
    match arg w i with Some (Str s) -> Ok s | _ -> Error Errno.EFAULT

  let buf w i =
    match arg w i with Some (Buf b) -> Ok b | _ -> Error Errno.EFAULT

  let strs w i =
    match arg w i with Some (Strs a) -> Ok a | _ -> Error Errno.EFAULT

  let body w i =
    match arg w i with Some (Body f) -> Ok f | _ -> Error Errno.EFAULT

  let stat_ref w i =
    match arg w i with Some (Stat_ref r) -> Ok r | _ -> Error Errno.EFAULT

  let tv_ref w i =
    match arg w i with Some (Tv_ref r) -> Ok r | _ -> Error Errno.EFAULT

  let handler_opt w i =
    match arg w i with
    | Some (Handler h) -> Ok (Some h)
    | Some Nil | None -> Ok None
    | _ -> Error Errno.EFAULT

  let handler_ref_opt w i =
    match arg w i with
    | Some (Handler_ref r) -> Ok (Some r)
    | Some Nil | None -> Ok None
    | _ -> Error Errno.EFAULT
end

let ( let* ) = Result.bind

let decode (w : Value.wire) : (Call.t, Errno.t) result =
  let n = w.num in
  if n = Sysno.sys_exit then
    let* code = G.int w 0 in Ok (Exit code)
  else if n = Sysno.sys_fork then
    let* body = G.body w 0 in Ok (Fork body)
  else if n = Sysno.sys_read then
    let* fd = G.int w 0 in
    let* buf = G.buf w 1 in
    let* cnt = G.int w 2 in
    Ok (Read (fd, buf, cnt))
  else if n = Sysno.sys_write then
    let* fd = G.int w 0 in
    let* data = G.str w 1 in
    Ok (Write (fd, data))
  else if n = Sysno.sys_open then
    let* p = G.str w 0 in
    let* flags = G.int w 1 in
    let* mode = G.int w 2 in
    Ok (Open (p, flags, mode))
  else if n = Sysno.sys_close then
    let* fd = G.int w 0 in Ok (Close fd)
  else if n = Sysno.sys_wait4 then
    let* pid = G.int w 0 in
    let* opts = G.int w 1 in
    Ok (Wait4 (pid, opts))
  else if n = Sysno.sys_creat then
    let* p = G.str w 0 in
    let* mode = G.int w 1 in
    Ok (Creat (p, mode))
  else if n = Sysno.sys_link then
    let* p = G.str w 0 in
    let* q = G.str w 1 in
    Ok (Link (p, q))
  else if n = Sysno.sys_unlink then
    let* p = G.str w 0 in Ok (Unlink p)
  else if n = Sysno.sys_execve then
    let* p = G.str w 0 in
    let* argv = G.strs w 1 in
    let* envp = G.strs w 2 in
    Ok (Execve (p, argv, envp))
  else if n = Sysno.sys_chdir then
    let* p = G.str w 0 in Ok (Chdir p)
  else if n = Sysno.sys_fchdir then
    let* fd = G.int w 0 in Ok (Fchdir fd)
  else if n = Sysno.sys_mknod then
    let* p = G.str w 0 in
    let* mode = G.int w 1 in
    let* dev = G.int w 2 in
    Ok (Mknod (p, mode, dev))
  else if n = Sysno.sys_chmod then
    let* p = G.str w 0 in
    let* mode = G.int w 1 in
    Ok (Chmod (p, mode))
  else if n = Sysno.sys_chown then
    let* p = G.str w 0 in
    let* uid = G.int w 1 in
    let* gid = G.int w 2 in
    Ok (Chown (p, uid, gid))
  else if n = Sysno.sys_sbrk then
    let* d = G.int w 0 in Ok (Sbrk d)
  else if n = Sysno.sys_lseek then
    let* fd = G.int w 0 in
    let* off = G.int w 1 in
    let* whence = G.int w 2 in
    Ok (Lseek (fd, off, whence))
  else if n = Sysno.sys_getpid then Ok Getpid
  else if n = Sysno.sys_setuid then
    let* u = G.int w 0 in Ok (Setuid u)
  else if n = Sysno.sys_getuid then Ok Getuid
  else if n = Sysno.sys_geteuid then Ok Geteuid
  else if n = Sysno.sys_alarm then
    let* s = G.int w 0 in Ok (Alarm s)
  else if n = Sysno.sys_access then
    let* p = G.str w 0 in
    let* m = G.int w 1 in
    Ok (Access (p, m))
  else if n = Sysno.sys_sync then Ok Sync
  else if n = Sysno.sys_kill then
    let* pid = G.int w 0 in
    let* s = G.int w 1 in
    Ok (Kill (pid, s))
  else if n = Sysno.sys_stat then
    let* p = G.str w 0 in
    let* r = G.stat_ref w 1 in
    Ok (Stat (p, r))
  else if n = Sysno.sys_getppid then Ok Getppid
  else if n = Sysno.sys_lstat then
    let* p = G.str w 0 in
    let* r = G.stat_ref w 1 in
    Ok (Lstat (p, r))
  else if n = Sysno.sys_dup then
    let* fd = G.int w 0 in Ok (Dup fd)
  else if n = Sysno.sys_pipe then Ok Pipe
  else if n = Sysno.sys_socketpair then Ok Socketpair
  else if n = Sysno.sys_getegid then Ok Getegid
  else if n = Sysno.sys_sigaction then
    let* s = G.int w 0 in
    let* h = G.handler_opt w 1 in
    let* o = G.handler_ref_opt w 2 in
    Ok (Sigaction (s, h, o))
  else if n = Sysno.sys_getgid then Ok Getgid
  else if n = Sysno.sys_sigprocmask then
    let* how = G.int w 0 in
    let* m = G.int w 1 in
    Ok (Sigprocmask (how, m))
  else if n = Sysno.sys_sigpending then Ok Sigpending
  else if n = Sysno.sys_sigsuspend then
    let* m = G.int w 0 in Ok (Sigsuspend m)
  else if n = Sysno.sys_ioctl then
    let* fd = G.int w 0 in
    let* op = G.int w 1 in
    let* b = G.buf w 2 in
    Ok (Ioctl (fd, op, b))
  else if n = Sysno.sys_symlink then
    let* tgt = G.str w 0 in
    let* p = G.str w 1 in
    Ok (Symlink (tgt, p))
  else if n = Sysno.sys_readlink then
    let* p = G.str w 0 in
    let* b = G.buf w 1 in
    Ok (Readlink (p, b))
  else if n = Sysno.sys_umask then
    let* m = G.int w 0 in Ok (Umask m)
  else if n = Sysno.sys_fstat then
    let* fd = G.int w 0 in
    let* r = G.stat_ref w 1 in
    Ok (Fstat (fd, r))
  else if n = Sysno.sys_getpagesize then Ok Getpagesize
  else if n = Sysno.sys_getpgrp then Ok Getpgrp
  else if n = Sysno.sys_setpgrp then
    let* pid = G.int w 0 in
    let* pgrp = G.int w 1 in
    Ok (Setpgrp (pid, pgrp))
  else if n = Sysno.sys_getdtablesize then Ok Getdtablesize
  else if n = Sysno.sys_dup2 then
    let* o = G.int w 0 in
    let* d = G.int w 1 in
    Ok (Dup2 (o, d))
  else if n = Sysno.sys_fcntl then
    let* fd = G.int w 0 in
    let* cmd = G.int w 1 in
    let* arg = G.int w 2 in
    Ok (Fcntl (fd, cmd, arg))
  else if n = Sysno.sys_fsync then
    let* fd = G.int w 0 in Ok (Fsync fd)
  else if n = Sysno.sys_socket then Ok Socket
  else if n = Sysno.sys_bind then
    let* fd = G.int w 0 in
    let* addr = G.str w 1 in
    Ok (Bind (fd, addr))
  else if n = Sysno.sys_listen then
    let* fd = G.int w 0 in
    let* backlog = G.int w 1 in
    Ok (Listen (fd, backlog))
  else if n = Sysno.sys_accept then
    let* fd = G.int w 0 in Ok (Accept fd)
  else if n = Sysno.sys_connect then
    let* fd = G.int w 0 in
    let* addr = G.str w 1 in
    Ok (Connect (fd, addr))
  else if n = Sysno.sys_send then
    let* fd = G.int w 0 in
    let* data = G.str w 1 in
    Ok (Send (fd, data))
  else if n = Sysno.sys_recv then
    let* fd = G.int w 0 in
    let* buf = G.buf w 1 in
    let* cnt = G.int w 2 in
    Ok (Recv (fd, buf, cnt))
  else if n = Sysno.sys_shutdown then
    let* fd = G.int w 0 in
    let* how = G.int w 1 in
    Ok (Shutdown (fd, how))
  else if n = Sysno.sys_select then
    let* rmask = G.int w 0 in
    let* wmask = G.int w 1 in
    let* tmo = G.int w 2 in
    Ok (Select (rmask, wmask, tmo))
  else if n = Sysno.sys_gettimeofday then
    let* r = G.tv_ref w 0 in Ok (Gettimeofday r)
  else if n = Sysno.sys_getrusage then
    let* r = G.tv_ref w 0 in Ok (Getrusage r)
  else if n = Sysno.sys_settimeofday then
    let* s = G.int w 0 in
    let* us = G.int w 1 in
    Ok (Settimeofday (s, us))
  else if n = Sysno.sys_rename then
    let* p = G.str w 0 in
    let* q = G.str w 1 in
    Ok (Rename (p, q))
  else if n = Sysno.sys_truncate then
    let* p = G.str w 0 in
    let* len = G.int w 1 in
    Ok (Truncate (p, len))
  else if n = Sysno.sys_ftruncate then
    let* fd = G.int w 0 in
    let* len = G.int w 1 in
    Ok (Ftruncate (fd, len))
  else if n = Sysno.sys_mkdir then
    let* p = G.str w 0 in
    let* mode = G.int w 1 in
    Ok (Mkdir (p, mode))
  else if n = Sysno.sys_rmdir then
    let* p = G.str w 0 in Ok (Rmdir p)
  else if n = Sysno.sys_utimes then
    let* p = G.str w 0 in
    let* a = G.int w 1 in
    let* m = G.int w 2 in
    Ok (Utimes (p, a, m))
  else if n = Sysno.sys_getdirentries then
    let* fd = G.int w 0 in
    let* b = G.buf w 1 in
    Ok (Getdirentries (fd, b))
  else if n = Sysno.sys_sleepus then
    let* us = G.int w 0 in Ok (Sleepus us)
  else if n = Sysno.sys_getcwd then
    let* b = G.buf w 0 in Ok (Getcwd b)
  else Error Errno.ENOSYS
