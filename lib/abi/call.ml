open Value

type t =
  | Exit of int
  | Fork of (unit -> int)
  | Read of int * Bytes.t * int
  | Write of int * string
  | Open of string * int * int
  | Close of int
  | Wait4 of int * int
  | Creat of string * int
  | Link of string * string
  | Unlink of string
  | Execve of string * string array * string array
  | Chdir of string
  | Fchdir of int
  | Mknod of string * int * int
  | Chmod of string * int
  | Chown of string * int * int
  | Sbrk of int
  | Lseek of int * int * int
  | Getpid
  | Setuid of int
  | Getuid
  | Geteuid
  | Alarm of int
  | Access of string * int
  | Sync
  | Kill of int * int
  | Stat of string * Stat.t option ref
  | Getppid
  | Lstat of string * Stat.t option ref
  | Dup of int
  | Pipe
  | Socketpair
  | Getegid
  | Sigaction of int * handler option * handler option ref option
  | Getgid
  | Sigprocmask of int * int
  | Sigpending
  | Sigsuspend of int
  | Ioctl of int * int * Bytes.t
  | Symlink of string * string
  | Readlink of string * Bytes.t
  | Umask of int
  | Fstat of int * Stat.t option ref
  | Getpagesize
  | Getpgrp
  | Setpgrp of int * int
  | Getdtablesize
  | Dup2 of int * int
  | Fcntl of int * int * int
  | Fsync of int
  | Socket
  | Bind of int * string
  | Listen of int * int
  | Accept of int
  | Connect of int * string
  | Send of int * string
  | Recv of int * Bytes.t * int
  | Shutdown of int * int
  | Select of int * int * int
  | Gettimeofday of (int * int) option ref
  | Getrusage of (int * int) option ref
  | Settimeofday of int * int
  | Rename of string * string
  | Truncate of string * int
  | Ftruncate of int * int
  | Mkdir of string * int
  | Rmdir of string
  | Utimes of string * int * int
  | Getdirentries of int * Bytes.t
  | Sleepus of int
  | Getcwd of Bytes.t

let number = function
  | Exit _ -> Sysno.sys_exit
  | Fork _ -> Sysno.sys_fork
  | Read _ -> Sysno.sys_read
  | Write _ -> Sysno.sys_write
  | Open _ -> Sysno.sys_open
  | Close _ -> Sysno.sys_close
  | Wait4 _ -> Sysno.sys_wait4
  | Creat _ -> Sysno.sys_creat
  | Link _ -> Sysno.sys_link
  | Unlink _ -> Sysno.sys_unlink
  | Execve _ -> Sysno.sys_execve
  | Chdir _ -> Sysno.sys_chdir
  | Fchdir _ -> Sysno.sys_fchdir
  | Mknod _ -> Sysno.sys_mknod
  | Chmod _ -> Sysno.sys_chmod
  | Chown _ -> Sysno.sys_chown
  | Sbrk _ -> Sysno.sys_sbrk
  | Lseek _ -> Sysno.sys_lseek
  | Getpid -> Sysno.sys_getpid
  | Setuid _ -> Sysno.sys_setuid
  | Getuid -> Sysno.sys_getuid
  | Geteuid -> Sysno.sys_geteuid
  | Alarm _ -> Sysno.sys_alarm
  | Access _ -> Sysno.sys_access
  | Sync -> Sysno.sys_sync
  | Kill _ -> Sysno.sys_kill
  | Stat _ -> Sysno.sys_stat
  | Getppid -> Sysno.sys_getppid
  | Lstat _ -> Sysno.sys_lstat
  | Dup _ -> Sysno.sys_dup
  | Pipe -> Sysno.sys_pipe
  | Socketpair -> Sysno.sys_socketpair
  | Getegid -> Sysno.sys_getegid
  | Sigaction _ -> Sysno.sys_sigaction
  | Getgid -> Sysno.sys_getgid
  | Sigprocmask _ -> Sysno.sys_sigprocmask
  | Sigpending -> Sysno.sys_sigpending
  | Sigsuspend _ -> Sysno.sys_sigsuspend
  | Ioctl _ -> Sysno.sys_ioctl
  | Symlink _ -> Sysno.sys_symlink
  | Readlink _ -> Sysno.sys_readlink
  | Umask _ -> Sysno.sys_umask
  | Fstat _ -> Sysno.sys_fstat
  | Getpagesize -> Sysno.sys_getpagesize
  | Getpgrp -> Sysno.sys_getpgrp
  | Setpgrp _ -> Sysno.sys_setpgrp
  | Getdtablesize -> Sysno.sys_getdtablesize
  | Dup2 _ -> Sysno.sys_dup2
  | Fcntl _ -> Sysno.sys_fcntl
  | Fsync _ -> Sysno.sys_fsync
  | Socket -> Sysno.sys_socket
  | Bind _ -> Sysno.sys_bind
  | Listen _ -> Sysno.sys_listen
  | Accept _ -> Sysno.sys_accept
  | Connect _ -> Sysno.sys_connect
  | Send _ -> Sysno.sys_send
  | Recv _ -> Sysno.sys_recv
  | Shutdown _ -> Sysno.sys_shutdown
  | Select _ -> Sysno.sys_select
  | Gettimeofday _ -> Sysno.sys_gettimeofday
  | Getrusage _ -> Sysno.sys_getrusage
  | Settimeofday _ -> Sysno.sys_settimeofday
  | Rename _ -> Sysno.sys_rename
  | Truncate _ -> Sysno.sys_truncate
  | Ftruncate _ -> Sysno.sys_ftruncate
  | Mkdir _ -> Sysno.sys_mkdir
  | Rmdir _ -> Sysno.sys_rmdir
  | Utimes _ -> Sysno.sys_utimes
  | Getdirentries _ -> Sysno.sys_getdirentries
  | Sleepus _ -> Sysno.sys_sleepus
  | Getcwd _ -> Sysno.sys_getcwd

let name c = Sysno.name (number c)

(* The encoder writes argument slots into an existing wire so the pool
   fast path ([Envelope.at_boundary]) can refill the wire a recycled
   envelope owns in place; the args array is reused whenever the arity
   matches (for a pooled wire in a syscall loop, always). *)

let slots (w : Value.wire) n =
  let a = w.args in
  if Array.length a = n then a
  else begin
    let a = Array.make n Value.Nil in
    w.args <- a;
    a
  end

let fill0 w = ignore (slots w 0)
let fill1 w x = (slots w 1).(0) <- x

let fill2 w x y =
  let a = slots w 2 in
  a.(0) <- x;
  a.(1) <- y

let fill3 w x y z =
  let a = slots w 3 in
  a.(0) <- x;
  a.(1) <- y;
  a.(2) <- z

let encode_into (w : Value.wire) c =
  w.num <- number c;
  match c with
  | Exit code -> fill1 w (Int code)
  | Fork body -> fill1 w (Body body)
  | Read (fd, buf, n) -> fill3 w (Int fd) (Buf buf) (Int n)
  | Write (fd, data) -> fill2 w (Int fd) (Str data)
  | Open (p, flags, mode) -> fill3 w (Str p) (Int flags) (Int mode)
  | Close fd -> fill1 w (Int fd)
  | Wait4 (pid, opts) -> fill2 w (Int pid) (Int opts)
  | Creat (p, mode) -> fill2 w (Str p) (Int mode)
  | Link (p, q) -> fill2 w (Str p) (Str q)
  | Unlink p -> fill1 w (Str p)
  | Execve (p, argv, envp) -> fill3 w (Str p) (Strs argv) (Strs envp)
  | Chdir p -> fill1 w (Str p)
  | Fchdir fd -> fill1 w (Int fd)
  | Mknod (p, mode, dev) -> fill3 w (Str p) (Int mode) (Int dev)
  | Chmod (p, mode) -> fill2 w (Str p) (Int mode)
  | Chown (p, uid, gid) -> fill3 w (Str p) (Int uid) (Int gid)
  | Sbrk n -> fill1 w (Int n)
  | Lseek (fd, off, whence) -> fill3 w (Int fd) (Int off) (Int whence)
  | Getpid -> fill0 w
  | Setuid u -> fill1 w (Int u)
  | Getuid -> fill0 w
  | Geteuid -> fill0 w
  | Alarm s -> fill1 w (Int s)
  | Access (p, m) -> fill2 w (Str p) (Int m)
  | Sync -> fill0 w
  | Kill (pid, s) -> fill2 w (Int pid) (Int s)
  | Stat (p, r) -> fill2 w (Str p) (Stat_ref r)
  | Getppid -> fill0 w
  | Lstat (p, r) -> fill2 w (Str p) (Stat_ref r)
  | Dup fd -> fill1 w (Int fd)
  | Pipe -> fill0 w
  | Socketpair -> fill0 w
  | Getegid -> fill0 w
  | Sigaction (s, h, o) ->
    fill3 w (Int s)
      (match h with Some h -> Handler h | None -> Nil)
      (match o with Some r -> Handler_ref r | None -> Nil)
  | Getgid -> fill0 w
  | Sigprocmask (how, m) -> fill2 w (Int how) (Int m)
  | Sigpending -> fill0 w
  | Sigsuspend m -> fill1 w (Int m)
  | Ioctl (fd, op, b) -> fill3 w (Int fd) (Int op) (Buf b)
  | Symlink (tgt, p) -> fill2 w (Str tgt) (Str p)
  | Readlink (p, b) -> fill2 w (Str p) (Buf b)
  | Umask m -> fill1 w (Int m)
  | Fstat (fd, r) -> fill2 w (Int fd) (Stat_ref r)
  | Getpagesize -> fill0 w
  | Getpgrp -> fill0 w
  | Setpgrp (pid, pgrp) -> fill2 w (Int pid) (Int pgrp)
  | Getdtablesize -> fill0 w
  | Dup2 (o, n) -> fill2 w (Int o) (Int n)
  | Fcntl (fd, cmd, arg) -> fill3 w (Int fd) (Int cmd) (Int arg)
  | Fsync fd -> fill1 w (Int fd)
  | Socket -> fill0 w
  | Bind (fd, addr) -> fill2 w (Int fd) (Str addr)
  | Listen (fd, backlog) -> fill2 w (Int fd) (Int backlog)
  | Accept fd -> fill1 w (Int fd)
  | Connect (fd, addr) -> fill2 w (Int fd) (Str addr)
  | Send (fd, data) -> fill2 w (Int fd) (Str data)
  | Recv (fd, buf, n) -> fill3 w (Int fd) (Buf buf) (Int n)
  | Shutdown (fd, how) -> fill2 w (Int fd) (Int how)
  | Select (r, w', tmo) -> fill3 w (Int r) (Int w') (Int tmo)
  | Gettimeofday r -> fill1 w (Tv_ref r)
  | Getrusage r -> fill1 w (Tv_ref r)
  | Settimeofday (s, us) -> fill2 w (Int s) (Int us)
  | Rename (p, q) -> fill2 w (Str p) (Str q)
  | Truncate (p, len) -> fill2 w (Str p) (Int len)
  | Ftruncate (fd, len) -> fill2 w (Int fd) (Int len)
  | Mkdir (p, mode) -> fill2 w (Str p) (Int mode)
  | Rmdir p -> fill1 w (Str p)
  | Utimes (p, a, m) -> fill3 w (Str p) (Int a) (Int m)
  | Getdirentries (fd, b) -> fill2 w (Int fd) (Buf b)
  | Sleepus us -> fill1 w (Int us)
  | Getcwd b -> fill1 w (Buf b)

let encode c =
  let w = { Value.num = 0; args = [||] } in
  encode_into w c;
  w

(* Each argument slot is read once, a missing slot reading as [Nil],
   and the slots are matched per call: the only allocation is the typed
   call and its [Ok].  A slot of the wrong shape, [Nil] included, is
   [EFAULT], except sigaction's two optional handler slots, where [Nil]
   means [None]. *)
let efault = Error Errno.EFAULT

let decode (w : wire) : (t, Errno.t) result =
  let a = w.args in
  let len = Array.length a in
  let a0 = if len > 0 then a.(0) else Nil in
  let a1 = if len > 1 then a.(1) else Nil in
  let a2 = if len > 2 then a.(2) else Nil in
  let n = w.num in
  if n = Sysno.sys_exit then
    match a0 with Int code -> Ok (Exit code) | _ -> efault
  else if n = Sysno.sys_fork then
    match a0 with Body body -> Ok (Fork body) | _ -> efault
  else if n = Sysno.sys_read then
    match a0, a1, a2 with
    | Int fd, Buf buf, Int cnt -> Ok (Read (fd, buf, cnt))
    | _ -> efault
  else if n = Sysno.sys_write then
    match a0, a1 with Int fd, Str data -> Ok (Write (fd, data)) | _ -> efault
  else if n = Sysno.sys_open then
    match a0, a1, a2 with
    | Str p, Int flags, Int mode -> Ok (Open (p, flags, mode))
    | _ -> efault
  else if n = Sysno.sys_close then
    match a0 with Int fd -> Ok (Close fd) | _ -> efault
  else if n = Sysno.sys_wait4 then
    match a0, a1 with Int pid, Int opts -> Ok (Wait4 (pid, opts)) | _ -> efault
  else if n = Sysno.sys_creat then
    match a0, a1 with Str p, Int mode -> Ok (Creat (p, mode)) | _ -> efault
  else if n = Sysno.sys_link then
    match a0, a1 with Str p, Str q -> Ok (Link (p, q)) | _ -> efault
  else if n = Sysno.sys_unlink then
    match a0 with Str p -> Ok (Unlink p) | _ -> efault
  else if n = Sysno.sys_execve then
    match a0, a1, a2 with
    | Str p, Strs argv, Strs envp -> Ok (Execve (p, argv, envp))
    | _ -> efault
  else if n = Sysno.sys_chdir then
    match a0 with Str p -> Ok (Chdir p) | _ -> efault
  else if n = Sysno.sys_fchdir then
    match a0 with Int fd -> Ok (Fchdir fd) | _ -> efault
  else if n = Sysno.sys_mknod then
    match a0, a1, a2 with
    | Str p, Int mode, Int dev -> Ok (Mknod (p, mode, dev))
    | _ -> efault
  else if n = Sysno.sys_chmod then
    match a0, a1 with Str p, Int mode -> Ok (Chmod (p, mode)) | _ -> efault
  else if n = Sysno.sys_chown then
    match a0, a1, a2 with
    | Str p, Int uid, Int gid -> Ok (Chown (p, uid, gid))
    | _ -> efault
  else if n = Sysno.sys_sbrk then
    match a0 with Int d -> Ok (Sbrk d) | _ -> efault
  else if n = Sysno.sys_lseek then
    match a0, a1, a2 with
    | Int fd, Int off, Int whence -> Ok (Lseek (fd, off, whence))
    | _ -> efault
  else if n = Sysno.sys_getpid then Ok Getpid
  else if n = Sysno.sys_setuid then
    match a0 with Int u -> Ok (Setuid u) | _ -> efault
  else if n = Sysno.sys_getuid then Ok Getuid
  else if n = Sysno.sys_geteuid then Ok Geteuid
  else if n = Sysno.sys_alarm then
    match a0 with Int s -> Ok (Alarm s) | _ -> efault
  else if n = Sysno.sys_access then
    match a0, a1 with Str p, Int m -> Ok (Access (p, m)) | _ -> efault
  else if n = Sysno.sys_sync then Ok Sync
  else if n = Sysno.sys_kill then
    match a0, a1 with Int pid, Int s -> Ok (Kill (pid, s)) | _ -> efault
  else if n = Sysno.sys_stat then
    match a0, a1 with Str p, Stat_ref r -> Ok (Stat (p, r)) | _ -> efault
  else if n = Sysno.sys_getppid then Ok Getppid
  else if n = Sysno.sys_lstat then
    match a0, a1 with Str p, Stat_ref r -> Ok (Lstat (p, r)) | _ -> efault
  else if n = Sysno.sys_dup then
    match a0 with Int fd -> Ok (Dup fd) | _ -> efault
  else if n = Sysno.sys_pipe then Ok Pipe
  else if n = Sysno.sys_socketpair then Ok Socketpair
  else if n = Sysno.sys_getegid then Ok Getegid
  else if n = Sysno.sys_sigaction then
    match a0, a1, a2 with
    | Int s, Handler h, Handler_ref o -> Ok (Sigaction (s, Some h, Some o))
    | Int s, Handler h, Nil -> Ok (Sigaction (s, Some h, None))
    | Int s, Nil, Handler_ref o -> Ok (Sigaction (s, None, Some o))
    | Int s, Nil, Nil -> Ok (Sigaction (s, None, None))
    | _ -> efault
  else if n = Sysno.sys_getgid then Ok Getgid
  else if n = Sysno.sys_sigprocmask then
    match a0, a1 with Int how, Int m -> Ok (Sigprocmask (how, m)) | _ -> efault
  else if n = Sysno.sys_sigpending then Ok Sigpending
  else if n = Sysno.sys_sigsuspend then
    match a0 with Int m -> Ok (Sigsuspend m) | _ -> efault
  else if n = Sysno.sys_ioctl then
    match a0, a1, a2 with
    | Int fd, Int op, Buf b -> Ok (Ioctl (fd, op, b))
    | _ -> efault
  else if n = Sysno.sys_symlink then
    match a0, a1 with Str tgt, Str p -> Ok (Symlink (tgt, p)) | _ -> efault
  else if n = Sysno.sys_readlink then
    match a0, a1 with Str p, Buf b -> Ok (Readlink (p, b)) | _ -> efault
  else if n = Sysno.sys_umask then
    match a0 with Int m -> Ok (Umask m) | _ -> efault
  else if n = Sysno.sys_fstat then
    match a0, a1 with Int fd, Stat_ref r -> Ok (Fstat (fd, r)) | _ -> efault
  else if n = Sysno.sys_getpagesize then Ok Getpagesize
  else if n = Sysno.sys_getpgrp then Ok Getpgrp
  else if n = Sysno.sys_setpgrp then
    match a0, a1 with
    | Int pid, Int pgrp -> Ok (Setpgrp (pid, pgrp))
    | _ -> efault
  else if n = Sysno.sys_getdtablesize then Ok Getdtablesize
  else if n = Sysno.sys_dup2 then
    match a0, a1 with Int o, Int d -> Ok (Dup2 (o, d)) | _ -> efault
  else if n = Sysno.sys_fcntl then
    match a0, a1, a2 with
    | Int fd, Int cmd, Int arg -> Ok (Fcntl (fd, cmd, arg))
    | _ -> efault
  else if n = Sysno.sys_fsync then
    match a0 with Int fd -> Ok (Fsync fd) | _ -> efault
  else if n = Sysno.sys_socket then Ok Socket
  else if n = Sysno.sys_bind then
    match a0, a1 with Int fd, Str addr -> Ok (Bind (fd, addr)) | _ -> efault
  else if n = Sysno.sys_listen then
    match a0, a1 with
    | Int fd, Int backlog -> Ok (Listen (fd, backlog))
    | _ -> efault
  else if n = Sysno.sys_accept then
    match a0 with Int fd -> Ok (Accept fd) | _ -> efault
  else if n = Sysno.sys_connect then
    match a0, a1 with Int fd, Str addr -> Ok (Connect (fd, addr)) | _ -> efault
  else if n = Sysno.sys_send then
    match a0, a1 with Int fd, Str data -> Ok (Send (fd, data)) | _ -> efault
  else if n = Sysno.sys_recv then
    match a0, a1, a2 with
    | Int fd, Buf buf, Int cnt -> Ok (Recv (fd, buf, cnt))
    | _ -> efault
  else if n = Sysno.sys_shutdown then
    match a0, a1 with Int fd, Int how -> Ok (Shutdown (fd, how)) | _ -> efault
  else if n = Sysno.sys_select then
    match a0, a1, a2 with
    | Int rmask, Int wmask, Int tmo -> Ok (Select (rmask, wmask, tmo))
    | _ -> efault
  else if n = Sysno.sys_gettimeofday then
    match a0 with Tv_ref r -> Ok (Gettimeofday r) | _ -> efault
  else if n = Sysno.sys_getrusage then
    match a0 with Tv_ref r -> Ok (Getrusage r) | _ -> efault
  else if n = Sysno.sys_settimeofday then
    match a0, a1 with
    | Int s, Int us -> Ok (Settimeofday (s, us))
    | _ -> efault
  else if n = Sysno.sys_rename then
    match a0, a1 with Str p, Str q -> Ok (Rename (p, q)) | _ -> efault
  else if n = Sysno.sys_truncate then
    match a0, a1 with Str p, Int len -> Ok (Truncate (p, len)) | _ -> efault
  else if n = Sysno.sys_ftruncate then
    match a0, a1 with Int fd, Int len -> Ok (Ftruncate (fd, len)) | _ -> efault
  else if n = Sysno.sys_mkdir then
    match a0, a1 with Str p, Int mode -> Ok (Mkdir (p, mode)) | _ -> efault
  else if n = Sysno.sys_rmdir then
    match a0 with Str p -> Ok (Rmdir p) | _ -> efault
  else if n = Sysno.sys_utimes then
    match a0, a1, a2 with
    | Str p, Int at, Int mt -> Ok (Utimes (p, at, mt))
    | _ -> efault
  else if n = Sysno.sys_getdirentries then
    match a0, a1 with
    | Int fd, Buf b -> Ok (Getdirentries (fd, b))
    | _ -> efault
  else if n = Sysno.sys_sleepus then
    match a0 with Int us -> Ok (Sleepus us) | _ -> efault
  else if n = Sysno.sys_getcwd then
    match a0 with Buf b -> Ok (Getcwd b) | _ -> efault
  else Error Errno.ENOSYS

let pathname_of = function
  | Open (p, _, _) | Creat (p, _) | Link (p, _) | Unlink p
  | Execve (p, _, _) | Chdir p | Mknod (p, _, _) | Chmod (p, _)
  | Chown (p, _, _) | Access (p, _) | Stat (p, _) | Lstat (p, _)
  | Symlink (_, p) | Readlink (p, _) | Rename (p, _) | Truncate (p, _)
  | Mkdir (p, _) | Rmdir p | Utimes (p, _, _) -> Some p
  | _ -> None

let descriptor_of = function
  | Read (fd, _, _) | Write (fd, _) | Close fd | Fchdir fd
  | Lseek (fd, _, _) | Dup fd | Dup2 (fd, _) | Ioctl (fd, _, _)
  | Fstat (fd, _) | Fcntl (fd, _, _) | Fsync fd | Ftruncate (fd, _)
  | Getdirentries (fd, _)
  | Bind (fd, _) | Listen (fd, _) | Accept fd | Connect (fd, _)
  | Send (fd, _) | Recv (fd, _, _) | Shutdown (fd, _) -> Some fd
  | _ -> None

let pp ppf c =
  let w = encode c in
  Format.fprintf ppf "%s(" (name c);
  (match c with
   | Open (p, flags, mode) ->
     Format.fprintf ppf "%S, %a, 0%o" p Flags.Open.pp flags mode
   | Kill (pid, s) ->
     Format.fprintf ppf "%d, %s" pid (Signal.name s)
   | Sigaction (s, h, _) ->
     Format.fprintf ppf "%s, %a" (Signal.name s) Value.pp
       (match h with Some h -> Handler h | None -> Nil)
   | _ ->
     Array.iteri
       (fun i v ->
         if i > 0 then Format.fprintf ppf ", ";
         Value.pp ppf v)
       w.args);
  Format.fprintf ppf ")"
