open Abi

let buf_str b =
  Printf.sprintf "0x%x[%d]" (Hashtbl.hash b land 0xffffff) (Bytes.length b)

let strs_str a = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%S") a))

let handler_str = function
  | None -> "NULL"
  | Some Value.H_default -> "SIG_DFL"
  | Some Value.H_ignore -> "SIG_IGN"
  | Some (Value.H_fn _) -> "<handler>"

class agent =
  object (self)
    inherit Toolkit.symbolic_syscall as super

    val mutable out_fd = 2
    val mutable traced = 0

    method! agent_name = "trace"
    method set_output fd = out_fd <- fd
    method calls_traced = traced

    method! init argv =
      (* genuinely wants every call: full interest is the point here *)
      self#register_interest_all;
      Array.iter
        (fun arg ->
          match String.index_opt arg '=' with
          | Some i when String.sub arg 0 i = "fd" ->
            (match
               int_of_string_opt
                 (String.sub arg (i + 1) (String.length arg - i - 1))
             with
             | Some fd -> out_fd <- fd
             | None -> ())
          | _ -> ())
        argv

    method private emit line =
      ignore (Toolkit.Downlink.down_call self#downlink (Call.Write (out_fd, line)))

    (* Both line shapes go through the span sink: one [Obs.Span.call]
       record per event, rendered by [Obs.Span.call_line] for the text
       descriptor and pushed verbatim into the flight recorder (where
       [--trace-out] drains it as JSONL) when tracing is enabled. *)
    method private event name args result =
      let span = Obs.current () in
      let c =
        { Obs.Span.c_span = span;
          c_pid = Obs.current_pid ();
          c_t_us = Obs.now_us ();
          c_name = name;
          c_args = args;
          c_result = result;
          (* post events flag traps some layer below us mutated *)
          c_rewrote = result <> None && Obs.span_rewrites span > 0 }
      in
      Obs.record_call c;
      self#emit (Obs.Span.call_line c ^ "\n")

    method private pre name args =
      traced <- traced + 1;
      self#event name args None

    method private post name ret =
      self#event name "" (Some (Value.res_to_string ret));
      ret

    method! init_child = self#emit "--- fork: child running under trace ---\n"

    method! signal_handler s =
      self#emit (Printf.sprintf "--- signal %s delivered ---\n" (Signal.name s));
      super#signal_handler s

    (* --- per-call derived methods (the paper's 12-statements-per-call
       body, one for each 4.3BSD call) ------------------------------- *)

    method! sys_exit code =
      self#pre "exit" (string_of_int code);
      (* does not return; no post line, matching _exit semantics *)
      super#sys_exit code

    method! sys_fork body =
      self#pre "fork" "";
      self#post "fork" (super#sys_fork body)

    method! sys_read fd buf cnt =
      self#pre "read" (Printf.sprintf "%d, %s, %d" fd (buf_str buf) cnt);
      self#post "read" (super#sys_read fd buf cnt)

    method! sys_write fd data =
      self#pre "write"
        (Printf.sprintf "%d, <%d bytes>" fd (String.length data));
      self#post "write" (super#sys_write fd data)

    method! sys_open path flags mode =
      self#pre "open"
        (Format.asprintf "%S, %a, 0%o" path Flags.Open.pp flags mode);
      self#post "open" (super#sys_open path flags mode)

    method! sys_close fd =
      self#pre "close" (string_of_int fd);
      self#post "close" (super#sys_close fd)

    method! sys_wait4 pid options =
      self#pre "wait4" (Printf.sprintf "%d, %d" pid options);
      self#post "wait4" (super#sys_wait4 pid options)

    method! sys_creat path mode =
      self#pre "creat" (Printf.sprintf "%S, 0%o" path mode);
      self#post "creat" (super#sys_creat path mode)

    method! sys_link existing path =
      self#pre "link" (Printf.sprintf "%S, %S" existing path);
      self#post "link" (super#sys_link existing path)

    method! sys_unlink path =
      self#pre "unlink" (Printf.sprintf "%S" path);
      self#post "unlink" (super#sys_unlink path)

    method! sys_execve path argv envp =
      self#pre "execve"
        (Printf.sprintf "%S, [%s], [%d vars]" path (strs_str argv)
           (Array.length envp));
      (* on success control transfers to the new image; only failures
         produce a return line *)
      self#post "execve" (super#sys_execve path argv envp)

    method! sys_chdir path =
      self#pre "chdir" (Printf.sprintf "%S" path);
      self#post "chdir" (super#sys_chdir path)

    method! sys_fchdir fd =
      self#pre "fchdir" (string_of_int fd);
      self#post "fchdir" (super#sys_fchdir fd)

    method! sys_mknod path mode dev =
      self#pre "mknod" (Printf.sprintf "%S, 0%o, %d" path mode dev);
      self#post "mknod" (super#sys_mknod path mode dev)

    method! sys_chmod path mode =
      self#pre "chmod" (Printf.sprintf "%S, 0%o" path mode);
      self#post "chmod" (super#sys_chmod path mode)

    method! sys_chown path uid gid =
      self#pre "chown" (Printf.sprintf "%S, %d, %d" path uid gid);
      self#post "chown" (super#sys_chown path uid gid)

    method! sys_sbrk d =
      self#pre "sbrk" (string_of_int d);
      self#post "sbrk" (super#sys_sbrk d)

    method! sys_lseek fd off whence =
      self#pre "lseek" (Printf.sprintf "%d, %d, %d" fd off whence);
      self#post "lseek" (super#sys_lseek fd off whence)

    method! sys_getpid () =
      self#pre "getpid" "";
      self#post "getpid" (super#sys_getpid ())

    method! sys_setuid u =
      self#pre "setuid" (string_of_int u);
      self#post "setuid" (super#sys_setuid u)

    method! sys_getuid () =
      self#pre "getuid" "";
      self#post "getuid" (super#sys_getuid ())

    method! sys_geteuid () =
      self#pre "geteuid" "";
      self#post "geteuid" (super#sys_geteuid ())

    method! sys_alarm sec =
      self#pre "alarm" (string_of_int sec);
      self#post "alarm" (super#sys_alarm sec)

    method! sys_access path bits =
      self#pre "access" (Printf.sprintf "%S, %d" path bits);
      self#post "access" (super#sys_access path bits)

    method! sys_sync () =
      self#pre "sync" "";
      self#post "sync" (super#sys_sync ())

    method! sys_kill pid s =
      self#pre "kill" (Printf.sprintf "%d, %s" pid (Signal.name s));
      self#post "kill" (super#sys_kill pid s)

    method! sys_stat path r =
      self#pre "stat" (Printf.sprintf "%S, <statbuf>" path);
      self#post "stat" (super#sys_stat path r)

    method! sys_getppid () =
      self#pre "getppid" "";
      self#post "getppid" (super#sys_getppid ())

    method! sys_lstat path r =
      self#pre "lstat" (Printf.sprintf "%S, <statbuf>" path);
      self#post "lstat" (super#sys_lstat path r)

    method! sys_dup fd =
      self#pre "dup" (string_of_int fd);
      self#post "dup" (super#sys_dup fd)

    method! sys_pipe () =
      self#pre "pipe" "";
      self#post "pipe" (super#sys_pipe ())

    method! sys_socketpair () =
      self#pre "socketpair" "";
      self#post "socketpair" (super#sys_socketpair ())

    method! sys_getegid () =
      self#pre "getegid" "";
      self#post "getegid" (super#sys_getegid ())

    method! sys_sigaction s h o =
      self#pre "sigaction"
        (Printf.sprintf "%s, %s" (Signal.name s) (handler_str h));
      self#post "sigaction" (super#sys_sigaction s h o)

    method! sys_getgid () =
      self#pre "getgid" "";
      self#post "getgid" (super#sys_getgid ())

    method! sys_sigprocmask how m =
      self#pre "sigprocmask" (Printf.sprintf "%d, 0x%x" how m);
      self#post "sigprocmask" (super#sys_sigprocmask how m)

    method! sys_sigpending () =
      self#pre "sigpending" "";
      self#post "sigpending" (super#sys_sigpending ())

    method! sys_sigsuspend m =
      self#pre "sigsuspend" (Printf.sprintf "0x%x" m);
      self#post "sigsuspend" (super#sys_sigsuspend m)

    method! sys_ioctl fd op buf =
      self#pre "ioctl" (Printf.sprintf "%d, 0x%x, %s" fd op (buf_str buf));
      self#post "ioctl" (super#sys_ioctl fd op buf)

    method! sys_symlink target path =
      self#pre "symlink" (Printf.sprintf "%S, %S" target path);
      self#post "symlink" (super#sys_symlink target path)

    method! sys_readlink path buf =
      self#pre "readlink" (Printf.sprintf "%S, %s" path (buf_str buf));
      self#post "readlink" (super#sys_readlink path buf)

    method! sys_umask m =
      self#pre "umask" (Printf.sprintf "0%o" m);
      self#post "umask" (super#sys_umask m)

    method! sys_fstat fd r =
      self#pre "fstat" (Printf.sprintf "%d, <statbuf>" fd);
      self#post "fstat" (super#sys_fstat fd r)

    method! sys_getpagesize () =
      self#pre "getpagesize" "";
      self#post "getpagesize" (super#sys_getpagesize ())

    method! sys_getpgrp () =
      self#pre "getpgrp" "";
      self#post "getpgrp" (super#sys_getpgrp ())

    method! sys_setpgrp pid pgrp =
      self#pre "setpgrp" (Printf.sprintf "%d, %d" pid pgrp);
      self#post "setpgrp" (super#sys_setpgrp pid pgrp)

    method! sys_getdtablesize () =
      self#pre "getdtablesize" "";
      self#post "getdtablesize" (super#sys_getdtablesize ())

    method! sys_dup2 o n =
      self#pre "dup2" (Printf.sprintf "%d, %d" o n);
      self#post "dup2" (super#sys_dup2 o n)

    method! sys_fcntl fd cmd arg =
      self#pre "fcntl" (Printf.sprintf "%d, %d, %d" fd cmd arg);
      self#post "fcntl" (super#sys_fcntl fd cmd arg)

    method! sys_fsync fd =
      self#pre "fsync" (string_of_int fd);
      self#post "fsync" (super#sys_fsync fd)

    method! sys_select rmask wmask tmo =
      self#pre "select" (Printf.sprintf "0x%x, 0x%x, %d" rmask wmask tmo);
      self#post "select" (super#sys_select rmask wmask tmo)

    method! sys_gettimeofday r =
      self#pre "gettimeofday" "<timeval>";
      self#post "gettimeofday" (super#sys_gettimeofday r)

    method! sys_getrusage r =
      self#pre "getrusage" "<rusage>";
      self#post "getrusage" (super#sys_getrusage r)

    method! sys_settimeofday sec usec =
      self#pre "settimeofday" (Printf.sprintf "%d, %d" sec usec);
      self#post "settimeofday" (super#sys_settimeofday sec usec)

    method! sys_rename src dst =
      self#pre "rename" (Printf.sprintf "%S, %S" src dst);
      self#post "rename" (super#sys_rename src dst)

    method! sys_truncate path len =
      self#pre "truncate" (Printf.sprintf "%S, %d" path len);
      self#post "truncate" (super#sys_truncate path len)

    method! sys_ftruncate fd len =
      self#pre "ftruncate" (Printf.sprintf "%d, %d" fd len);
      self#post "ftruncate" (super#sys_ftruncate fd len)

    method! sys_mkdir path mode =
      self#pre "mkdir" (Printf.sprintf "%S, 0%o" path mode);
      self#post "mkdir" (super#sys_mkdir path mode)

    method! sys_rmdir path =
      self#pre "rmdir" (Printf.sprintf "%S" path);
      self#post "rmdir" (super#sys_rmdir path)

    method! sys_utimes path atime mtime =
      self#pre "utimes" (Printf.sprintf "%S, %d, %d" path atime mtime);
      self#post "utimes" (super#sys_utimes path atime mtime)

    method! sys_getdirentries fd buf =
      self#pre "getdirentries" (Printf.sprintf "%d, %s" fd (buf_str buf));
      self#post "getdirentries" (super#sys_getdirentries fd buf)

    method! sys_sleepus us =
      self#pre "sleepus" (string_of_int us);
      self#post "sleepus" (super#sys_sleepus us)

    method! sys_getcwd buf =
      self#pre "getcwd" (buf_str buf);
      self#post "getcwd" (super#sys_getcwd buf)

    method! unknown_syscall env =
      self#pre "syscall" (Format.asprintf "%a" Envelope.pp env);
      self#post "syscall" (super#unknown_syscall env)
  end

let create ?(fd = 2) () =
  let a = new agent in
  a#set_output fd;
  a
