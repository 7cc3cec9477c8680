open Abi

module Render = struct
  let add = Buffer.add_string
  (* ", " before every argument but the first, which follows the "(" *)
  let sep b =
    if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '(' then add b ", "

  let rec dec b n =
    if n = min_int then add b (string_of_int n)
    else if n < 0 then (add b "-"; dec b (-n))
    else (if n >= 10 then dec b (n / 10); Buffer.add_char b "0123456789".[n mod 10])

  (* [%o] and [%x] print the 63-bit pattern unsigned, as [lsr] walks it *)
  let rec unsigned b bits n =
    if n lsr bits <> 0 then unsigned b bits (n lsr bits);
    Buffer.add_char b "0123456789abcdef".[n land ((1 lsl bits) - 1)]

  let quote b s = add b "\""; add b (String.escaped s); add b "\""
  let int n b = sep b; dec b n; b
  let octal n b = sep b; add b "0"; unsigned b 3 n; b
  let hex n b = sep b; add b "0x"; unsigned b 4 n; b
  let str s b = sep b; quote b s; b
  let lit s b = sep b; add b s; b
  let oflags f b = lit (Flags.Open.to_string f) b
  let count l n r b = sep b; add b l; dec b n; add b r; b (* <%d bytes>, [%d vars] *)

  let strs a b =
    sep b; add b "["; Array.iteri (fun i s -> if i > 0 then add b ", "; quote b s) a;
    add b "]"; b
end

open Render

let handler_str = function
  | None -> "NULL"
  | Some Value.H_default -> "SIG_DFL"
  | Some Value.H_ignore -> "SIG_IGN"
  | Some (Value.H_fn _) -> "<handler>"

class agent =
  object (self)
    inherit Toolkit.symbolic_syscall as super

    val mutable out_fd = 2

    (* Every process forked under the agent shares this object, and so
       its one line buffer and [name]: safe only because rendering
       performs no effect.  A line is started, filled and taken with
       [Buffer.contents] before [emit] traps; post lines render after
       [super#sys_*] has returned.  The buffer "address" token is an
       ordinal that advances whenever the buffer is not physically the
       previous one: it reads no contents (read buffers start
       uninitialised), so it follows only the deterministic schedule. *)
    val line = Buffer.create 256
    val mutable name = ""
    val mutable last_buf = Bytes.empty
    val mutable buf_ord = 0

    method! agent_name = "trace"
    method set_output fd = out_fd <- fd

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

    method private call n = name <- n; Buffer.clear line; add line n; add line "("; line

    method private bytes buf b =
      if buf != last_buf then (last_buf <- buf; buf_ord <- buf_ord + 1);
      add (hex buf_ord b) "["; dec b (Bytes.length buf); add b "]"; b

    (* Each line is [Obs.Span.call_line] of the record the flight recorder
       gets when obs is on (and only then built), so [agentrun --agent
       trace] text and [--trace-out] JSONL render one stream. *)
    method private record c_name c_args c_result c_rewrote =
      Obs.record_call
        { Obs.Span.c_span = Obs.current (); c_pid = Obs.current_pid ();
          c_t_us = Obs.now_us (); c_name; c_args; c_result; c_rewrote }

    method private pre b =
      let n = String.length name + 1 in
      if Obs.enabled () then self#record name (Buffer.sub b n (Buffer.length b - n)) None false;
      add b ") ...\n";
      self#emit (Buffer.contents b)

    method private post name ret =
      Buffer.clear line; add line "... "; add line name; add line " -> ";
      (match ret with
       | Ok { Value.r0; r1 = 0 } -> dec line r0
       | r -> add line (Value.res_to_string r));
      (* post events flag traps some layer below us mutated *)
      let rewrote = Obs.span_rewrites (Obs.current ()) > 0 in
      if rewrote then add line " [rewritten]";
      if Obs.enabled () then self#record name "" (Some (Value.res_to_string ret)) rewrote;
      add line "\n";
      self#emit (Buffer.contents line);
      ret

    method! init_child = self#emit "--- fork: child running under trace ---\n"

    method! signal_handler s =
      self#emit (Printf.sprintf "--- signal %s delivered ---\n" (Signal.name s));
      super#signal_handler s

    (* --- per-call derived methods (the paper's 12-statements-per-call
       body, one for each 4.3BSD call) ------------------------------- *)

    method! sys_exit code =
      self#pre (self#call "exit" |> int code);
      (* does not return; no post line, matching _exit semantics *)
      super#sys_exit code

    method! sys_fork body =
      self#pre (self#call "fork");
      self#post "fork" (super#sys_fork body)

    method! sys_read fd buf cnt =
      self#pre (self#call "read" |> int fd |> self#bytes buf |> int cnt);
      self#post "read" (super#sys_read fd buf cnt)

    method! sys_write fd data =
      self#pre (self#call "write" |> int fd |> count "<" (String.length data) " bytes>");
      self#post "write" (super#sys_write fd data)

    method! sys_open path flags mode =
      self#pre (self#call "open" |> str path |> oflags flags |> octal mode);
      self#post "open" (super#sys_open path flags mode)

    method! sys_close fd =
      self#pre (self#call "close" |> int fd);
      self#post "close" (super#sys_close fd)

    method! sys_wait4 pid options =
      self#pre (self#call "wait4" |> int pid |> int options);
      self#post "wait4" (super#sys_wait4 pid options)

    method! sys_creat path mode =
      self#pre (self#call "creat" |> str path |> octal mode);
      self#post "creat" (super#sys_creat path mode)

    method! sys_link existing path =
      self#pre (self#call "link" |> str existing |> str path);
      self#post "link" (super#sys_link existing path)

    method! sys_unlink path =
      self#pre (self#call "unlink" |> str path);
      self#post "unlink" (super#sys_unlink path)

    method! sys_execve path argv envp =
      self#pre
        (self#call "execve" |> str path |> strs argv |> count "[" (Array.length envp) " vars]");
      (* on success control transfers to the new image; only failures
         produce a return line *)
      self#post "execve" (super#sys_execve path argv envp)

    method! sys_chdir path =
      self#pre (self#call "chdir" |> str path);
      self#post "chdir" (super#sys_chdir path)

    method! sys_fchdir fd =
      self#pre (self#call "fchdir" |> int fd);
      self#post "fchdir" (super#sys_fchdir fd)

    method! sys_mknod path mode dev =
      self#pre (self#call "mknod" |> str path |> octal mode |> int dev);
      self#post "mknod" (super#sys_mknod path mode dev)

    method! sys_chmod path mode =
      self#pre (self#call "chmod" |> str path |> octal mode);
      self#post "chmod" (super#sys_chmod path mode)

    method! sys_chown path uid gid =
      self#pre (self#call "chown" |> str path |> int uid |> int gid);
      self#post "chown" (super#sys_chown path uid gid)

    method! sys_sbrk d =
      self#pre (self#call "sbrk" |> int d);
      self#post "sbrk" (super#sys_sbrk d)

    method! sys_lseek fd off whence =
      self#pre (self#call "lseek" |> int fd |> int off |> int whence);
      self#post "lseek" (super#sys_lseek fd off whence)

    method! sys_getpid () =
      self#pre (self#call "getpid");
      self#post "getpid" (super#sys_getpid ())

    method! sys_setuid u =
      self#pre (self#call "setuid" |> int u);
      self#post "setuid" (super#sys_setuid u)

    method! sys_getuid () =
      self#pre (self#call "getuid");
      self#post "getuid" (super#sys_getuid ())

    method! sys_geteuid () =
      self#pre (self#call "geteuid");
      self#post "geteuid" (super#sys_geteuid ())

    method! sys_alarm sec =
      self#pre (self#call "alarm" |> int sec);
      self#post "alarm" (super#sys_alarm sec)

    method! sys_access path bits =
      self#pre (self#call "access" |> str path |> int bits);
      self#post "access" (super#sys_access path bits)

    method! sys_sync () =
      self#pre (self#call "sync");
      self#post "sync" (super#sys_sync ())

    method! sys_kill pid s =
      self#pre (self#call "kill" |> int pid |> lit (Signal.name s));
      self#post "kill" (super#sys_kill pid s)

    method! sys_stat path r =
      self#pre (self#call "stat" |> str path |> lit "<statbuf>");
      self#post "stat" (super#sys_stat path r)

    method! sys_getppid () =
      self#pre (self#call "getppid");
      self#post "getppid" (super#sys_getppid ())

    method! sys_lstat path r =
      self#pre (self#call "lstat" |> str path |> lit "<statbuf>");
      self#post "lstat" (super#sys_lstat path r)

    method! sys_dup fd =
      self#pre (self#call "dup" |> int fd);
      self#post "dup" (super#sys_dup fd)

    method! sys_pipe () =
      self#pre (self#call "pipe");
      self#post "pipe" (super#sys_pipe ())

    method! sys_socketpair () =
      self#pre (self#call "socketpair");
      self#post "socketpair" (super#sys_socketpair ())

    method! sys_getegid () =
      self#pre (self#call "getegid");
      self#post "getegid" (super#sys_getegid ())

    method! sys_sigaction s h o =
      self#pre (self#call "sigaction" |> lit (Signal.name s) |> lit (handler_str h));
      self#post "sigaction" (super#sys_sigaction s h o)

    method! sys_getgid () =
      self#pre (self#call "getgid");
      self#post "getgid" (super#sys_getgid ())

    method! sys_sigprocmask how m =
      self#pre (self#call "sigprocmask" |> int how |> hex m);
      self#post "sigprocmask" (super#sys_sigprocmask how m)

    method! sys_sigpending () =
      self#pre (self#call "sigpending");
      self#post "sigpending" (super#sys_sigpending ())

    method! sys_sigsuspend m =
      self#pre (self#call "sigsuspend" |> hex m);
      self#post "sigsuspend" (super#sys_sigsuspend m)

    method! sys_ioctl fd op buf =
      self#pre (self#call "ioctl" |> int fd |> hex op |> self#bytes buf);
      self#post "ioctl" (super#sys_ioctl fd op buf)

    method! sys_symlink target path =
      self#pre (self#call "symlink" |> str target |> str path);
      self#post "symlink" (super#sys_symlink target path)

    method! sys_readlink path buf =
      self#pre (self#call "readlink" |> str path |> self#bytes buf);
      self#post "readlink" (super#sys_readlink path buf)

    method! sys_umask m =
      self#pre (self#call "umask" |> octal m);
      self#post "umask" (super#sys_umask m)

    method! sys_fstat fd r =
      self#pre (self#call "fstat" |> int fd |> lit "<statbuf>");
      self#post "fstat" (super#sys_fstat fd r)

    method! sys_getpagesize () =
      self#pre (self#call "getpagesize");
      self#post "getpagesize" (super#sys_getpagesize ())

    method! sys_getpgrp () =
      self#pre (self#call "getpgrp");
      self#post "getpgrp" (super#sys_getpgrp ())

    method! sys_setpgrp pid pgrp =
      self#pre (self#call "setpgrp" |> int pid |> int pgrp);
      self#post "setpgrp" (super#sys_setpgrp pid pgrp)

    method! sys_getdtablesize () =
      self#pre (self#call "getdtablesize");
      self#post "getdtablesize" (super#sys_getdtablesize ())

    method! sys_dup2 o n =
      self#pre (self#call "dup2" |> int o |> int n);
      self#post "dup2" (super#sys_dup2 o n)

    method! sys_fcntl fd cmd arg =
      self#pre (self#call "fcntl" |> int fd |> int cmd |> int arg);
      self#post "fcntl" (super#sys_fcntl fd cmd arg)

    method! sys_fsync fd =
      self#pre (self#call "fsync" |> int fd);
      self#post "fsync" (super#sys_fsync fd)

    method! sys_select rmask wmask tmo =
      self#pre (self#call "select" |> hex rmask |> hex wmask |> int tmo);
      self#post "select" (super#sys_select rmask wmask tmo)

    method! sys_gettimeofday r =
      self#pre (self#call "gettimeofday" |> lit "<timeval>");
      self#post "gettimeofday" (super#sys_gettimeofday r)

    method! sys_getrusage r =
      self#pre (self#call "getrusage" |> lit "<rusage>");
      self#post "getrusage" (super#sys_getrusage r)

    method! sys_settimeofday sec usec =
      self#pre (self#call "settimeofday" |> int sec |> int usec);
      self#post "settimeofday" (super#sys_settimeofday sec usec)

    method! sys_rename src dst =
      self#pre (self#call "rename" |> str src |> str dst);
      self#post "rename" (super#sys_rename src dst)

    method! sys_truncate path len =
      self#pre (self#call "truncate" |> str path |> int len);
      self#post "truncate" (super#sys_truncate path len)

    method! sys_ftruncate fd len =
      self#pre (self#call "ftruncate" |> int fd |> int len);
      self#post "ftruncate" (super#sys_ftruncate fd len)

    method! sys_mkdir path mode =
      self#pre (self#call "mkdir" |> str path |> octal mode);
      self#post "mkdir" (super#sys_mkdir path mode)

    method! sys_rmdir path =
      self#pre (self#call "rmdir" |> str path);
      self#post "rmdir" (super#sys_rmdir path)

    method! sys_utimes path atime mtime =
      self#pre (self#call "utimes" |> str path |> int atime |> int mtime);
      self#post "utimes" (super#sys_utimes path atime mtime)

    method! sys_getdirentries fd buf =
      self#pre (self#call "getdirentries" |> int fd |> self#bytes buf);
      self#post "getdirentries" (super#sys_getdirentries fd buf)

    method! sys_sleepus us =
      self#pre (self#call "sleepus" |> int us);
      self#post "sleepus" (super#sys_sleepus us)

    method! sys_getcwd buf =
      self#pre (self#call "getcwd" |> self#bytes buf);
      self#post "getcwd" (super#sys_getcwd buf)

    method! unknown_syscall env =
      self#pre (self#call "syscall" |> lit (Format.asprintf "%a" Envelope.pp env));
      self#post "syscall" (super#unknown_syscall env)
  end

let create ?(fd = 2) () =
  let a = new agent in
  a#set_output fd;
  a
