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
       gets, so [agentrun --agent trace] text and [--trace-out] JSONL
       render one stream.  The records are sampled with their trap's
       span (DESIGN.md §3.4): one is built, and its strings rendered,
       only when the span is sampled ([span > 0]), so the records of a
       1-in-N run are the 1-in-1 run's records of the sampled traps,
       and an unsampled trap pushes nothing into the ring. *)
    method private record span c_name c_args c_result c_rewrote =
      Obs.record_call
        { Obs.Span.c_span = span; c_pid = Obs.current_pid ();
          c_t_us = Obs.now_us (); c_name; c_args; c_result; c_rewrote }

    (* [pre] returns this process's rewrite count once its line is out,
       and [post] marks its line when the count has grown since: some
       layer below rewrote the call or its result.  [Obs.rewrites] is
       exact at any sampling rate and with obs off, so the text does not
       depend on either. *)
    method private pre b =
      let span = Obs.current () in
      if span > 0 then begin
        let n = String.length name + 1 in
        self#record span name (Buffer.sub b n (Buffer.length b - n)) None false
      end;
      add b ") ...\n";
      self#emit (Buffer.contents b);
      Obs.rewrites ()

    method private post rw name ret =
      Buffer.clear line; add line "... "; add line name; add line " -> ";
      (match ret with
       | Ok { Value.r0; r1 = 0 } -> dec line r0
       | r -> add line (Value.res_to_string r));
      let span = Obs.current () in
      let rewrote = Obs.rewrites () > rw in
      if rewrote then add line " [rewritten]";
      if span > 0 then
        self#record span name "" (Some (Value.res_to_string ret)) rewrote;
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
      ignore (self#pre (self#call "exit" |> int code));
      (* does not return; no post line, matching _exit semantics *)
      super#sys_exit code

    method! sys_fork body =
      let rw = self#pre (self#call "fork") in
      self#post rw "fork" (super#sys_fork body)

    method! sys_read fd buf cnt =
      let rw = self#pre (self#call "read" |> int fd |> self#bytes buf |> int cnt) in
      self#post rw "read" (super#sys_read fd buf cnt)

    method! sys_write fd data =
      let rw =
        self#pre (self#call "write" |> int fd |> count "<" (String.length data) " bytes>")
      in
      self#post rw "write" (super#sys_write fd data)

    method! sys_open path flags mode =
      let rw = self#pre (self#call "open" |> str path |> oflags flags |> octal mode) in
      self#post rw "open" (super#sys_open path flags mode)

    method! sys_close fd =
      let rw = self#pre (self#call "close" |> int fd) in
      self#post rw "close" (super#sys_close fd)

    method! sys_wait4 pid options =
      let rw = self#pre (self#call "wait4" |> int pid |> int options) in
      self#post rw "wait4" (super#sys_wait4 pid options)

    method! sys_creat path mode =
      let rw = self#pre (self#call "creat" |> str path |> octal mode) in
      self#post rw "creat" (super#sys_creat path mode)

    method! sys_link existing path =
      let rw = self#pre (self#call "link" |> str existing |> str path) in
      self#post rw "link" (super#sys_link existing path)

    method! sys_unlink path =
      let rw = self#pre (self#call "unlink" |> str path) in
      self#post rw "unlink" (super#sys_unlink path)

    method! sys_execve path argv envp =
      let rw =
        self#pre
          (self#call "execve" |> str path |> strs argv |> count "[" (Array.length envp) " vars]")
      in
      (* on success control transfers to the new image; only failures
         produce a return line *)
      self#post rw "execve" (super#sys_execve path argv envp)

    method! sys_chdir path =
      let rw = self#pre (self#call "chdir" |> str path) in
      self#post rw "chdir" (super#sys_chdir path)

    method! sys_fchdir fd =
      let rw = self#pre (self#call "fchdir" |> int fd) in
      self#post rw "fchdir" (super#sys_fchdir fd)

    method! sys_mknod path mode dev =
      let rw = self#pre (self#call "mknod" |> str path |> octal mode |> int dev) in
      self#post rw "mknod" (super#sys_mknod path mode dev)

    method! sys_chmod path mode =
      let rw = self#pre (self#call "chmod" |> str path |> octal mode) in
      self#post rw "chmod" (super#sys_chmod path mode)

    method! sys_chown path uid gid =
      let rw = self#pre (self#call "chown" |> str path |> int uid |> int gid) in
      self#post rw "chown" (super#sys_chown path uid gid)

    method! sys_sbrk d =
      let rw = self#pre (self#call "sbrk" |> int d) in
      self#post rw "sbrk" (super#sys_sbrk d)

    method! sys_lseek fd off whence =
      let rw = self#pre (self#call "lseek" |> int fd |> int off |> int whence) in
      self#post rw "lseek" (super#sys_lseek fd off whence)

    method! sys_getpid () =
      let rw = self#pre (self#call "getpid") in
      self#post rw "getpid" (super#sys_getpid ())

    method! sys_setuid u =
      let rw = self#pre (self#call "setuid" |> int u) in
      self#post rw "setuid" (super#sys_setuid u)

    method! sys_getuid () =
      let rw = self#pre (self#call "getuid") in
      self#post rw "getuid" (super#sys_getuid ())

    method! sys_geteuid () =
      let rw = self#pre (self#call "geteuid") in
      self#post rw "geteuid" (super#sys_geteuid ())

    method! sys_alarm sec =
      let rw = self#pre (self#call "alarm" |> int sec) in
      self#post rw "alarm" (super#sys_alarm sec)

    method! sys_access path bits =
      let rw = self#pre (self#call "access" |> str path |> int bits) in
      self#post rw "access" (super#sys_access path bits)

    method! sys_sync () =
      let rw = self#pre (self#call "sync") in
      self#post rw "sync" (super#sys_sync ())

    method! sys_kill pid s =
      let rw = self#pre (self#call "kill" |> int pid |> lit (Signal.name s)) in
      self#post rw "kill" (super#sys_kill pid s)

    method! sys_stat path r =
      let rw = self#pre (self#call "stat" |> str path |> lit "<statbuf>") in
      self#post rw "stat" (super#sys_stat path r)

    method! sys_getppid () =
      let rw = self#pre (self#call "getppid") in
      self#post rw "getppid" (super#sys_getppid ())

    method! sys_lstat path r =
      let rw = self#pre (self#call "lstat" |> str path |> lit "<statbuf>") in
      self#post rw "lstat" (super#sys_lstat path r)

    method! sys_dup fd =
      let rw = self#pre (self#call "dup" |> int fd) in
      self#post rw "dup" (super#sys_dup fd)

    method! sys_pipe () =
      let rw = self#pre (self#call "pipe") in
      self#post rw "pipe" (super#sys_pipe ())

    method! sys_socketpair () =
      let rw = self#pre (self#call "socketpair") in
      self#post rw "socketpair" (super#sys_socketpair ())

    method! sys_getegid () =
      let rw = self#pre (self#call "getegid") in
      self#post rw "getegid" (super#sys_getegid ())

    method! sys_sigaction s h o =
      let rw =
        self#pre (self#call "sigaction" |> lit (Signal.name s) |> lit (handler_str h))
      in
      self#post rw "sigaction" (super#sys_sigaction s h o)

    method! sys_getgid () =
      let rw = self#pre (self#call "getgid") in
      self#post rw "getgid" (super#sys_getgid ())

    method! sys_sigprocmask how m =
      let rw = self#pre (self#call "sigprocmask" |> int how |> hex m) in
      self#post rw "sigprocmask" (super#sys_sigprocmask how m)

    method! sys_sigpending () =
      let rw = self#pre (self#call "sigpending") in
      self#post rw "sigpending" (super#sys_sigpending ())

    method! sys_sigsuspend m =
      let rw = self#pre (self#call "sigsuspend" |> hex m) in
      self#post rw "sigsuspend" (super#sys_sigsuspend m)

    method! sys_ioctl fd op buf =
      let rw = self#pre (self#call "ioctl" |> int fd |> hex op |> self#bytes buf) in
      self#post rw "ioctl" (super#sys_ioctl fd op buf)

    method! sys_symlink target path =
      let rw = self#pre (self#call "symlink" |> str target |> str path) in
      self#post rw "symlink" (super#sys_symlink target path)

    method! sys_readlink path buf =
      let rw = self#pre (self#call "readlink" |> str path |> self#bytes buf) in
      self#post rw "readlink" (super#sys_readlink path buf)

    method! sys_umask m =
      let rw = self#pre (self#call "umask" |> octal m) in
      self#post rw "umask" (super#sys_umask m)

    method! sys_fstat fd r =
      let rw = self#pre (self#call "fstat" |> int fd |> lit "<statbuf>") in
      self#post rw "fstat" (super#sys_fstat fd r)

    method! sys_getpagesize () =
      let rw = self#pre (self#call "getpagesize") in
      self#post rw "getpagesize" (super#sys_getpagesize ())

    method! sys_getpgrp () =
      let rw = self#pre (self#call "getpgrp") in
      self#post rw "getpgrp" (super#sys_getpgrp ())

    method! sys_setpgrp pid pgrp =
      let rw = self#pre (self#call "setpgrp" |> int pid |> int pgrp) in
      self#post rw "setpgrp" (super#sys_setpgrp pid pgrp)

    method! sys_getdtablesize () =
      let rw = self#pre (self#call "getdtablesize") in
      self#post rw "getdtablesize" (super#sys_getdtablesize ())

    method! sys_dup2 o n =
      let rw = self#pre (self#call "dup2" |> int o |> int n) in
      self#post rw "dup2" (super#sys_dup2 o n)

    method! sys_fcntl fd cmd arg =
      let rw = self#pre (self#call "fcntl" |> int fd |> int cmd |> int arg) in
      self#post rw "fcntl" (super#sys_fcntl fd cmd arg)

    method! sys_fsync fd =
      let rw = self#pre (self#call "fsync" |> int fd) in
      self#post rw "fsync" (super#sys_fsync fd)

    method! sys_select rmask wmask tmo =
      let rw = self#pre (self#call "select" |> hex rmask |> hex wmask |> int tmo) in
      self#post rw "select" (super#sys_select rmask wmask tmo)

    method! sys_gettimeofday r =
      let rw = self#pre (self#call "gettimeofday" |> lit "<timeval>") in
      self#post rw "gettimeofday" (super#sys_gettimeofday r)

    method! sys_getrusage r =
      let rw = self#pre (self#call "getrusage" |> lit "<rusage>") in
      self#post rw "getrusage" (super#sys_getrusage r)

    method! sys_settimeofday sec usec =
      let rw = self#pre (self#call "settimeofday" |> int sec |> int usec) in
      self#post rw "settimeofday" (super#sys_settimeofday sec usec)

    method! sys_rename src dst =
      let rw = self#pre (self#call "rename" |> str src |> str dst) in
      self#post rw "rename" (super#sys_rename src dst)

    method! sys_truncate path len =
      let rw = self#pre (self#call "truncate" |> str path |> int len) in
      self#post rw "truncate" (super#sys_truncate path len)

    method! sys_ftruncate fd len =
      let rw = self#pre (self#call "ftruncate" |> int fd |> int len) in
      self#post rw "ftruncate" (super#sys_ftruncate fd len)

    method! sys_mkdir path mode =
      let rw = self#pre (self#call "mkdir" |> str path |> octal mode) in
      self#post rw "mkdir" (super#sys_mkdir path mode)

    method! sys_rmdir path =
      let rw = self#pre (self#call "rmdir" |> str path) in
      self#post rw "rmdir" (super#sys_rmdir path)

    method! sys_utimes path atime mtime =
      let rw = self#pre (self#call "utimes" |> str path |> int atime |> int mtime) in
      self#post rw "utimes" (super#sys_utimes path atime mtime)

    method! sys_getdirentries fd buf =
      let rw = self#pre (self#call "getdirentries" |> int fd |> self#bytes buf) in
      self#post rw "getdirentries" (super#sys_getdirentries fd buf)

    method! sys_sleepus us =
      let rw = self#pre (self#call "sleepus" |> int us) in
      self#post rw "sleepus" (super#sys_sleepus us)

    method! sys_getcwd buf =
      let rw = self#pre (self#call "getcwd" |> self#bytes buf) in
      self#post rw "getcwd" (super#sys_getcwd buf)

    method! unknown_syscall env =
      let rw =
        self#pre (self#call "syscall" |> lit (Format.asprintf "%a" Envelope.pp env))
      in
      self#post rw "syscall" (super#unknown_syscall env)
  end

let create ?(fd = 2) () =
  let a = new agent in
  a#set_output fd;
  a
