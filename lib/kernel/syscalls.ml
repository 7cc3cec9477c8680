open Abi
open Kstate

let ( let* ) = Result.bind

let done_ret ?r1 v = Done (Value.ret ?r1 v)
let fail e = Done (Error e)

let of_unit = function
  | Ok () -> done_ret 0
  | Error e -> fail e

(* --- descriptor helpers ------------------------------------------------- *)

let fd_entry (p : Proc.t) fd =
  match Proc.fd p fd with
  | Some e -> Ok e
  | None -> Error Errno.EBADF

let fd_file p fd =
  let* e = fd_entry p fd in
  Ok e.File.file

let driver t (inode : Vfs.Inode.t) =
  match inode.kind with
  | Vfs.Inode.Chardev rdev ->
    (match Dev.lookup t.devs rdev with
     | Some ops -> Ok ops
     | None -> Error Errno.ENXIO)
  | _ -> Error Errno.ENODEV

(* --- read --------------------------------------------------------------- *)

let nonblocking (f : File.t) = f.flags land Flags.Open.o_nonblock <> 0

let pipe_read t (p : Proc.t) (f : File.t) buf cnt ~(buffer : Vfs.Pipebuf.t)
    ~chan ~wake ~cond =
  (* a zero-length read is complete by definition — without this early
     return it would fall through the n = 0 branches below and block a
     blocking reader forever while writers are still alive *)
  if cnt = 0 then done_ret 0
  else
    let n = Vfs.Pipebuf.read buffer buf ~off:0 ~len:cnt in
    if n > 0 then begin
      (* causal hook (DESIGN.md §3.9): advance the channel's consume
         watermark — links this read's span to the writes that produced
         these bytes.  Pure bookkeeping, charges no virtual time. *)
      Obs.causal_pipe_read ~chan ~pid:p.pid ~bytes:n;
      wake_key t wake;
      done_ret n
    end
    (* n = 0 with cnt > 0 means the buffer is drained, so this is EOF
       exactly when no writer remains: buffered bytes always win over
       the EOF check, a reader never loses data to a racing close *)
    else if Vfs.Pipebuf.writers buffer = 0 then done_ret 0 (* EOF *)
    else if nonblocking f then fail Errno.EWOULDBLOCK
    else Block cond

(* A connection endpoint reads its receive pipe.  After [shutdown]
   of the read half our reader reference is gone, so anything still
   buffered is unreachable: the read side is simply at EOF.  The
   causal channel is per-connection-direction ("sock", pipe id) so
   request and reply bytes form distinct lanes in the event graph. *)
let conn_read t (p : Proc.t) (f : File.t) (c : File.conn) buf cnt =
  if c.File.shut_rd then done_ret 0
  else
    pipe_read t p f buf cnt ~buffer:c.File.rx.buf
      ~chan:("sock", c.File.rx.pipe_id)
      ~wake:(K_pipe_w c.File.rx.pipe_id)
      ~cond:(Proc.On_pipe_read c.File.rx.pipe_id)

let do_read t (p : Proc.t) fd buf cnt =
  if cnt < 0 then fail Errno.EINVAL
  else
    match fd_file p fd with
    | Error e -> fail e
    | Ok f ->
      if not (File.is_readable f) then fail Errno.EBADF
      else begin
        let cnt = min cnt (Bytes.length buf) in
        match f.kind with
        | File.Vnode inode ->
          (match inode.kind with
           | Vfs.Inode.Reg data ->
             let n = Vfs.Filedata.read data ~pos:f.offset buf ~off:0 ~len:cnt in
             f.offset <- f.offset + n;
             Vfs.Fs.touch_atime t.fs inode;
             done_ret n
           | Vfs.Inode.Dir _ -> fail Errno.EISDIR
           | Vfs.Inode.Chardev _ ->
             (match driver t inode with
              | Error e -> fail e
              | Ok ops -> done_ret (ops.Dev.read buf ~off:0 ~len:cnt))
           | Vfs.Inode.Symlink _ -> fail Errno.EINVAL
           | Vfs.Inode.Fifo _ -> fail Errno.EBADF)
        | File.Pipe_read pipe ->
          pipe_read t p f buf cnt ~buffer:pipe.buf
            ~chan:("pipe", pipe.pipe_id)
            ~wake:(K_pipe_w pipe.pipe_id)
            ~cond:(Proc.On_pipe_read pipe.pipe_id)
        | File.Fifo_read (inode, buffer) ->
          pipe_read t p f buf cnt ~buffer
            ~chan:("fifo", inode.ino)
            ~wake:(K_fifo_w inode.ino)
            ~cond:(Proc.On_fifo_read inode.ino)
        | File.Sock s ->
          (match s.File.sock with
           | File.S_conn c -> conn_read t p f c buf cnt
           | File.S_fresh | File.S_bound _ | File.S_listening _ ->
             fail Errno.ENOTCONN)
        | File.Pipe_write _ | File.Fifo_write _ -> fail Errno.EBADF
      end

(* --- write -------------------------------------------------------------- *)

let pipe_write t (p : Proc.t) (f : File.t) data ~(buffer : Vfs.Pipebuf.t)
    ~chan ~wake ~cond =
  if Vfs.Pipebuf.readers buffer = 0 then begin
    post_signal t p Signal.sigpipe;
    fail Errno.EPIPE
  end
  else begin
    let n = Vfs.Pipebuf.write buffer data ~pos:0 in
    if n > 0 then begin
      (* causal hook: stamp the accepted byte interval with this
         write's span so the consuming read can link back to it *)
      Obs.causal_pipe_write ~chan ~pid:p.pid ~bytes:n;
      wake_key t wake;
      done_ret n
    end
    else if nonblocking f then fail Errno.EWOULDBLOCK
    else Block cond
  end

(* A connection endpoint writes its send pipe.  A locally shut write
   half is a broken pipe regardless of the peer's state — the reference
   that would let these bytes be delivered is already gone. *)
let conn_write t (p : Proc.t) (f : File.t) (c : File.conn) data =
  if c.File.shut_wr then begin
    post_signal t p Signal.sigpipe;
    fail Errno.EPIPE
  end
  else
    pipe_write t p f data ~buffer:c.File.tx.buf
      ~chan:("sock", c.File.tx.pipe_id)
      ~wake:(K_pipe_r c.File.tx.pipe_id)
      ~cond:(Proc.On_pipe_write c.File.tx.pipe_id)

let do_write t (p : Proc.t) fd data =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    if not (File.is_writable f) then fail Errno.EBADF
    else begin
      match f.kind with
      | File.Vnode inode ->
        (match inode.kind with
         | Vfs.Inode.Reg filedata ->
           let pos =
             if f.flags land Flags.Open.o_append <> 0
             then Vfs.Filedata.size filedata
             else f.offset
           in
           let n = Vfs.Filedata.write filedata ~pos data in
           f.offset <- pos + n;
           Vfs.Fs.touch_mtime t.fs inode;
           done_ret n
         | Vfs.Inode.Chardev _ ->
           (match driver t inode with
            | Error e -> fail e
            | Ok ops -> done_ret (ops.Dev.write data))
         | Vfs.Inode.Dir _ -> fail Errno.EISDIR
         | Vfs.Inode.Symlink _ | Vfs.Inode.Fifo _ -> fail Errno.EBADF)
      | File.Pipe_write pipe ->
        pipe_write t p f data ~buffer:pipe.buf
          ~chan:("pipe", pipe.pipe_id)
          ~wake:(K_pipe_r pipe.pipe_id)
          ~cond:(Proc.On_pipe_write pipe.pipe_id)
      | File.Fifo_write (inode, buffer) ->
        pipe_write t p f data ~buffer
          ~chan:("fifo", inode.ino)
          ~wake:(K_fifo_r inode.ino)
          ~cond:(Proc.On_fifo_write inode.ino)
      | File.Sock s ->
        (match s.File.sock with
         | File.S_conn c -> conn_write t p f c data
         | File.S_fresh | File.S_bound _ | File.S_listening _ ->
           fail Errno.ENOTCONN)
      | File.Pipe_read _ | File.Fifo_read _ -> fail Errno.EBADF
    end

(* --- open / close ------------------------------------------------------- *)

let do_open t (p : Proc.t) path flags mode =
  let perm = mode land lnot p.umask land 0o7777 in
  match
    Vfs.Fs.open_lookup t.fs (cred p) ~cwd:p.cwd path ~flags ~perm
  with
  | Error e -> fail e
  | Ok (inode, _created) ->
    let kind_result =
      match inode.Vfs.Inode.kind with
      | Vfs.Inode.Fifo buffer ->
        (match Flags.Open.accmode flags with
         | 0 -> Ok (File.Fifo_read (inode, buffer))
         | 1 -> Ok (File.Fifo_write (inode, buffer))
         | _ -> Error Errno.EINVAL)  (* no O_RDWR fifos here *)
      | Vfs.Inode.Reg _ | Vfs.Inode.Dir _ | Vfs.Inode.Chardev _ ->
        Ok (File.Vnode inode)
      | Vfs.Inode.Symlink _ -> Error Errno.ELOOP
    in
    (match kind_result with
     | Error e -> fail e
     | Ok kind ->
       let file = new_file t kind ~flags in
       (match install_fd t p file with
        | Ok fd -> done_ret fd
        | Error e ->
          release_file t file;
          fail e))

(* --- seek, dup, fcntl ---------------------------------------------------- *)

let do_lseek (p : Proc.t) fd off whence =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    match f.kind with
    | File.Pipe_read _ | File.Pipe_write _ | File.Sock _
    | File.Fifo_read _ | File.Fifo_write _ -> fail Errno.ESPIPE
    | File.Vnode inode ->
      let size = Vfs.Inode.size inode in
      let base =
        if whence = Flags.Seek.set then Some 0
        else if whence = Flags.Seek.cur then Some f.offset
        else if whence = Flags.Seek.end_ then Some size
        else None
      in
      match base with
      | None -> fail Errno.EINVAL
      | Some b ->
        let pos = b + off in
        if pos < 0 then fail Errno.EINVAL
        else begin
          f.offset <- pos;
          done_ret pos
        end

let do_dup t (p : Proc.t) fd ~from =
  match fd_entry p fd with
  | Error e -> fail e
  | Ok e ->
    retain_file e.File.file;
    (match install_fd t p ~from e.File.file with
     | Ok nfd -> done_ret nfd
     | Error err ->
       release_file t e.File.file;
       fail err)

let do_dup2 t (p : Proc.t) ofd nfd =
  match fd_entry p ofd with
  | Error e -> fail e
  | Ok e ->
    if nfd < 0 || nfd >= Array.length p.fds then fail Errno.EBADF
    else if ofd = nfd then done_ret nfd
    else begin
      (match Proc.fd p nfd with
       | Some old ->
         p.fds.(nfd) <- None;
         release_file t old.File.file
       | None -> ());
      retain_file e.File.file;
      p.fds.(nfd) <- Some { File.file = e.File.file; cloexec = false };
      done_ret nfd
    end

let do_fcntl t (p : Proc.t) fd cmd arg =
  match fd_entry p fd with
  | Error e -> fail e
  | Ok e ->
    if cmd = Flags.Fcntl.f_dupfd then do_dup t p fd ~from:arg
    else if cmd = Flags.Fcntl.f_getfd then
      done_ret (if e.File.cloexec then Flags.Fcntl.fd_cloexec else 0)
    else if cmd = Flags.Fcntl.f_setfd then begin
      e.File.cloexec <- arg land Flags.Fcntl.fd_cloexec <> 0;
      done_ret 0
    end
    else if cmd = Flags.Fcntl.f_getfl then done_ret e.File.file.flags
    else if cmd = Flags.Fcntl.f_setfl then begin
      let changeable = Flags.Open.o_append lor Flags.Open.o_nonblock in
      let f = e.File.file in
      f.flags <- f.flags land lnot changeable lor (arg land changeable);
      done_ret 0
    end
    else fail Errno.EINVAL

(* --- directories --------------------------------------------------------- *)

let do_getdirentries t (p : Proc.t) fd buf =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    match f.kind with
    | File.Vnode inode when Vfs.Inode.is_dir inode ->
      let entries = Vfs.Inode.dir_entries inode in
      let total = List.length entries in
      let index = min f.offset total in
      let remaining = List.filteri (fun i _ -> i >= index) entries in
      let dirents =
        List.map
          (fun (name, ino) -> { Dirent.d_ino = ino; d_name = name })
          remaining
      in
      let written, leftover = Dirent.encode_list buf dirents in
      if written = 0 && leftover <> [] then fail Errno.EINVAL
      else begin
        let consumed = List.length dirents - List.length leftover in
        f.offset <- index + consumed;
        Vfs.Fs.touch_atime t.fs inode;
        Done (Value.ret written ~r1:f.offset)
      end
    | File.Vnode _ | File.Pipe_read _ | File.Pipe_write _ | File.Sock _
    | File.Fifo_read _ | File.Fifo_write _ -> fail Errno.ENOTDIR

(* --- stat family ---------------------------------------------------------- *)

let fill_stat r st = r := Some st

let do_fstat t (p : Proc.t) fd r =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    match f.kind with
    | File.Vnode inode | File.Fifo_read (inode, _)
    | File.Fifo_write (inode, _) ->
      fill_stat r (Vfs.Fs.stat_inode t.fs inode);
      done_ret 0
    | File.Pipe_read pipe | File.Pipe_write pipe ->
      let st =
        { Stat.zero with
          st_dev = 0;
          st_ino = 0x10000 + pipe.pipe_id;
          st_mode = Flags.Mode.ififo lor 0o600;
          st_nlink = 1;
          st_size = Vfs.Pipebuf.available pipe.buf }
      in
      fill_stat r st;
      done_ret 0
    | File.Sock s ->
      let ino, size =
        match s.File.sock with
        | File.S_conn c ->
          0x20000 + c.File.rx.pipe_id, Vfs.Pipebuf.available c.File.rx.buf
        | File.S_fresh | File.S_bound _ | File.S_listening _ ->
          0x20000 + f.id, 0
      in
      let st =
        { Stat.zero with
          st_dev = 0;
          st_ino = ino;
          st_mode = Flags.Mode.ifsock lor 0o600;
          st_nlink = 1;
          st_size = size }
      in
      fill_stat r st;
      done_ret 0

(* --- ioctl ----------------------------------------------------------------- *)

let do_ioctl t (p : Proc.t) fd op buf =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    let set_int32 v =
      if Bytes.length buf >= 4 then begin
        Bytes.set_int32_le buf 0 (Int32.of_int v);
        done_ret 0
      end
      else fail Errno.EFAULT
    in
    if op = Flags.Ioctl.fionread then
      match f.kind with
      | File.Pipe_read pipe -> set_int32 (Vfs.Pipebuf.available pipe.buf)
      | File.Fifo_read (_, buffer) -> set_int32 (Vfs.Pipebuf.available buffer)
      | File.Sock s ->
        (match s.File.sock with
         | File.S_conn c -> set_int32 (Vfs.Pipebuf.available c.File.rx.buf)
         | File.S_listening (_, l) ->
           (* by analogy with FIONREAD on a listener: connections ready
              to accept *)
           set_int32 (Queue.length l.File.pending)
         | File.S_fresh | File.S_bound _ -> set_int32 0)
      | File.Vnode inode ->
        (match inode.kind with
         | Vfs.Inode.Reg data ->
           set_int32 (max 0 (Vfs.Filedata.size data - f.offset))
         | _ -> fail Errno.ENOTTY)
      | File.Pipe_write _ | File.Fifo_write _ -> fail Errno.EINVAL
    else begin
      let tty_ops =
        match f.kind with
        | File.Vnode inode ->
          (match driver t inode with
           | Ok ops when ops.Dev.isatty -> Some ops
           | Ok _ | Error _ -> None)
        | _ -> None
      in
      if op = Flags.Ioctl.tiocisatty then
        match tty_ops with
        | Some _ -> done_ret 1
        | None -> fail Errno.ENOTTY
      else if op = Flags.Ioctl.tiocgwinsz then
        match tty_ops with
        | Some _ ->
          if Bytes.length buf >= 4 then begin
            Bytes.set_uint16_le buf 0 24;
            Bytes.set_uint16_le buf 2 80;
            done_ret 0
          end
          else fail Errno.EFAULT
        | None -> fail Errno.ENOTTY
      else fail Errno.EINVAL
    end

(* --- process management ----------------------------------------------------- *)

let do_fork t (p : Proc.t) body =
  let pid = alloc_pid t in
  let child = Proc.fork_copy p ~pid ~name:p.name in
  (* shared open files gain one reference per inherited descriptor *)
  Array.iter
    (function
      | Some (e : File.fd_entry) -> retain_file e.file
      | None -> ())
    child.fds;
  add_proc t child;
  (* causal hook: the parent's fork trap is the open span here; the
     edge completes at the child's first trap *)
  Obs.causal_fork ~parent:p.pid ~child:pid;
  t.hooks.spawn child body;
  Done (Value.ret pid ~r1:1)

(* A wait4 choice reads the caller's [kids] index, which is in pid
   order: the lowest-pid matching zombie, else under WUNTRACED the
   lowest-pid matching stopped child — the choices a pid sort of the
   caller's children would give.  Only [pid > 0] skips the walk. *)
exception Wait_pick of Proc.t

let do_wait4 t (p : Proc.t) pid options =
  let wuntraced = options land Flags.Wait.wuntraced <> 0 in
  let pick =
    if pid > 0 then Proc.Kids.find_opt pid p.kids
    else begin
      let matches (c : Proc.t) =
        if pid = 0 then c.pgrp = p.pgrp
        else if pid = -1 then true
        else c.pgrp = -pid
      in
      let first = ref None and stopped = ref None in
      match
        Proc.Kids.iter
          (fun _ (c : Proc.t) ->
            if matches c then begin
              if Option.is_none !first then first := Some c;
              match c.state with
              | Proc.Zombie -> raise_notrace (Wait_pick c)
              | Proc.Stopped _ when wuntraced && Option.is_none !stopped ->
                stopped := Some c
              | _ -> ()
            end)
          p.kids
      with
      | () -> if Option.is_some !stopped then !stopped else !first
      | exception Wait_pick z -> Some z
    end
  in
  match pick with
  | None -> fail Errno.ECHILD
  | Some c ->
    (match c.state with
     | Proc.Zombie ->
       reap t c;
       Done (Value.ret c.pid ~r1:c.exit_status)
     | Proc.Stopped _ when wuntraced ->
       Done (Value.ret c.pid ~r1:(Flags.Wait.stop_status Signal.sigstop))
     | _ ->
       if options land Flags.Wait.wnohang <> 0 then done_ret 0
       else Block Proc.On_child)

let may_signal (p : Proc.t) (q : Proc.t) =
  p.cred.uid = 0 || p.cred.uid = q.cred.uid

let do_kill t (p : Proc.t) pid s =
  if s < 0 || s > Signal.max_signal then fail Errno.EINVAL
  else begin
    let targets =
      if pid > 0 then
        match proc t pid with
        | Some q when q.state <> Proc.Reaped && q.state <> Proc.Zombie ->
          [ q ]
        | Some _ | None -> []
      else begin
        let pgrp =
          if pid = 0 then p.pgrp
          else if pid < -1 then -pid
          else (* -1: everybody except init and self *) -1
        in
        Hashtbl.fold
          (fun _ (q : Proc.t) acc ->
            let live =
              q.state <> Proc.Reaped && q.state <> Proc.Zombie
            in
            let selected =
              if pgrp = -1 then q.pid <> 1 && q.pid <> p.pid
              else q.pgrp = pgrp
            in
            if live && selected then q :: acc else acc)
          t.procs []
      end
    in
    match targets with
    | [] -> fail Errno.ESRCH
    | _ ->
      if List.for_all (fun q -> not (may_signal p q)) targets then
        fail Errno.EPERM
      else begin
        if s <> 0 then
          List.iter
            (fun q ->
              if may_signal p q then begin
                (* causal hook: kill-originated signals carry a sender
                   span; delivery completes the edge *)
                Obs.causal_signal_send ~src_pid:p.pid ~dst_pid:q.pid ~signal:s;
                post_signal t q s
              end)
            targets;
        done_ret 0
      end
  end

let do_execve t (p : Proc.t) path argv envp =
  let c = cred p in
  match Vfs.Fs.resolve t.fs c ~cwd:p.cwd path with
  | Error e -> fail e
  | Ok inode ->
    if not (Vfs.Fs.access_ok t.fs c inode Flags.Access.x_ok) then
      fail Errno.EACCES
    else begin
      match inode.Vfs.Inode.kind with
      | Vfs.Inode.Dir _ -> fail Errno.EACCES
      | Vfs.Inode.Symlink _ | Vfs.Inode.Chardev _ | Vfs.Inode.Fifo _ ->
        fail Errno.EACCES
      | Vfs.Inode.Reg data ->
        match Registry.image_of_content (Vfs.Filedata.to_string data) with
        | None -> fail Errno.ENOEXEC
        | Some image_name ->
          match Registry.lookup t.registry image_name with
          | None -> fail Errno.ENOEXEC
          | Some image ->
            let body = image ~argv ~envp in
            (* destructive half: this exec will happen *)
            Array.iteri
              (fun i entry ->
                match entry with
                | Some (e : File.fd_entry) when e.cloexec ->
                  p.fds.(i) <- None;
                  release_file t e.file
                | Some _ | None -> ())
              p.fds;
            for s = 1 to Signal.max_signal do
              match p.sigs.handlers.(s) with
              | Value.H_fn _ -> p.sigs.handlers.(s) <- Value.H_default
              | Value.H_default | Value.H_ignore -> ()
            done;
            p.alarm_at <- None;
            cancel_timers_for t p.pid;
            let exec_name =
              if Array.length argv > 0 then argv.(0) else image_name
            in
            p.name <- exec_name;
            Exec
              { Events.exec_name;
                exec_body = body;
                keep_emulation = false }
    end

(* --- signals ------------------------------------------------------------------ *)

let do_sigaction (p : Proc.t) s newh oldref =
  if not (Signal.is_valid s) then fail Errno.EINVAL
  else if (s = Signal.sigkill || s = Signal.sigstop) && newh <> None then
    fail Errno.EINVAL
  else begin
    (match oldref with
     | Some r -> r := Some (Proc.handler p s)
     | None -> ());
    (match newh with
     | Some h -> Proc.set_handler p s h
     | None -> ());
    done_ret 0
  end

let do_sigprocmask (p : Proc.t) how m =
  let old = p.sigs.mask in
  let m = Signal.Mask.sanitize m in
  if how = Flags.Sighow.sig_block then
    p.sigs.mask <- Signal.Mask.union old m
  else if how = Flags.Sighow.sig_unblock then
    p.sigs.mask <- old land lnot m
  else if how = Flags.Sighow.sig_setmask then p.sigs.mask <- m
  else ();
  if how < 1 || how > 3 then fail Errno.EINVAL else done_ret old

(* --- clock ----------------------------------------------------------------------- *)

let do_alarm t (p : Proc.t) sec =
  let now = Sim.Clock.now_us t.clock in
  let remaining =
    match p.alarm_at with
    | Some at when at > now -> (at - now + 999_999) / 1_000_000
    | Some _ | None -> 0
  in
  t.timers <-
    List.filter
      (fun (_, ev) ->
        match ev with
        | T_alarm pid -> pid <> p.pid
        | T_wake _ | T_select _ -> true)
      t.timers;
  if sec > 0 then begin
    let at = now + (sec * 1_000_000) in
    p.alarm_at <- Some at;
    add_timer t ~at (T_alarm p.pid)
  end
  else p.alarm_at <- None;
  done_ret remaining

let do_sleepus t (p : Proc.t) us =
  if us <= 0 then done_ret 0
  else begin
    let at = Sim.Clock.now_us t.clock + us in
    add_timer t ~at (T_wake p.pid);
    Block (Proc.On_time at)
  end

(* --- select ---------------------------------------------------------------- *)

let rec mask_fds mask fd acc =
  if fd > 62 then List.rev acc
  else
    mask_fds mask (fd + 1)
      (if mask land (1 lsl fd) <> 0 then fd :: acc else acc)

let fds_of_mask mask = mask_fds mask 0 []

let do_select t (p : Proc.t) rmask wmask tmo =
  let exception Bad_fd in
  let ready_r = ref 0 in
  let ready_w = ref 0 in
  let rpipes = ref [] in
  let wpipes = ref [] in
  let rfifos = ref [] in
  let wfifos = ref [] in
  let rlisten = ref [] in
  let buf_read_ready (b : Vfs.Pipebuf.t) =
    Vfs.Pipebuf.available b > 0 || Vfs.Pipebuf.writers b = 0
  in
  let buf_write_ready (b : Vfs.Pipebuf.t) =
    Vfs.Pipebuf.room b > 0 || Vfs.Pipebuf.readers b = 0
  in
  match
    List.iter
      (fun fd ->
        match Proc.fd p fd with
        | None -> raise Bad_fd
        | Some e ->
          (match e.File.file.kind with
           | File.Vnode _ -> ready_r := !ready_r lor (1 lsl fd)
           | File.Pipe_read pipe ->
             if buf_read_ready pipe.buf then
               ready_r := !ready_r lor (1 lsl fd)
             else rpipes := pipe.pipe_id :: !rpipes
           | File.Fifo_read (inode, b) ->
             if buf_read_ready b then ready_r := !ready_r lor (1 lsl fd)
             else rfifos := inode.ino :: !rfifos
           | File.Sock s ->
             (match s.File.sock with
              | File.S_conn c ->
                if c.File.shut_rd || buf_read_ready c.File.rx.buf then
                  ready_r := !ready_r lor (1 lsl fd)
                else rpipes := c.File.rx.pipe_id :: !rpipes
              | File.S_listening (_, l) ->
                (* readable = accept would not block *)
                if not (Queue.is_empty l.File.pending) || l.File.lclosed
                then ready_r := !ready_r lor (1 lsl fd)
                else rlisten := l.File.lid :: !rlisten
              | File.S_fresh | File.S_bound _ ->
                (* never readable: permanently not ready *)
                ())
           | File.Pipe_write _ | File.Fifo_write _ ->
             (* never readable: permanently not ready *)
             ()))
      (fds_of_mask rmask);
    List.iter
      (fun fd ->
        match Proc.fd p fd with
        | None -> raise Bad_fd
        | Some e ->
          (match e.File.file.kind with
           | File.Vnode _ -> ready_w := !ready_w lor (1 lsl fd)
           | File.Pipe_write pipe ->
             if buf_write_ready pipe.buf then
               ready_w := !ready_w lor (1 lsl fd)
             else wpipes := pipe.pipe_id :: !wpipes
           | File.Fifo_write (inode, b) ->
             if buf_write_ready b then ready_w := !ready_w lor (1 lsl fd)
             else wfifos := inode.ino :: !wfifos
           | File.Sock s ->
             (match s.File.sock with
              | File.S_conn c ->
                if c.File.shut_wr || buf_write_ready c.File.tx.buf then
                  ready_w := !ready_w lor (1 lsl fd)
                else wpipes := c.File.tx.pipe_id :: !wpipes
              | File.S_fresh | File.S_bound _ | File.S_listening _ -> ())
           | File.Pipe_read _ | File.Fifo_read _ -> ()))
      (fds_of_mask wmask)
  with
  | exception Bad_fd -> fail Errno.EBADF
  | () ->
    if !ready_r <> 0 || !ready_w <> 0 then begin
      cancel_select_timers t p.pid;
      Done (Value.ret !ready_r ~r1:!ready_w)
    end
    else if tmo = 0 then begin
      (* a pure poll: never arms a timer, but a retried select that
         polled its way out must still drop the deadline its original
         blocking incarnation armed *)
      cancel_select_timers t p.pid;
      Done (Value.ret 0 ~r1:0)
    end
    else begin
      (* arm the timeout once; retries keep the original deadline *)
      if tmo > 0 && not (has_select_timer t p.pid) then
        add_timer t
          ~at:(Sim.Clock.now_us t.clock + tmo)
          (T_select p.pid);
      Block
        (Proc.On_select
           { rpipes = !rpipes; wpipes = !wpipes; rfifos = !rfifos;
             wfifos = !wfifos; rlisten = !rlisten })
    end

(* --- sockets ---------------------------------------------------------------- *)

(* Stream sockets over the same machinery as pipes (DESIGN.md §3.10): a
   connection is a crossed pair of pipe buffers, a listening socket a
   bounded queue of established-but-unaccepted connections.  Addresses
   are flat names in a shard-wide namespace ([Kstate.bindings]); they
   are not filesystem paths, deliberately, so pathname-guarding agents
   leave them alone. *)

let sock_of (f : File.t) =
  match f.kind with
  | File.Sock s -> Ok s
  | File.Vnode _ | File.Pipe_read _ | File.Pipe_write _
  | File.Fifo_read _ | File.Fifo_write _ -> Error Errno.ENOTSOCK

let do_socket t (p : Proc.t) =
  let file =
    new_file t (File.Sock { File.sock = File.S_fresh })
      ~flags:Flags.Open.o_rdwr
  in
  match install_fd t p file with
  | Ok fd -> done_ret fd
  | Error e ->
    release_file t file;
    fail e

let do_bind t (p : Proc.t) fd addr =
  match Result.bind (fd_file p fd) sock_of with
  | Error e -> fail e
  | Ok s ->
    match s.File.sock with
    | File.S_fresh ->
      if addr = "" then fail Errno.EINVAL
      else if Hashtbl.mem t.bindings addr then fail Errno.EADDRINUSE
      else begin
        Hashtbl.replace t.bindings addr s;
        s.File.sock <- File.S_bound addr;
        done_ret 0
      end
    | File.S_bound _ | File.S_listening _ -> fail Errno.EINVAL
    | File.S_conn _ -> fail Errno.EISCONN

let do_listen t (p : Proc.t) fd backlog =
  match Result.bind (fd_file p fd) sock_of with
  | Error e -> fail e
  | Ok s ->
    match s.File.sock with
    | File.S_bound addr ->
      let l = new_listener t ~backlog in
      s.File.sock <- File.S_listening (addr, l);
      done_ret 0
    | File.S_listening _ -> done_ret 0  (* re-listen keeps the queue *)
    | File.S_fresh -> fail Errno.EINVAL (* must bind first *)
    | File.S_conn _ -> fail Errno.EISCONN

let do_accept t (p : Proc.t) fd =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    match sock_of f with
    | Error e -> fail e
    | Ok s ->
      match s.File.sock with
      | File.S_listening (_, l) ->
        if not (Queue.is_empty l.File.pending) then begin
          let c = Queue.pop l.File.pending in
          let file =
            new_file t (File.Sock { File.sock = File.S_conn c })
              ~flags:Flags.Open.o_rdwr
          in
          match install_fd t p file with
          | Ok nfd ->
            (* the queue has room again: blocked connectors retry *)
            wake_key t (K_connq l.File.lid);
            done_ret nfd
          | Error e ->
            (* no descriptor for it — the adopted connection is reset *)
            release_file t file;
            wake_key t (K_connq l.File.lid);
            fail e
        end
        else if l.File.lclosed then fail Errno.EINVAL
        else if nonblocking f then fail Errno.EWOULDBLOCK
        else Block (Proc.On_accept l.File.lid)
      | File.S_fresh | File.S_bound _ -> fail Errno.EINVAL
      | File.S_conn _ -> fail Errno.EISCONN

let do_connect t (p : Proc.t) fd addr =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    match sock_of f with
    | Error e -> fail e
    | Ok s ->
      match s.File.sock with
      | File.S_conn _ -> fail Errno.EISCONN
      | File.S_listening _ -> fail Errno.EINVAL
      | File.S_fresh | File.S_bound _ ->
        match Hashtbl.find_opt t.bindings addr with
        | None -> fail Errno.ECONNREFUSED
        | Some srv ->
          match srv.File.sock with
          | File.S_listening (_, l) when not l.File.lclosed ->
            if Queue.length l.File.pending >= l.File.backlog then begin
              if nonblocking f then fail Errno.EWOULDBLOCK
              else
                (* woken when an accept drains the queue (or the
                   listener dies — the retry then lands in
                   ECONNREFUSED above) *)
                Block (Proc.On_connq l.File.lid)
            end
            else begin
              let cli, srv_end = new_conn_pair t in
              (* a client that bound a name gives it up on connecting:
                 the S_conn state no longer carries the address the
                 final close would need to release *)
              (match s.File.sock with
               | File.S_bound a -> unbind t a s
               | _ -> ());
              s.File.sock <- File.S_conn cli;
              Queue.push srv_end l.File.pending;
              wake_key t (K_accept l.File.lid);
              done_ret 0
            end
          | _ ->
            (* bound but never listened, or already torn down *)
            fail Errno.ECONNREFUSED

let do_send t (p : Proc.t) fd data =
  match fd_file p fd with
  | Error e -> fail e
  | Ok f ->
    match sock_of f with
    | Error e -> fail e
    | Ok s ->
      match s.File.sock with
      | File.S_conn c -> conn_write t p f c data
      | File.S_fresh | File.S_bound _ | File.S_listening _ ->
        fail Errno.ENOTCONN

let do_recv t (p : Proc.t) fd buf cnt =
  if cnt < 0 then fail Errno.EINVAL
  else
    match fd_file p fd with
    | Error e -> fail e
    | Ok f ->
      match sock_of f with
      | Error e -> fail e
      | Ok s ->
        match s.File.sock with
        | File.S_conn c -> conn_read t p f c buf (min cnt (Bytes.length buf))
        | File.S_fresh | File.S_bound _ | File.S_listening _ ->
          fail Errno.ENOTCONN

let do_shutdown t (p : Proc.t) fd how =
  match Result.bind (fd_file p fd) sock_of with
  | Error e -> fail e
  | Ok s ->
    match s.File.sock with
    | File.S_conn c ->
      if how = Flags.Shut.rd then begin
        shut_conn_rd t c;
        done_ret 0
      end
      else if how = Flags.Shut.wr then begin
        shut_conn_wr t c;
        done_ret 0
      end
      else if how = Flags.Shut.rdwr then begin
        release_conn t c;
        done_ret 0
      end
      else fail Errno.EINVAL
    | File.S_fresh | File.S_bound _ | File.S_listening _ ->
      fail Errno.ENOTCONN

(* --- the dispatcher -------------------------------------------------------------- *)

let dispatch t (p : Proc.t) (call : Call.t) : outcome =
  let c = cred p in
  let cwd = p.cwd in
  let fs = t.fs in
  match call with
  | Call.Exit code ->
    do_exit t p (Flags.Wait.exit_status code);
    Exited
  | Call.Fork body -> do_fork t p body
  | Call.Read (fd, buf, cnt) -> do_read t p fd buf cnt
  | Call.Write (fd, data) -> do_write t p fd data
  | Call.Open (path, flags, mode) -> do_open t p path flags mode
  | Call.Creat (path, mode) ->
    do_open t p path
      Flags.Open.(o_wronly lor o_creat lor o_trunc)
      mode
  | Call.Close fd -> of_unit (close_fd t p fd)
  | Call.Wait4 (pid, options) -> do_wait4 t p pid options
  | Call.Link (existing, path) ->
    of_unit (Vfs.Fs.link fs c ~cwd ~existing path)
  | Call.Unlink path -> of_unit (Vfs.Fs.unlink fs c ~cwd path)
  | Call.Execve (path, argv, envp) -> do_execve t p path argv envp
  | Call.Chdir path ->
    (match Vfs.Fs.chdir_lookup fs c ~cwd path with
     | Ok inode ->
       p.cwd <- inode.Vfs.Inode.ino;
       done_ret 0
     | Error e -> fail e)
  | Call.Fchdir fd ->
    (match fd_file p fd with
     | Error e -> fail e
     | Ok f ->
       (match f.kind with
        | File.Vnode inode when Vfs.Inode.is_dir inode ->
          p.cwd <- inode.ino;
          done_ret 0
        | _ -> fail Errno.ENOTDIR))
  | Call.Mknod (path, mode, rdev) ->
    if p.cred.uid <> 0 && Flags.Mode.is_chr mode then fail Errno.EPERM
    else begin
      let perm = mode land lnot p.umask land 0o7777 in
      if Flags.Mode.is_chr mode then
        (match Vfs.Fs.mkchardev fs c ~cwd path ~perm ~rdev with
         | Ok _ -> done_ret 0
         | Error e -> fail e)
      else if Flags.Mode.is_fifo mode then
        (match Vfs.Fs.mkfifo fs c ~cwd path ~perm with
         | Ok _ -> done_ret 0
         | Error e -> fail e)
      else fail Errno.EINVAL
    end
  | Call.Chmod (path, mode) ->
    of_unit (Vfs.Fs.chmod fs c ~cwd path ~perm:mode)
  | Call.Chown (path, uid, gid) ->
    of_unit (Vfs.Fs.chown fs c ~cwd path ~uid ~gid)
  | Call.Sbrk _ -> done_ret 0
  | Call.Lseek (fd, off, whence) -> do_lseek p fd off whence
  | Call.Getpid -> done_ret p.pid
  | Call.Getppid -> done_ret p.ppid
  | Call.Setuid u ->
    if p.cred.uid = 0 || u = p.cred.uid then begin
      p.cred <- { p.cred with uid = u };
      done_ret 0
    end
    else fail Errno.EPERM
  | Call.Getuid | Call.Geteuid -> done_ret p.cred.uid
  | Call.Getgid | Call.Getegid -> done_ret p.cred.gid
  | Call.Alarm sec -> do_alarm t p sec
  | Call.Access (path, bits) -> of_unit (Vfs.Fs.access fs c ~cwd path bits)
  | Call.Sync -> done_ret 0
  | Call.Kill (pid, s) -> do_kill t p pid s
  | Call.Stat (path, r) ->
    (match Vfs.Fs.stat_path fs c ~cwd ~follow:true path with
     | Ok st -> fill_stat r st; done_ret 0
     | Error e -> fail e)
  | Call.Lstat (path, r) ->
    (match Vfs.Fs.stat_path fs c ~cwd ~follow:false path with
     | Ok st -> fill_stat r st; done_ret 0
     | Error e -> fail e)
  | Call.Fstat (fd, r) -> do_fstat t p fd r
  | Call.Dup fd -> do_dup t p fd ~from:0
  | Call.Dup2 (ofd, nfd) -> do_dup2 t p ofd nfd
  | Call.Pipe ->
    let r, w = new_pipe t in
    (match install_fd t p r with
     | Error e ->
       release_file t r;
       release_file t w;
       fail e
     | Ok rfd ->
       (match install_fd t p w with
        | Error e ->
          ignore (close_fd t p rfd);
          release_file t w;
          fail e
        | Ok wfd -> Done (Value.ret rfd ~r1:wfd)))
  | Call.Sigaction (s, newh, oldref) -> do_sigaction p s newh oldref
  | Call.Sigprocmask (how, m) -> do_sigprocmask p how m
  | Call.Sigpending -> done_ret p.sigs.pending
  | Call.Sigsuspend m ->
    (* the saved mask is restored by the signal that wakes us *)
    let saved = p.sigs.mask in
    p.sigs.mask <- Signal.Mask.sanitize m;
    Block (Proc.On_signal saved)
  | Call.Ioctl (fd, op, buf) -> do_ioctl t p fd op buf
  | Call.Symlink (target, path) ->
    of_unit (Vfs.Fs.symlink fs c ~cwd ~target path)
  | Call.Readlink (path, buf) ->
    (match Vfs.Fs.readlink fs c ~cwd path with
     | Ok target ->
       let n = min (String.length target) (Bytes.length buf) in
       Bytes.blit_string target 0 buf 0 n;
       done_ret n
     | Error e -> fail e)
  | Call.Umask m ->
    let old = p.umask in
    p.umask <- m land 0o7777;
    done_ret old
  | Call.Getpagesize -> done_ret 4096
  | Call.Getpgrp -> done_ret p.pgrp
  | Call.Setpgrp (pid, pgrp) ->
    if pgrp <= 0 then fail Errno.EINVAL
    else begin
      let target = if pid = 0 then Some p else proc t pid in
      match target with
      | Some q when q.pid = p.pid || q.ppid = p.pid ->
        q.pgrp <- pgrp;
        done_ret 0
      | Some _ -> fail Errno.EPERM
      | None -> fail Errno.ESRCH
    end
  | Call.Getdtablesize -> done_ret Proc.fd_table_size
  | Call.Fcntl (fd, cmd, arg) -> do_fcntl t p fd cmd arg
  | Call.Select (rmask, wmask, tmo) -> do_select t p rmask wmask tmo
  | Call.Fsync fd ->
    (match fd_file p fd with Ok _ -> done_ret 0 | Error e -> fail e)
  | Call.Getrusage r ->
    r := Some (p.utime_us, p.stime_us);
    done_ret 0
  | Call.Socket -> do_socket t p
  | Call.Bind (fd, addr) -> do_bind t p fd addr
  | Call.Listen (fd, backlog) -> do_listen t p fd backlog
  | Call.Accept fd -> do_accept t p fd
  | Call.Connect (fd, addr) -> do_connect t p fd addr
  | Call.Send (fd, data) -> do_send t p fd data
  | Call.Recv (fd, buf, cnt) -> do_recv t p fd buf cnt
  | Call.Shutdown (fd, how) -> do_shutdown t p fd how
  | Call.Socketpair ->
    let a, b = new_socketpair t in
    (match install_fd t p a with
     | Error e ->
       release_file t a;
       release_file t b;
       fail e
     | Ok afd ->
       (match install_fd t p b with
        | Error e ->
          ignore (close_fd t p afd);
          release_file t b;
          fail e
        | Ok bfd -> Done (Value.ret afd ~r1:bfd)))
  | Call.Gettimeofday r ->
    let now = now_us t in
    r := Some (now / 1_000_000, now mod 1_000_000);
    done_ret 0
  | Call.Settimeofday (sec, usec) ->
    if p.cred.uid <> 0 then fail Errno.EPERM
    else begin
      let target = (sec * 1_000_000) + usec in
      t.tod_offset_us <- target - Sim.Clock.now_us t.clock;
      done_ret 0
    end
  | Call.Rename (src, dst) -> of_unit (Vfs.Fs.rename fs c ~cwd ~src dst)
  | Call.Truncate (path, len) ->
    of_unit (Vfs.Fs.truncate fs c ~cwd path len)
  | Call.Ftruncate (fd, len) ->
    (match fd_file p fd with
     | Error e -> fail e
     | Ok f ->
       if not (File.is_writable f) then fail Errno.EBADF
       else if len < 0 then fail Errno.EINVAL
       else
         match f.kind with
         | File.Vnode ({ kind = Vfs.Inode.Reg data; _ } as inode) ->
           Vfs.Filedata.truncate data len;
           Vfs.Fs.touch_mtime fs inode;
           done_ret 0
         | _ -> fail Errno.EINVAL)
  | Call.Mkdir (path, mode) ->
    let perm = mode land lnot p.umask land 0o7777 in
    (match Vfs.Fs.mkdir fs c ~cwd path ~perm with
     | Ok _ -> done_ret 0
     | Error e -> fail e)
  | Call.Rmdir path -> of_unit (Vfs.Fs.rmdir fs c ~cwd path)
  | Call.Utimes (path, atime, mtime) ->
    of_unit (Vfs.Fs.utimes fs c ~cwd path ~atime ~mtime)
  | Call.Getdirentries (fd, buf) -> do_getdirentries t p fd buf
  | Call.Sleepus us -> do_sleepus t p us
  | Call.Getcwd buf ->
    (match Vfs.Fs.path_of_ino fs p.cwd with
     | Some path ->
       if String.length path > Bytes.length buf then fail Errno.ERANGE
       else begin
         Bytes.blit_string path 0 buf 0 (String.length path);
         done_ret (String.length path)
       end
     | None -> fail Errno.ENOENT)

(* --- one trap's kernel work ----------------------------------------------- *)

let base_cost (via : Events.via) call =
  Cost_model.syscall_us call
  + (match via with
     | Events.Htg -> Cost_model.htg_overhead_us
     | Events.App -> 0)

let serve ?via t (p : Proc.t) env =
  (* decode-once: if any agent above already materialized the typed
     view, this is a memoized read, not a second decode *)
  match Envelope.call env with
  | Error e ->
    if Option.is_some via then charge t Cost_model_base.trivial_us;
    Done (Error e)
  | Ok call ->
    (match via with
     | Some via ->
       let cost = base_cost via call in
       p.stime_us <- p.stime_us + cost;
       charge t cost
     | None -> ());
    (match dispatch t p call with
     | Done res as outcome ->
       run_trace_hook t p call res;
       outcome
     | (Block _ | Exited | Exec _) as outcome -> outcome)

(* --- restart policy --------------------------------------------------------- *)

(* The scheduler's own interruption handling is BSD restart semantics:
   a parked call is simply re-dispatched, so the application never sees
   a spurious EINTR from a call that would have completed.  The calls
   below are the exceptions — time-bounded or one-shot waits where a
   blind re-issue would change meaning (sleepus is resumed directly by
   its timer; select and sigsuspend wait for a condition whose window
   an interruption legitimately ends).  Agents that inject EINTR must
   consult this policy so an injected interruption is no more visible
   than a real one. *)
let restartable ?errno num =
  match errno with
  | Some Errno.EPIPE ->
    (* a broken pipe is never restartable, whatever the call: the
       producing write/send already raised SIGPIPE, and re-issuing it
       can only break the pipe again *)
    false
  | Some _ | None ->
    not
      (num = Abi.Sysno.sys_sleepus
       || num = Abi.Sysno.sys_select
       || num = Abi.Sysno.sys_sigsuspend)
