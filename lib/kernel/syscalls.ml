open Abi
open Kstate

(* Built once and never written: the shared outcomes [done_ret] hands
   out (see the interface for why sharing is safe). *)
let shared_rets = Array.init Proc.fd_table_size (fun v -> Done (Value.ret v))

let done_ret ?(r1 = 0) v =
  if r1 = 0 && v >= 0 && v < Proc.fd_table_size then shared_rets.(v)
  else
    (* built in place: passing [~r1] on to [Value.ret]'s optional
       argument would box it in a [Some] per call *)
    Done (Ok { Value.r0 = v; r1 })

let of_unit = function
  | Ok () -> done_ret 0
  | Error e -> fail e

(* --- read --------------------------------------------------------------- *)

let nonblocking (f : File.t) = f.flags land Flags.Open.o_nonblock <> 0

let pipe_read t (p : Proc.t) (f : File.t) buf cnt (r : File.ring) =
  (* a zero-length read is complete by definition — without this early
     return it would fall through the n = 0 branches below and block a
     blocking reader forever while writers are still alive *)
  if cnt = 0 then done_ret 0
  else
    let n = Vfs.Pipebuf.read r.buf buf ~off:0 ~len:cnt in
    if n > 0 then begin
      (* causal hook (DESIGN.md §3.9): links this read's span to the
         writes that produced these bytes.  Pure bookkeeping, charges
         no virtual time. *)
      Obs.causal_pipe_read (Vfs.Pipebuf.stamps r.buf) ~chan:r.chan
        ~at:(Vfs.Pipebuf.consumed r.buf - n) ~pid:p.pid ~bytes:n;
      wakeup t (File.Wchan.writable r);
      done_ret n
    end
    (* n = 0 with cnt > 0 means the buffer is drained, so this is EOF
       exactly when no writer remains: buffered bytes always win over
       the EOF check, a reader never loses data to a racing close *)
    else if Vfs.Pipebuf.writers r.buf = 0 then done_ret 0 (* EOF *)
    else if nonblocking f then fail Errno.EWOULDBLOCK
    else Block (Proc.On_chan (File.Wchan.readable r))

(* A connection endpoint reads its receive ring.  After [shutdown]
   of the read half our reader reference is gone, so anything still
   buffered is unreachable: the read side is simply at EOF.  Each
   direction is its own ring, with its own causal channel, so request
   and reply bytes form distinct lanes in the event graph. *)
let conn_read t (p : Proc.t) (f : File.t) (c : File.conn) buf cnt =
  if c.File.shut_rd then done_ret 0
  else pipe_read t p f buf cnt c.File.rx

let do_read t (p : Proc.t) fd buf cnt =
  if cnt < 0 then fail Errno.EINVAL
  else
    match Proc.fd p fd with
    | None -> fail Errno.EBADF
    | Some { file = f; _ } ->
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
           | Vfs.Inode.Chardev rdev ->
             (match Dev.find t.devs rdev with
              | ops -> done_ret (ops.Dev.read buf ~off:0 ~len:cnt)
              | exception Not_found -> fail Errno.ENXIO)
           | Vfs.Inode.Symlink _ -> fail Errno.EINVAL
           | Vfs.Inode.Fifo _ -> fail Errno.EBADF)
        | File.Pipe_read r | File.Fifo_read (_, r) -> pipe_read t p f buf cnt r
        | File.Sock s ->
          (match s.File.sock with
           | File.S_conn c -> conn_read t p f c buf cnt
           | File.S_fresh | File.S_bound _ | File.S_listening _ ->
             fail Errno.ENOTCONN)
        | File.Pipe_write _ | File.Fifo_write _ -> fail Errno.EBADF
      end

(* --- write -------------------------------------------------------------- *)

let pipe_write t (p : Proc.t) (f : File.t) data (r : File.ring) =
  if Vfs.Pipebuf.readers r.buf = 0 then begin
    post_signal t p Signal.sigpipe;
    fail Errno.EPIPE
  end
  else begin
    let n = Vfs.Pipebuf.write r.buf data ~pos:0 in
    if n > 0 then begin
      (* causal hook: stamp the accepted byte interval with this
         write's span so the consuming read can link back to it *)
      Vfs.Pipebuf.set_stamps r.buf
        (Obs.causal_pipe_write (Vfs.Pipebuf.stamps r.buf)
           ~at:(Vfs.Pipebuf.written r.buf - n) ~pid:p.pid ~bytes:n);
      wakeup t (File.Wchan.readable r);
      done_ret n
    end
    else if nonblocking f then fail Errno.EWOULDBLOCK
    else Block (Proc.On_chan (File.Wchan.writable r))
  end

(* A connection endpoint writes its send ring.  A locally shut write
   half is a broken pipe regardless of the peer's state — the reference
   that would let these bytes be delivered is already gone. *)
let conn_write t (p : Proc.t) (f : File.t) (c : File.conn) data =
  if c.File.shut_wr then begin
    post_signal t p Signal.sigpipe;
    fail Errno.EPIPE
  end
  else pipe_write t p f data c.File.tx

let do_write t (p : Proc.t) fd data =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = f; _ } ->
    if not (File.is_writable f) then fail Errno.EBADF
    else begin
      match f.kind with
      | File.Vnode inode ->
        (match inode.kind with
         | Vfs.Inode.Reg _ when data = "" ->
           (* a zero-length write changes nothing: not the size, even
              at an offset past EOF, nor the mtime, nor the offset *)
           done_ret 0
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
         | Vfs.Inode.Chardev rdev ->
           (match Dev.find t.devs rdev with
            | ops -> done_ret (ops.Dev.write data)
            | exception Not_found -> fail Errno.ENXIO)
         | Vfs.Inode.Dir _ -> fail Errno.EISDIR
         | Vfs.Inode.Symlink _ | Vfs.Inode.Fifo _ -> fail Errno.EBADF)
      | File.Pipe_write r | File.Fifo_write (_, r) -> pipe_write t p f data r
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
      | Vfs.Inode.Fifo buf ->
        let ring = { File.chan = Obs.chan_fifo inode.ino; buf } in
        (match Flags.Open.accmode flags with
         | 0 -> Ok (File.Fifo_read (inode, ring))
         | 1 -> Ok (File.Fifo_write (inode, ring))
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
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = f; _ } ->
    match f.kind with
    | File.Pipe_read _ | File.Pipe_write _ | File.Sock _
    | File.Fifo_read _ | File.Fifo_write _ -> fail Errno.ESPIPE
    | File.Vnode inode ->
      if whence <> Flags.Seek.set && whence <> Flags.Seek.cur
         && whence <> Flags.Seek.end_
      then fail Errno.EINVAL
      else begin
        let base =
          if whence = Flags.Seek.set then 0
          else if whence = Flags.Seek.cur then f.offset
          else Vfs.Inode.size inode
        in
        let pos = base + off in
        if pos < 0 then fail Errno.EINVAL
        else begin
          f.offset <- pos;
          done_ret pos
        end
      end

let do_dup t (p : Proc.t) fd ~from =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some e ->
    retain_file e.File.file;
    (match install_fd t p ~from e.File.file with
     | Ok nfd -> done_ret nfd
     | Error err ->
       release_file t e.File.file;
       fail err)

let do_dup2 t (p : Proc.t) ofd nfd =
  match Proc.fd p ofd with
  | None -> fail Errno.EBADF
  | Some e ->
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
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some e ->
    if cmd = Flags.Fcntl.f_dupfd && (arg < 0 || arg >= Array.length p.fds)
    then fail Errno.EINVAL (* 4.3BSD's [i < 0 || i >= NOFILE] *)
    else if cmd = Flags.Fcntl.f_dupfd then do_dup t p fd ~from:arg
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

(* Entries from index [f.offset] on, in name order, are encoded
   straight from the directory's map into the caller's buffer until one
   does not fit; the entries before the offset are only counted. *)
let do_getdirentries t (p : Proc.t) fd buf =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = f; _ } ->
    match f.kind with
    | File.Vnode ({ kind = Vfs.Inode.Dir d; _ } as inode) ->
      let start = f.offset and len = Bytes.length buf in
      let next = ref 0 and pos = ref 0 and full = ref false in
      Vfs.Inode.Names.iter
        (fun name ino ->
          if not !full then
            if !next < start then incr next
            else if !pos + Dirent.record_len name > len then full := true
            else begin
              pos := Dirent.encode_name buf ~pos:!pos ~ino name;
              incr next
            end)
        d.entries;
      if !pos = 0 && !full then fail Errno.EINVAL
      else begin
        f.offset <- !next;
        Vfs.Fs.touch_atime t.fs inode;
        done_ret !pos ~r1:f.offset
      end
    | File.Vnode _ | File.Pipe_read _ | File.Pipe_write _ | File.Sock _
    | File.Fifo_read _ | File.Fifo_write _ -> fail Errno.ENOTDIR

(* --- stat family ---------------------------------------------------------- *)

let fill_stat r st = r := Some st

(* A pipe's or connection's number in [fstat]: its ring id, which the
   causal channel keeps above two kind bits ([Obs.chan_pipe]). *)
let ring_number (r : File.ring) = r.chan lsr 2

let do_fstat t (p : Proc.t) fd r =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = f; _ } ->
    match f.kind with
    | File.Vnode inode | File.Fifo_read (inode, _)
    | File.Fifo_write (inode, _) ->
      fill_stat r (Vfs.Fs.stat_inode t.fs inode);
      done_ret 0
    | File.Pipe_read ring | File.Pipe_write ring ->
      let st =
        { Stat.zero with
          st_dev = 0;
          st_ino = 0x10000 + ring_number ring;
          st_mode = Flags.Mode.ififo lor 0o600;
          st_nlink = 1;
          st_size = Vfs.Pipebuf.available ring.buf }
      in
      fill_stat r st;
      done_ret 0
    | File.Sock s ->
      let ino, size =
        match s.File.sock with
        | File.S_conn c ->
          0x20000 + ring_number c.File.rx, Vfs.Pipebuf.available c.File.rx.buf
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
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = f; _ } ->
    let set_int32 v =
      if Bytes.length buf >= 4 then begin
        Bytes.set_int32_le buf 0 (Int32.of_int v);
        done_ret 0
      end
      else fail Errno.EFAULT
    in
    if op = Flags.Ioctl.fionread then
      match f.kind with
      | File.Pipe_read r | File.Fifo_read (_, r) ->
        set_int32 (Vfs.Pipebuf.available r.buf)
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
        | File.Vnode { kind = Vfs.Inode.Chardev rdev; _ } ->
          (match Dev.find t.devs rdev with
           | ops when ops.Dev.isatty -> Some ops
           | _ | exception Not_found -> None)
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
  (* the parent's fork trap is the open span here; the child carries
     the edge's origin to its first instrumented trap (DESIGN.md §3.9) *)
  if Obs.enabled () then child.forked_by <- Some (Obs.causal_origin p.pid);
  spawn t child body;
  done_ret pid ~r1:1

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
              | Proc.Stopped when wuntraced && Option.is_none !stopped ->
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
     | Proc.Stopped when wuntraced ->
       Done (Value.ret c.pid ~r1:(Flags.Wait.stop_status Signal.sigstop))
     | _ ->
       if options land Flags.Wait.wnohang <> 0 then done_ret 0
       else Block (Proc.On_chan (File.Wchan.children p.pid)))

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
              (* a kill names its sender span: the signal's causal
                 half-edge, which delivery completes *)
              if may_signal p q then
                post_signal ~origin:(Obs.causal_origin p.pid) t q s)
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
        (* the image header lies in the first block: read no more *)
        let header =
          Bytes.create (min (Vfs.Filedata.size data) Vfs.Filedata.block)
        in
        ignore
          (Vfs.Filedata.read data ~pos:0 header ~off:0
             ~len:(Bytes.length header));
        match Registry.image_of_content (Bytes.unsafe_to_string header) with
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
            (* a pending alarm survives the exec, as in 4.3BSD; no
               call of this process has a timer armed *)
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
    match take_alarm t p.pid with
    | Some at when at > now -> (at - now + 999_999) / 1_000_000
    | Some _ | None -> 0
  in
  if sec > 0 then add_timer t ~at:(now + (sec * 1_000_000)) (T_alarm p.pid);
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

(* A ring side is ready when a read or write would not block. *)
let read_ready (r : File.ring) =
  Vfs.Pipebuf.available r.buf > 0 || Vfs.Pipebuf.writers r.buf = 0

let write_ready (r : File.ring) =
  Vfs.Pipebuf.room r.buf > 0 || Vfs.Pipebuf.readers r.buf = 0

let do_select t (p : Proc.t) rmask wmask tmo =
  let exception Bad_fd in
  (* the channels to sleep on, one for each descriptor not yet ready *)
  let chans = ref [] in
  let ready_or_wait ready chan =
    ready || (chans := chan :: !chans; false)
  in
  let readable : File.kind -> bool = function
    | File.Vnode _ -> true
    | File.Pipe_read r | File.Fifo_read (_, r) ->
      ready_or_wait (read_ready r) (File.Wchan.readable r)
    | File.Sock { sock = File.S_conn c } ->
      ready_or_wait (c.File.shut_rd || read_ready c.File.rx)
        (File.Wchan.readable c.File.rx)
    | File.Sock { sock = File.S_listening (_, l) } ->
      (* readable = accept would not block *)
      ready_or_wait (not (Queue.is_empty l.File.pending) || l.File.lclosed)
        (File.Wchan.accept l)
    | File.Sock { sock = File.S_fresh | File.S_bound _ }
    | File.Pipe_write _ | File.Fifo_write _ ->
      false (* never readable: permanently not ready *)
  in
  let writable : File.kind -> bool = function
    | File.Vnode _ -> true
    | File.Pipe_write r | File.Fifo_write (_, r) ->
      ready_or_wait (write_ready r) (File.Wchan.writable r)
    | File.Sock { sock = File.S_conn c } ->
      ready_or_wait (c.File.shut_wr || write_ready c.File.tx)
        (File.Wchan.writable c.File.tx)
    | File.Sock { sock = File.S_fresh | File.S_bound _ | File.S_listening _ }
    | File.Pipe_read _ | File.Fifo_read _ -> false
  in
  let scan mask ready =
    List.fold_left
      (fun mask fd ->
        match Proc.fd p fd with
        | None -> raise Bad_fd
        | Some e -> if ready e.File.file.kind then mask lor (1 lsl fd) else mask)
      0 (fds_of_mask mask)
  in
  match
    let ready_r = scan rmask readable in
    ready_r, scan wmask writable
  with
  | exception Bad_fd -> fail Errno.EBADF
  | ready_r, ready_w ->
    if ready_r <> 0 || ready_w <> 0 then begin
      cancel_call_timers t p.pid;
      Done (Value.ret ready_r ~r1:ready_w)
    end
    else if tmo = 0 then begin
      (* a pure poll: never arms a timer, but a retried select that
         polled its way out must still drop the deadline its original
         blocking incarnation armed *)
      cancel_call_timers t p.pid;
      Done (Value.ret 0 ~r1:0)
    end
    else begin
      (* arm the timeout once; retries keep the original deadline *)
      if tmo > 0 && not (has_select_timer t p.pid) then
        add_timer t
          ~at:(Sim.Clock.now_us t.clock + tmo)
          (T_select p.pid);
      Block (Proc.On_chans !chans)
    end

(* --- sockets ---------------------------------------------------------------- *)

(* Stream sockets over the same machinery as pipes (DESIGN.md §3.10): a
   connection is a crossed pair of rings, a listening socket a
   bounded queue of established-but-unaccepted connections.  Addresses
   are flat names in a shard-wide namespace ([Kstate.bindings]); they
   are not filesystem paths, deliberately, so pathname-guarding agents
   leave them alone. *)

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
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = { kind = File.Sock s; _ }; _ } ->
    (match s.File.sock with
     | File.S_fresh ->
       if addr = "" then fail Errno.EINVAL
       else if Hashtbl.mem t.bindings addr then fail Errno.EADDRINUSE
       else begin
         Hashtbl.replace t.bindings addr s;
         s.File.sock <- File.S_bound addr;
         done_ret 0
       end
     | File.S_bound _ | File.S_listening _ -> fail Errno.EINVAL
     | File.S_conn _ -> fail Errno.EISCONN)
  | Some _ -> fail Errno.ENOTSOCK

let do_listen t (p : Proc.t) fd backlog =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = { kind = File.Sock s; _ }; _ } ->
    (match s.File.sock with
     | File.S_bound addr ->
       let l = new_listener t ~backlog in
       s.File.sock <- File.S_listening (addr, l);
       done_ret 0
     | File.S_listening _ -> done_ret 0  (* re-listen keeps the queue *)
     | File.S_fresh -> fail Errno.EINVAL (* must bind first *)
     | File.S_conn _ -> fail Errno.EISCONN)
  | Some _ -> fail Errno.ENOTSOCK

let do_accept t (p : Proc.t) fd =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = { kind = File.Sock s; _ } as f; _ } ->
    (match s.File.sock with
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
           wakeup t (File.Wchan.connq l);
           done_ret nfd
         | Error e ->
           (* no descriptor for it — the adopted connection is reset *)
           release_file t file;
           wakeup t (File.Wchan.connq l);
           fail e
       end
       else if l.File.lclosed then fail Errno.EINVAL
       else if nonblocking f then fail Errno.EWOULDBLOCK
       else Block (Proc.On_chan (File.Wchan.accept l))
     | File.S_fresh | File.S_bound _ -> fail Errno.EINVAL
     | File.S_conn _ -> fail Errno.EISCONN)
  | Some _ -> fail Errno.ENOTSOCK

let do_connect t (p : Proc.t) fd addr =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = { kind = File.Sock s; _ } as f; _ } ->
    (match s.File.sock with
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
               Block (Proc.On_chan (File.Wchan.connq l))
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
             wakeup t (File.Wchan.accept l);
             done_ret 0
           end
         | _ ->
           (* bound but never listened, or already torn down *)
           fail Errno.ECONNREFUSED)
  | Some _ -> fail Errno.ENOTSOCK

(* [send] and [recv] are a connection's data path, one call a message:
   they also want the connection itself, so they match it in the same
   pattern. *)
let do_send t (p : Proc.t) fd data =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = { kind = File.Sock { sock = File.S_conn c }; _ } as f; _ } ->
    conn_write t p f c data
  | Some { file = { kind = File.Sock _; _ }; _ } -> fail Errno.ENOTCONN
  | Some _ -> fail Errno.ENOTSOCK

let do_recv t (p : Proc.t) fd buf cnt =
  if cnt < 0 then fail Errno.EINVAL
  else
    match Proc.fd p fd with
    | None -> fail Errno.EBADF
    | Some { file = { kind = File.Sock { sock = File.S_conn c }; _ } as f; _ } ->
      conn_read t p f c buf (min cnt (Bytes.length buf))
    | Some { file = { kind = File.Sock _; _ }; _ } -> fail Errno.ENOTCONN
    | Some _ -> fail Errno.ENOTSOCK

let do_shutdown t (p : Proc.t) fd how =
  match Proc.fd p fd with
  | None -> fail Errno.EBADF
  | Some { file = { kind = File.Sock s; _ }; _ } ->
    (match s.File.sock with
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
       fail Errno.ENOTCONN)
  | Some _ -> fail Errno.ENOTSOCK

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
    (match Proc.fd p fd with
     | None -> fail Errno.EBADF
     | Some { file = { kind = File.Vnode inode; _ }; _ }
       when Vfs.Inode.is_dir inode ->
       p.cwd <- inode.ino;
       done_ret 0
     | Some _ -> fail Errno.ENOTDIR)
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
    (match Proc.fd p fd with Some _ -> done_ret 0 | None -> fail Errno.EBADF)
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
    (match Proc.fd p fd with
     | None -> fail Errno.EBADF
     | Some { file = f; _ } ->
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
  match Envelope.typed env with
  | exception Envelope.Undecodable e ->
    if Option.is_some via then charge t Cost_model.trivial_us;
    fail e
  | call ->
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
