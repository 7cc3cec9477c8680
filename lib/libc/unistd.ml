open Abi

type 'a r = ('a, Errno.t) result

exception Unix_error of Errno.t * string

let ok_exn what = function
  | Ok v -> v
  | Error e -> raise (Unix_error (e, what))

let call = Kernel.Uspace.syscall

let unit_of = function
  | Ok (_ : Value.ret) -> Ok ()
  | Error e -> Error e

let int_of = function
  | Ok { Value.r0; _ } -> Ok r0
  | Error e -> Error e

(* --- files ---------------------------------------------------------------- *)

let open_ path flags mode = int_of (call (Call.Open (path, flags, mode)))
let creat path mode = int_of (call (Call.Creat (path, mode)))
let close fd = unit_of (call (Call.Close fd))

let read fd buf cnt = int_of (call (Call.Read (fd, buf, cnt)))
let write fd data = int_of (call (Call.Write (fd, data)))

let rec write_all fd data =
  if data = "" then Ok ()
  else
    match write fd data with
    | Error e -> Error e
    | Ok n ->
      if n >= String.length data then Ok ()
      else write_all fd (String.sub data n (String.length data - n))

(* One string per chunk read, newest first; a one-chunk read returns
   its string as it is.  Top level, so a read builds no closure. *)
let rec read_chunks fd chunk chunks =
  match read fd chunk (Bytes.length chunk) with
  | Error e -> Error e
  | Ok 0 ->
    Ok (match chunks with [ c ] -> c | _ -> String.concat "" (List.rev chunks))
  | Ok n -> read_chunks fd chunk (Bytes.sub_string chunk 0 n :: chunks)

(* The chunk is the shard's, borrowed for this call. *)
let read_all fd =
  let chunk = Kernel.Uspace.take_chunk () in
  let r = read_chunks fd chunk [] in
  Kernel.Uspace.give_chunk chunk;
  r

let lseek fd off whence = int_of (call (Call.Lseek (fd, off, whence)))
let ftruncate fd len = unit_of (call (Call.Ftruncate (fd, len)))
let fsync fd = unit_of (call (Call.Fsync fd))
let dup fd = int_of (call (Call.Dup fd))
let dup2 o n = int_of (call (Call.Dup2 (o, n)))

let pipe () =
  match call Call.Pipe with
  | Ok { Value.r0; r1 } -> Ok (r0, r1)
  | Error e -> Error e

let socketpair () =
  match call Call.Socketpair with
  | Ok { Value.r0; r1 } -> Ok (r0, r1)
  | Error e -> Error e

(* --- sockets -------------------------------------------------------------- *)

let socket () = int_of (call Call.Socket)
let bind fd addr = unit_of (call (Call.Bind (fd, addr)))
let listen fd backlog = unit_of (call (Call.Listen (fd, backlog)))
let accept fd = int_of (call (Call.Accept fd))
let connect fd addr = unit_of (call (Call.Connect (fd, addr)))
let send fd data = int_of (call (Call.Send (fd, data)))
let recv fd buf cnt = int_of (call (Call.Recv (fd, buf, cnt)))
let shutdown fd how = unit_of (call (Call.Shutdown (fd, how)))

let rec send_all fd data =
  if data = "" then Ok ()
  else
    match send fd data with
    | Error e -> Error e
    | Ok n ->
      if n >= String.length data then Ok ()
      else send_all fd (String.sub data n (String.length data - n))

let fcntl fd cmd arg = int_of (call (Call.Fcntl (fd, cmd, arg)))

let set_cloexec fd on =
  match fcntl fd Flags.Fcntl.f_setfd (if on then Flags.Fcntl.fd_cloexec else 0)
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

(* --- names ---------------------------------------------------------------- *)

let stat_via make =
  let cell = ref None in
  match call (make cell) with
  | Ok _ ->
    (match !cell with
     | Some st -> Ok st
     | None -> Error Errno.EFAULT)
  | Error e -> Error e

let stat path = stat_via (fun cell -> Call.Stat (path, cell))
let lstat path = stat_via (fun cell -> Call.Lstat (path, cell))
let fstat fd = stat_via (fun cell -> Call.Fstat (fd, cell))

let access path bits = unit_of (call (Call.Access (path, bits)))
let unlink path = unit_of (call (Call.Unlink path))
let link ~existing path = unit_of (call (Call.Link (existing, path)))
let symlink ~target path = unit_of (call (Call.Symlink (target, path)))

let readlink path =
  let buf = Bytes.create 1024 in
  match int_of (call (Call.Readlink (path, buf))) with
  | Ok n -> Ok (Bytes.sub_string buf 0 n)
  | Error e -> Error e

let rename ~src dst = unit_of (call (Call.Rename (src, dst)))
let mkdir path perm = unit_of (call (Call.Mkdir (path, perm)))
let rmdir path = unit_of (call (Call.Rmdir path))

let mkfifo path perm =
  unit_of (call (Call.Mknod (path, Flags.Mode.ififo lor perm, 0)))

let chmod path perm = unit_of (call (Call.Chmod (path, perm)))
let chown path ~uid ~gid = unit_of (call (Call.Chown (path, uid, gid)))
let truncate path len = unit_of (call (Call.Truncate (path, len)))

let utimes path ~atime ~mtime =
  unit_of (call (Call.Utimes (path, atime, mtime)))

let chdir path = unit_of (call (Call.Chdir path))
let fchdir fd = unit_of (call (Call.Fchdir fd))

let getcwd () =
  let buf = Bytes.create 1024 in
  match int_of (call (Call.Getcwd buf)) with
  | Ok n -> Ok (Bytes.sub_string buf 0 n)
  | Error e -> Error e

let umask m = int_of (call (Call.Umask m))

(* --- processes -------------------------------------------------------------- *)

let fork ~child = int_of (call (Call.Fork child))

let execve path argv envp =
  match call (Call.Execve (path, argv, envp)) with
  | Ok _ ->
    (* unreachable: a successful exec does not return *)
    assert false
  | Error e -> Error e

let execv path argv = execve path argv [||]

let _exit code =
  ignore (call (Call.Exit code));
  (* an agent could in principle deny the exit; fall back hard *)
  raise (Kernel.Events.Process_exit code)

let waitpid pid options =
  match call (Call.Wait4 (pid, options)) with
  | Ok { Value.r0; r1 } -> Ok (r0, r1)
  | Error e -> Error e

let wait () = waitpid (-1) 0

let int_call c =
  match call c with
  | Ok { Value.r0; _ } -> r0
  | Error _ -> -1

let getpid () = int_call Call.Getpid
let getppid () = int_call Call.Getppid
let getuid () = int_call Call.Getuid
let geteuid () = int_call Call.Geteuid
let getgid () = int_call Call.Getgid
let setuid u = unit_of (call (Call.Setuid u))
let getpgrp () = int_call Call.Getpgrp
let setpgrp pid pgrp = unit_of (call (Call.Setpgrp (pid, pgrp)))
let kill pid s = unit_of (call (Call.Kill (pid, s)))
let getdtablesize () = int_call Call.Getdtablesize

(* --- signals ------------------------------------------------------------------ *)

let signal s h =
  let old = ref None in
  match call (Call.Sigaction (s, Some h, Some old)) with
  | Ok _ ->
    (match !old with
     | Some prev -> Ok prev
     | None -> Ok Value.H_default)
  | Error e -> Error e

let sigprocmask how m = int_of (call (Call.Sigprocmask (how, m)))
let sigpending () = int_of (call Call.Sigpending)
let sigsuspend m = unit_of (call (Call.Sigsuspend m))
let alarm sec = int_of (call (Call.Alarm sec))

(* --- time ---------------------------------------------------------------------- *)

let gettimeofday () =
  let cell = ref None in
  match call (Call.Gettimeofday cell) with
  | Ok _ ->
    (match !cell with
     | Some tv -> Ok tv
     | None -> Error Errno.EFAULT)
  | Error e -> Error e

let settimeofday ~sec ~usec = unit_of (call (Call.Settimeofday (sec, usec)))

let getrusage () =
  let cell = ref None in
  match call (Call.Getrusage cell) with
  | Ok _ ->
    (match !cell with
     | Some usage -> Ok usage
     | None -> Error Errno.EFAULT)
  | Error e -> Error e

let time () =
  match gettimeofday () with
  | Ok (sec, _) -> Ok sec
  | Error e -> Error e

let mask_of_fds fds =
  List.fold_left (fun m fd -> m lor (1 lsl fd)) 0 fds

let fds_of_mask mask =
  let rec go fd acc =
    if fd > 62 then List.rev acc
    else go (fd + 1) (if mask land (1 lsl fd) <> 0 then fd :: acc else acc)
  in
  go 0 []

let select ?(read = []) ?(write = []) ?(timeout_us = -1) () =
  match
    call (Call.Select (mask_of_fds read, mask_of_fds write, timeout_us))
  with
  | Ok { Value.r0; r1 } -> Ok (fds_of_mask r0, fds_of_mask r1)
  | Error e -> Error e

let sleep_us us = unit_of (call (Call.Sleepus us))
let cpu_work = Kernel.Uspace.cpu_work

(* --- directories ----------------------------------------------------------------- *)

let getdirentries fd buf =
  match call (Call.Getdirentries (fd, buf)) with
  | Ok { Value.r0; r1 } -> Ok (r0, r1)
  | Error e -> Error e

let ioctl fd op buf = int_of (call (Call.Ioctl (fd, op, buf)))

let isatty fd =
  let buf = Bytes.create 4 in
  match ioctl fd Flags.Ioctl.tiocisatty buf with
  | Ok _ -> true
  | Error _ -> false
