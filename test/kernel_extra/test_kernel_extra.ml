(* Further kernel semantics: process groups, job control, descriptor
   flags across exec, fifos, umask, non-blocking I/O, timers, crash
   handling and getdirentries paging. *)

open Abi
open Tharness

let u = Libc.Unistd.ok_exn

(* --- process groups ------------------------------------------------------ *)

let test_pgrp_inherit_and_set () =
  let _, status = boot (fun () ->
    let my_pgrp = Libc.Unistd.getpgrp () in
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           if Libc.Unistd.getpgrp () <> my_pgrp then 1
           else begin
             u "setpgrp" (Libc.Unistd.setpgrp 0 (Libc.Unistd.getpid ()));
             if Libc.Unistd.getpgrp () = Libc.Unistd.getpid () then 0 else 2
           end))
    in
    let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
    Flags.Wait.wexitstatus st)
  in
  check_exit "pgrp semantics" 0 status

let test_kill_process_group () =
  let _, status = boot (fun () ->
    (* two children in their own group; kill the group at once *)
    let spin () =
      let rec loop () =
        ignore (Libc.Unistd.getpid ());
        loop ()
      in
      loop ()
    in
    let mk () =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           u "setpgrp" (Libc.Unistd.setpgrp 0 4242);
           spin ()))
    in
    let c1 = mk () in
    let c2 = mk () in
    (* give them a chance to join the group *)
    ignore (Libc.Unistd.sleep_us 1000);
    u "kill group" (Libc.Unistd.kill (-4242) Signal.sigterm);
    let reap pid =
      let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
      Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigterm
    in
    if reap c1 && reap c2 then 0 else 1)
  in
  check_exit "group killed" 0 status

(* --- job control: stop and continue -------------------------------------- *)

let test_stop_and_continue () =
  let _, status = boot (fun () ->
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           (* loop until continued, then exit 7 *)
           for _ = 1 to 50 do
             ignore (Libc.Unistd.getpid ())
           done;
           7))
    in
    u "stop" (Libc.Unistd.kill pid Signal.sigstop);
    (* WUNTRACED sees the stop *)
    let wpid, st = u "wait" (Libc.Unistd.waitpid pid Flags.Wait.wuntraced) in
    if wpid <> pid || not (Flags.Wait.wifstopped st) then 1
    else begin
      u "cont" (Libc.Unistd.kill pid Signal.sigcont);
      let _, st = u "wait2" (Libc.Unistd.waitpid pid 0) in
      if Flags.Wait.wifexited st && Flags.Wait.wexitstatus st = 7 then 0
      else 2
    end)
  in
  check_exit "stop/continue" 0 status

(* --- descriptors across exec ----------------------------------------------- *)

let test_cloexec_closed_on_exec () =
  let k = fresh_kernel () in
  Kernel.register_image k "fdprobe" (fun ~argv ~envp:_ () ->
    (* argv.(1) is the fd that must be closed, argv.(2) must be open *)
    let closed = int_of_string argv.(1) in
    let still = int_of_string argv.(2) in
    let buf = Bytes.create 1 in
    let closed_gone =
      match Libc.Unistd.read closed buf 1 with
      | Error Errno.EBADF -> true
      | Error _ | Ok _ -> false
    in
    let open_ok = Result.is_ok (Libc.Unistd.read still buf 1) in
    if closed_gone && open_ok then 0 else 1);
  Kernel.install_image k ~path:"/bin/fdprobe" ~image:"fdprobe";
  Kernel.write_file k ~path:"/tmp/data" "xx";
  let status =
    boot_k k (fun () ->
      let fd1 = u "open1" (Libc.Unistd.open_ "/tmp/data" 0 0) in
      let fd2 = u "open2" (Libc.Unistd.open_ "/tmp/data" 0 0) in
      u "cloexec" (Libc.Unistd.set_cloexec fd1 true);
      match
        Libc.Unistd.execv "/bin/fdprobe"
          [| "fdprobe"; string_of_int fd1; string_of_int fd2 |]
      with
      | Error _ -> 99
      | Ok _ -> assert false)
  in
  check_exit "cloexec honoured" 0 status

(* --- fifos -------------------------------------------------------------------- *)

let test_fifo_between_processes () =
  let _, status = boot (fun () ->
    u "mkfifo" (Libc.Unistd.mkfifo "/tmp/pipe" 0o644);
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           let fd = u "open w" (Libc.Unistd.open_ "/tmp/pipe" Flags.Open.o_wronly 0) in
           ignore (Libc.Unistd.write_all fd "fifo payload");
           ignore (Libc.Unistd.close fd);
           0))
    in
    let fd = u "open r" (Libc.Unistd.open_ "/tmp/pipe" Flags.Open.o_rdonly 0) in
    let got = u "read" (Libc.Unistd.read_all fd) in
    ignore (Libc.Unistd.close fd);
    let _ = Libc.Unistd.waitpid pid 0 in
    if got = "fifo payload" then 0 else 1)
  in
  check_exit "fifo" 0 status

let test_fifo_stat_kind () =
  let _, status = boot (fun () ->
    u "mkfifo" (Libc.Unistd.mkfifo "/tmp/p" 0o600);
    let st = u "stat" (Libc.Unistd.stat "/tmp/p") in
    if Flags.Mode.is_fifo st.Stat.st_mode then 0 else 1)
  in
  check_exit "fifo kind" 0 status

(* --- umask / O_APPEND / nonblocking -------------------------------------------- *)

let test_umask_applies () =
  let _, status = boot (fun () ->
    ignore (u "umask" (Libc.Unistd.umask 0o077));
    let fd = u "creat" (Libc.Unistd.creat "/tmp/masked" 0o666) in
    ignore (Libc.Unistd.close fd);
    let st = u "stat" (Libc.Unistd.stat "/tmp/masked") in
    if Flags.Mode.perm_bits st.Stat.st_mode = 0o600 then 0 else 1)
  in
  check_exit "umask" 0 status

(* Creating and removing calls whose last component is followed by a
   slash, against the errnos Linux returns: the slash asks for a
   directory, so only mkdir, rmdir and a directory's rename accept it,
   and O_CREAT of a directory (or of any name with a slash) is EISDIR.
   Rows run in order; the last checks that no failed row left a name
   behind. *)
let test_trailing_slash_table () =
  let module U = Libc.Unistd in
  let rows = ref [] in
  let _, status = boot (fun () ->
    u "mkdir" (U.mkdir "/tmp/t" 0o755);
    u "mkdir d" (U.mkdir "/tmp/t/d" 0o755);
    List.iter
      (fun f -> u "close" (U.close (u "creat" (U.creat f 0o644))))
      [ "/tmp/t/file"; "/tmp/t/file2" ];
    let r = function Ok _ -> "ok" | Error e -> Errno.name e in
    let creat_flags = Flags.Open.(o_wronly lor o_creat) in
    let excl_flags = Flags.Open.(o_wronly lor o_creat lor o_excl) in
    List.iter
      (fun (what, want, f) -> rows := (what, want, f ()) :: !rows)
      [ ("open new/ O_CREAT", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/new/" creat_flags 0o644));
        ("creat c/", "EISDIR", fun () -> r (U.creat "/tmp/t/c/" 0o644));
        ("open d O_RDONLY|O_CREAT", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/d" Flags.Open.o_creat 0o644));
        ("open d O_WRONLY|O_CREAT", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/d" creat_flags 0o644));
        ("open d O_CREAT|O_EXCL", "EEXIST",
         fun () -> r (U.open_ "/tmp/t/d" excl_flags 0o644));
        ("open d/ O_CREAT|O_EXCL", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/d/" excl_flags 0o644));
        ("open d/. O_RDONLY|O_CREAT", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/d/." Flags.Open.o_creat 0o644));
        ("open d/./ O_CREAT|O_EXCL", "EEXIST",
         fun () -> r (U.open_ "/tmp/t/d/./" excl_flags 0o644));
        ("open file/ O_RDONLY|O_CREAT", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/file/" Flags.Open.o_creat 0o644));
        ("open file/ O_WRONLY|O_CREAT", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/file/" creat_flags 0o644));
        ("open file/ O_CREAT|O_EXCL", "EISDIR",
         fun () -> r (U.open_ "/tmp/t/file/" excl_flags 0o644));
        ("open file/x O_CREAT", "ENOTDIR",
         fun () -> r (U.open_ "/tmp/t/file/x" creat_flags 0o644));
        ("open file O_CREAT", "ok",
         fun () ->
           match U.open_ "/tmp/t/file" creat_flags 0o644 with
           | Ok fd -> r (U.close fd)
           | Error e -> Errno.name e);
        ("unlink file/", "ENOTDIR", fun () -> r (U.unlink "/tmp/t/file/"));
        ("unlink missing/", "ENOENT",
         fun () -> r (U.unlink "/tmp/t/missing/"));
        ("unlink d/", "EISDIR", fun () -> r (U.unlink "/tmp/t/d/"));
        ("mkfifo f/", "ENOENT", fun () -> r (U.mkfifo "/tmp/t/f/" 0o644));
        ("mkfifo file/", "EEXIST",
         fun () -> r (U.mkfifo "/tmp/t/file/" 0o644));
        ("symlink s/", "ENOENT",
         fun () -> r (U.symlink ~target:"file" "/tmp/t/s/"));
        ("symlink file2/", "EEXIST",
         fun () -> r (U.symlink ~target:"file" "/tmp/t/file2/"));
        ("link n/", "ENOENT",
         fun () -> r (U.link ~existing:"/tmp/t/file" "/tmp/t/n/"));
        ("link file2/", "EEXIST",
         fun () -> r (U.link ~existing:"/tmp/t/file" "/tmp/t/file2/"));
        ("rename file x/", "ENOTDIR",
         fun () -> r (U.rename ~src:"/tmp/t/file" "/tmp/t/x/"));
        ("rename file/ x", "ENOTDIR",
         fun () -> r (U.rename ~src:"/tmp/t/file/" "/tmp/t/x"));
        ("rename file file2/", "ENOTDIR",
         fun () -> r (U.rename ~src:"/tmp/t/file" "/tmp/t/file2/"));
        ("rename d dx/", "ok",
         fun () -> r (U.rename ~src:"/tmp/t/d" "/tmp/t/dx/"));
        ("mkdir m/", "ok", fun () -> r (U.mkdir "/tmp/t/m/" 0o755));
        ("rmdir m/", "ok", fun () -> r (U.rmdir "/tmp/t/m/"));
        ("nothing else created", "ok",
         fun () ->
           if List.for_all
                (fun n -> U.lstat ("/tmp/t/" ^ n) = Error Errno.ENOENT)
                [ "new"; "c"; "f"; "s"; "n"; "x"; "d"; "m" ]
           then "ok"
           else "created") ];
    0)
  in
  check_exit "trailing-slash table" 0 status;
  List.iter
    (fun (what, want, got) -> Alcotest.(check string) what want got)
    (List.rev !rows)

(* [Dots_table]'s rows (test/vfs), through the C library and the
   kernel this time, in a fixture under /tmp/t. *)
let test_dots_table () =
  let module U = Libc.Unistd in
  let rows = ref [] in
  let at = Dots_table.at "/tmp/t/" in
  let r = function Ok _ -> "ok" | Error e -> Errno.name e in
  let _, status = boot (fun () ->
    List.iter (fun d -> u "mkdir" (U.mkdir (at d) 0o755)) [ ""; "d"; "d/sub" ];
    u "close" (U.close (u "creat" (U.creat (at "f") 0o644)));
    List.iter
      (fun (call, want) ->
        let got =
          match (call : Dots_table.call) with
          | Rmdir p -> r (U.rmdir (at p))
          | Rename (a, b) -> r (U.rename ~src:(at a) (at b))
          | Unlink p -> r (U.unlink (at p))
          | Mkdir p -> r (U.mkdir (at p) 0o755)
          | Link (a, b) -> r (U.link ~existing:(at a) (at b))
          | Symlink (target, p) -> r (U.symlink ~target (at p))
        in
        rows := (Dots_table.show call, Errno.name want, got) :: !rows)
      Dots_table.rows;
    List.iter
      (fun p -> rows := ("kept " ^ p, "ok", r (U.lstat (at p))) :: !rows)
      Dots_table.present;
    List.iter
      (fun p -> rows := ("no " ^ p, "ENOENT", r (U.lstat (at p))) :: !rows)
      Dots_table.absent;
    0)
  in
  check_exit "dots table" 0 status;
  List.iter
    (fun (what, want, got) -> Alcotest.(check string) what want got)
    (List.rev !rows)

(* [Creat_table]'s rows (test/vfs), through the C library and the
   kernel, in a fixture under /tmp/t. *)
let test_creat_table () =
  let module U = Libc.Unistd in
  let rows = ref [] in
  let at p = "/tmp/t/" ^ p in
  let row what want got = rows := (what, want, got) :: !rows in
  let _, status = boot (fun () ->
    List.iter (fun d -> u "mkdir" (U.mkdir (at d) 0o755))
      ("" :: Creat_table.dirs);
    List.iter (fun f -> u "close" (U.close (u "creat" (U.creat (at f) 0o644))))
      Creat_table.files;
    List.iter (fun (target, p) -> u "symlink" (U.symlink ~target (at p)))
      Creat_table.links;
    List.iter
      (fun (call, want) ->
        let p = at (Creat_table.path call) in
        let got =
          match call with
          | Creat_table.Creat _ -> U.creat p 0o644
          | _ -> U.open_ p (Creat_table.flags call) 0o644
        in
        let got = Result.map (fun fd -> u "close" (U.close fd)) got in
        row (Creat_table.show call) (Creat_table.outcome want)
          (Creat_table.outcome got))
      Creat_table.rows;
    List.iter
      (fun p ->
        let kind =
          match U.lstat (at p) with
          | Ok st when st.Stat.st_mode land Flags.Mode.ifmt = Flags.Mode.ifreg
            -> "regular"
          | Ok _ -> "not regular"
          | Error e -> Errno.name e
        in
        row ("created " ^ p) "regular" kind)
      Creat_table.created;
    List.iter
      (fun p ->
        row ("no " ^ p) "ENOENT"
          (Creat_table.outcome (Result.map ignore (U.lstat (at p)))))
      Creat_table.absent;
    0)
  in
  check_exit "creat table" 0 status;
  List.iter
    (fun (what, want, got) -> Alcotest.(check string) what want got)
    (List.rev !rows)

let test_append_interleave () =
  let k, status = boot (fun () ->
    let open_append () =
      u "open"
        (Libc.Unistd.open_ "/tmp/log"
           Flags.Open.(o_wronly lor o_creat lor o_append)
           0o644)
    in
    let fd1 = open_append () in
    let fd2 = open_append () in
    ignore (Libc.Unistd.write fd1 "one ");
    ignore (Libc.Unistd.write fd2 "two ");
    ignore (Libc.Unistd.write fd1 "three");
    0)
  in
  ignore (exit_code status);
  Alcotest.(check string) "appends interleave" "one two three"
    (read_file_exn k "/tmp/log")

let test_nonblocking_pipe () =
  let _, status = boot (fun () ->
    let r, w = u "pipe" (Libc.Unistd.pipe ()) in
    ignore
      (u "setfl"
         (Libc.Unistd.fcntl r Flags.Fcntl.f_setfl Flags.Open.o_nonblock));
    let buf = Bytes.create 4 in
    (match Libc.Unistd.read r buf 4 with
     | Error Errno.EWOULDBLOCK -> ()
     | Error _ | Ok _ -> Libc.Unistd._exit 1);
    ignore
      (u "setfl w"
         (Libc.Unistd.fcntl w Flags.Fcntl.f_setfl Flags.Open.o_nonblock));
    (* fill the pipe: a non-blocking write on a full pipe must fail *)
    let chunk = String.make 4096 'x' in
    ignore (Libc.Unistd.write w chunk);
    match Libc.Unistd.write w "y" with
    | Error Errno.EWOULDBLOCK -> 0
    | Error _ | Ok _ -> 2)
  in
  check_exit "O_NONBLOCK" 0 status

(* --- alarm bookkeeping ------------------------------------------------------------ *)

let test_alarm_replaced_and_cancelled () =
  let _, status = boot (fun () ->
    ignore (u "sig" (Libc.Unistd.signal Signal.sigalrm Value.H_ignore));
    ignore (u "alarm 100" (Libc.Unistd.alarm 100));
    let remaining = u "alarm 50" (Libc.Unistd.alarm 50) in
    if remaining < 95 || remaining > 100 then 1
    else begin
      let remaining2 = u "cancel" (Libc.Unistd.alarm 0) in
      if remaining2 < 45 || remaining2 > 50 then 2
      else begin
        (* sleeping past the old deadlines must not deliver SIGALRM *)
        ignore (Libc.Unistd.sleep_us 200_000_000);
        0
      end
    end)
  in
  check_exit "alarm bookkeeping" 0 status

(* A pending alarm survives execve, as in POSIX, Linux and 4.3BSD: a
   child arms alarm(1) and execs an image that sleeps 3 s, and dies of
   SIGALRM 1 s in, not at the image's exit 3 s in. *)
let test_alarm_kept_across_exec () =
  let k = fresh_kernel () in
  Kernel.register_image k "sleeper" (fun ~argv:_ ~envp:_ () ->
      ignore (Libc.Unistd.sleep_us 3_000_000);
      7);
  Kernel.install_image k ~path:"/bin/sleeper" ~image:"sleeper";
  let now () = Sim.Clock.now_us (Kernel.clock k) in
  let lived = ref 0 in
  let status =
    boot_k k (fun () ->
        let t0 = now () in
        let pid =
          u "fork"
            (Libc.Unistd.fork ~child:(fun () ->
                 ignore (u "alarm" (Libc.Unistd.alarm 1));
                 ignore (Libc.Unistd.execv "/bin/sleeper" [| "sleeper" |]);
                 1))
        in
        let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
        lived := now () - t0;
        if Flags.Wait.wifsignaled st then Flags.Wait.wtermsig st
        else 100 + Flags.Wait.wexitstatus st)
  in
  check_exit "the exec'd image dies of SIGALRM" Signal.sigalrm status;
  Alcotest.(check bool)
    (Printf.sprintf "dies 1 s in (reaped %d us in)" !lived)
    true
    (!lived >= 1_000_000 && !lived < 1_100_000)

(* --- crash handling ------------------------------------------------------------------ *)

let test_uncaught_exception_is_abort () =
  let _, status = boot (fun () ->
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () -> raise Exit))
    in
    let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigabrt
    then 0
    else 1)
  in
  check_exit "crash becomes SIGABRT" 0 status

let test_division_crash_contained () =
  let _, status = boot (fun () ->
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () -> 1 / (Sys.opaque_identity 0)))
    in
    let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
    (* parent unaffected by the child's crash *)
    if Flags.Wait.wifsignaled st then 0 else 1)
  in
  check_exit "contained" 0 status

(* --- getdirentries paging -------------------------------------------------------------- *)

let test_getdirentries_small_buffer_pages () =
  let listing = ref [] in
  let _, status = boot (fun () ->
    u "mkdir" (Libc.Unistd.mkdir "/tmp/many" 0o755);
    for i = 1 to 40 do
      ignore
        (u "w"
           (Libc.Stdio.write_file
              (Printf.sprintf "/tmp/many/file%02d" i)
              "x"))
    done;
    (* a buffer that holds only a few entries forces many calls *)
    let fd = u "open" (Libc.Unistd.open_ "/tmp/many" 0 0) in
    let buf = Bytes.create 64 in
    let rec collect acc =
      match u "getdirentries" (Libc.Unistd.getdirentries fd buf) with
      | 0, _ -> List.rev acc
      | n, _ -> collect (List.rev_append (Dirent.decode_all buf ~len:n) acc)
    in
    let entries = collect [] in
    listing :=
      List.filter_map
        (fun (e : Dirent.t) ->
          if e.d_name = "." || e.d_name = ".." then None else Some e.d_name)
        entries;
    0)
  in
  ignore (exit_code status);
  Alcotest.(check int) "all 40 seen" 40 (List.length !listing);
  Alcotest.(check (list string)) "sorted and complete"
    (List.init 40 (fun i -> Printf.sprintf "file%02d" (i + 1)))
    (List.sort compare !listing)

let test_lseek_rewinds_directory () =
  let _, status = boot (fun () ->
    u "mkdir" (Libc.Unistd.mkdir "/tmp/d" 0o755);
    ignore (u "w" (Libc.Stdio.write_file "/tmp/d/a" "1"));
    let fd = u "open" (Libc.Unistd.open_ "/tmp/d" 0 0) in
    let buf = Bytes.create 256 in
    let n1, _ = u "gd1" (Libc.Unistd.getdirentries fd buf) in
    let n2, _ = u "gd2" (Libc.Unistd.getdirentries fd buf) in
    ignore (u "rewind" (Libc.Unistd.lseek fd 0 Flags.Seek.set));
    let n3, _ = u "gd3" (Libc.Unistd.getdirentries fd buf) in
    if n1 > 0 && n2 = 0 && n3 = n1 then 0 else 1)
  in
  check_exit "rewinddir" 0 status

(* --- getdirentries against a model directory ------------------------------------------ *)

(* Random namespace steps in one directory, interleaved with reads at
   random buffer sizes (too small for one record included) and seeks to
   random entry indexes (past the end included).  The oracle is a
   sorted assoc list of names, encoded with [Dirent.encode]: after every
   getdirentries, r0, r1, the bytes written and the errno must be the
   oracle's, and the directory's st_size the sum of its record
   lengths. *)
type dir_step =
  | D_create of string
  | D_unlink of string
  | D_rename of string * string
  | D_mkdir of string
  | D_rmdir of string
  | D_read of int
  | D_seek of int

let dir_step_to_string = function
  | D_create n -> "create " ^ n
  | D_unlink n -> "unlink " ^ n
  | D_rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | D_mkdir n -> "mkdir " ^ n
  | D_rmdir n -> "rmdir " ^ n
  | D_read size -> Printf.sprintf "read %d" size
  | D_seek off -> Printf.sprintf "seek %d" off

(* short and long names, case and prefix neighbours *)
let dir_names =
  [ "a"; "ab"; "abc"; "B"; "b"; "z9"; "m.txt"; "0"; "dir_x";
    "a_much_longer_entry_name"; "name_of_exactly_24_chars"; "_" ]

let dir_steps =
  let open QCheck.Gen in
  let name = oneofl dir_names in
  let step =
    frequency
      [ (4, map (fun n -> D_create n) name);
        (2, map (fun n -> D_unlink n) name);
        (2, map2 (fun a b -> D_rename (a, b)) name name);
        (2, map (fun n -> D_mkdir n) name);
        (1, map (fun n -> D_rmdir n) name);
        (5, map (fun size -> D_read size) (8 -- 600));
        (2, map (fun off -> D_seek off) (0 -- 20)) ]
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map dir_step_to_string l))
    (list_size (1 -- 40) step)

(* What the model predicts for a namespace step: the errno, or the new
   assoc list.  Every subdirectory is empty, so rmdir and a rename onto
   a directory only check kinds. *)
let model_step entries ~ino step =
  let kind n = List.assoc_opt n entries in
  let without n = List.remove_assoc n entries in
  let add n v l = List.sort compare ((n, v) :: List.remove_assoc n l) in
  match step with
  | D_create n ->
    if kind n <> None then Error Errno.EEXIST else Ok (add n (`File, ino) entries)
  | D_mkdir n ->
    if kind n <> None then Error Errno.EEXIST else Ok (add n (`Dir, ino) entries)
  | D_unlink n ->
    (match kind n with
     | None -> Error Errno.ENOENT
     | Some (`Dir, _) -> Error Errno.EISDIR
     | Some (`File, _) -> Ok (without n))
  | D_rmdir n ->
    (match kind n with
     | None -> Error Errno.ENOENT
     | Some (`File, _) -> Error Errno.ENOTDIR
     | Some (`Dir, _) -> Ok (without n))
  | D_rename (a, b) ->
    (match kind a, kind b with
     | None, _ -> Error Errno.ENOENT
     | Some (`Dir, _), Some (`File, _) -> Error Errno.ENOTDIR
     | Some (`File, _), Some (`Dir, _) -> Error Errno.EISDIR
     | Some v, _ -> Ok (if a = b then entries else add b v (without a)))
  | D_read _ | D_seek _ -> Ok entries

(* The oracle's getdirentries: encode from index [offset] until an
   entry does not fit. *)
let model_read listing ~offset size =
  let buf = Bytes.make size '\000' in
  let rec go i pos = function
    | [] -> (i, pos, false)
    | (name, ino) :: rest ->
      let e = { Dirent.d_ino = ino; d_name = name } in
      if i < offset then go (i + 1) pos rest
      else if Dirent.fits buf ~pos e then go (i + 1) (Dirent.encode buf ~pos e) rest
      else (i, pos, true)
  in
  let next, written, full = go 0 0 listing in
  if written = 0 && full then Error Errno.EINVAL
  else Ok (written, next, Bytes.sub_string buf 0 written)

let test_getdirentries_matches_model =
  QCheck.Test.make ~name:"getdirentries matches a sorted-list model" ~count:300
    dir_steps
    (fun steps ->
      let failure = ref None in
      let fail fmt =
        Printf.ksprintf
          (fun m -> if !failure = None then failure := Some m)
          fmt
      in
      let _, status =
        boot (fun () ->
          u "mkdir" (Libc.Unistd.mkdir "/tmp/d" 0o755);
          let ino_of path = (u "lstat" (Libc.Unistd.lstat path)).Stat.st_ino in
          let dots =
            [ (".", ino_of "/tmp/d"); ("..", ino_of "/tmp") ]
          in
          let fd = u "open" (Libc.Unistd.open_ "/tmp/d" 0 0) in
          let entries = ref [] and offset = ref 0 in
          let listing () =
            List.sort compare
              (dots @ List.map (fun (n, (_, ino)) -> (n, ino)) !entries)
          in
          let path n = "/tmp/d/" ^ n in
          let namespace step =
            let got =
              match step with
              | D_create n ->
                Result.map Libc.Unistd.close
                  (Libc.Unistd.open_ (path n)
                     Flags.Open.(o_wronly lor o_creat lor o_excl) 0o644)
                |> Result.join
              | D_unlink n -> Libc.Unistd.unlink (path n)
              | D_rename (a, b) -> Libc.Unistd.rename ~src:(path a) (path b)
              | D_mkdir n -> Libc.Unistd.mkdir (path n) 0o755
              | D_rmdir n -> Libc.Unistd.rmdir (path n)
              | D_read _ | D_seek _ -> Ok ()
            in
            let ino =
              match step, got with
              | (D_create n | D_mkdir n), Ok () -> ino_of (path n)
              | _ -> 0
            in
            match got, model_step !entries ~ino step with
            | Ok (), Ok next -> entries := next
            | Error e, Error e' when e = e' -> ()
            | _ ->
              fail "%s: kernel and model disagree" (dir_step_to_string step)
          in
          List.iter
            (fun step ->
              match step with
              | D_seek off ->
                (match Libc.Unistd.lseek fd off Flags.Seek.set with
                 | Ok pos when pos = off -> offset := off
                 | _ -> fail "seek %d" off)
              | D_read size ->
                let buf = Bytes.make size '\000' in
                let got = Libc.Unistd.getdirentries fd buf in
                let want = model_read (listing ()) ~offset:!offset size in
                (match got, want with
                 | Ok (r0, r1), Ok (written, next, bytes) ->
                   if r0 <> written || r1 <> next then
                     fail "read %d: r0/r1 %d/%d, model %d/%d" size r0 r1
                       written next
                   else if Bytes.sub_string buf 0 r0 <> bytes then
                     fail "read %d: bytes differ" size;
                   offset := next
                 | Error e, Error e' when e = e' -> ()
                 | _ -> fail "read %d at %d: outcome differs" size !offset);
                let size_of_listing =
                  List.fold_left
                    (fun acc (name, ino) ->
                      acc
                      + Dirent.encode (Bytes.create 512) ~pos:0
                          { Dirent.d_ino = ino; d_name = name })
                    0 (listing ())
                in
                let st = u "fstat" (Libc.Unistd.fstat fd) in
                if st.Stat.st_size <> size_of_listing then
                  fail "st_size %d, records sum to %d" st.Stat.st_size
                    size_of_listing
              | _ -> namespace step)
            steps;
          ignore (Libc.Unistd.close fd);
          0)
      in
      ignore (exit_code status);
      match !failure with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* --- time ----------------------------------------------------------------------------------- *)

let test_settimeofday_root_only () =
  let _, status = boot (fun () ->
    (* boot runs as root: may set the time *)
    u "set" (Libc.Unistd.settimeofday ~sec:1_000_000_000 ~usec:0);
    let sec, _ = u "get" (Libc.Unistd.gettimeofday ()) in
    if abs (sec - 1_000_000_000) > 5 then 1
    else begin
      u "setuid" (Libc.Unistd.setuid 100);
      match Libc.Unistd.settimeofday ~sec:0 ~usec:0 with
      | Error Errno.EPERM -> 0
      | Error _ | Ok _ -> 2
    end)
  in
  check_exit "settimeofday" 0 status

(* fcntl(F_DUPFD): 4.3BSD rejects an [arg] outside the descriptor
   table with EINVAL (it used to be clamped to 0, or EMFILE at 64),
   a free [arg] is the descriptor returned, and a full table from
   [arg] up is EMFILE.  No failure leaves the file's references moved. *)
let test_fcntl_dupfd_range () =
  let got = ref [] in
  let _, status =
    boot (fun () ->
      let fd = u "open" (Libc.Unistd.open_ "/dev/null" Flags.Open.o_rdonly 0) in
      let refs () =
        match Kernel.Proc.fd (Kernel.Uspace.self ()) fd with
        | Some e -> e.Kernel.File.file.refs
        | None -> -1
      in
      let dupfd what arg =
        let before = refs () in
        let r = Libc.Unistd.fcntl fd Flags.Fcntl.f_dupfd arg in
        let moved = refs () - before in
        got := (what, r, moved) :: !got
      in
      dupfd "arg -1" (-1);
      dupfd "arg 64" 64;
      dupfd "arg 63 free" 63;
      dupfd "arg 63 taken" 63;
      0)
  in
  check_exit "F_DUPFD session" 0 status;
  let result = Alcotest.(result int (of_pp (fun ppf e ->
      Format.pp_print_string ppf (Errno.name e))))
  in
  List.iter2
    (fun (what, want, want_moved) (what', r, moved) ->
      Alcotest.(check string) "case" what what';
      Alcotest.check result what want r;
      Alcotest.(check int) (what ^ ": references moved") want_moved moved)
    [ ("arg -1", Error Errno.EINVAL, 0);
      ("arg 64", Error Errno.EINVAL, 0);
      ("arg 63 free", Ok 63, 1);
      ("arg 63 taken", Error Errno.EMFILE, 0) ]
    (List.rev !got)

let test_fionread () =
  let _, status = boot (fun () ->
    let r, w = u "pipe" (Libc.Unistd.pipe ()) in
    ignore (u "write" (Libc.Unistd.write w "12345"));
    let buf = Bytes.create 4 in
    ignore (u "ioctl" (Libc.Unistd.ioctl r Flags.Ioctl.fionread buf));
    if Int32.to_int (Bytes.get_int32_le buf 0) = 5 then 0 else 1)
  in
  check_exit "FIONREAD" 0 status

(* --- socketpair ----------------------------------------------------------------------------- *)

let test_socketpair_bidirectional () =
  let _, status = boot (fun () ->
    let a, b = u "socketpair" (Libc.Unistd.socketpair ()) in
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.close a);
           (* echo server: read a request, answer it *)
           let buf = Bytes.create 64 in
           let n =
             match Libc.Unistd.read b buf 64 with
             | Ok n -> n
             | Error _ -> 0
           in
           let request = Bytes.sub_string buf 0 n in
           ignore (Libc.Unistd.write_all b ("re:" ^ request));
           ignore (Libc.Unistd.close b);
           0))
    in
    ignore (Libc.Unistd.close b);
    ignore (u "send" (Libc.Unistd.write_all a "ping"));
    let buf = Bytes.create 64 in
    let n = u "recv" (Libc.Unistd.read a buf 64) in
    let reply = Bytes.sub_string buf 0 n in
    ignore (Libc.Unistd.close a);
    let _ = Libc.Unistd.waitpid pid 0 in
    if reply = "re:ping" then 0 else 1)
  in
  check_exit "echo over socketpair" 0 status

(* 100 idle pipes and 100 idle socketpairs, 300 ring buffers, held
   open by 10 parked children (the descriptor table has 64 slots).  A
   ring takes storage only for unread bytes, so an idle one costs the
   kernel only its bookkeeping (32 words), far below the 513 words of
   a preallocated 4 KB ring. *)
let test_idle_channels_footprint () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let words () = Obj.reachable_words (Obj.repr k) in
  let children = 10 and per_child = 10 in
  let buffers = children * per_child * 3 in
  let grown = ref 0 in
  let status = boot_k k (fun () ->
    let go_r, go_w = u "pipe go" (U.pipe ()) in
    let ready_r, ready_w = u "pipe ready" (U.pipe ()) in
    let hold_r, hold_w = u "pipe hold" (U.pipe ()) in
    let byte = Bytes.create 1 in
    let pids =
      List.init children (fun _ ->
        u "fork"
          (U.fork ~child:(fun () ->
             List.iter (fun fd -> u "close" (U.close fd))
               [ go_w; ready_r; hold_w ];
             ignore (u "go" (U.read go_r byte 1));
             for _ = 1 to per_child do
               ignore (u "pipe" (U.pipe ()));
               ignore (u "socketpair" (U.socketpair ()))
             done;
             ignore (u "ready" (U.write ready_w "r"));
             (* parked until the parent closes the hold pipe; exit
                closes every channel *)
             ignore (u "hold" (U.read hold_r byte 1));
             0)))
    in
    let before = words () in
    ignore (u "go" (U.write go_w (String.make children 'g')));
    for _ = 1 to children do ignore (u "ready" (U.read ready_r byte 1)) done;
    grown := words () - before;
    List.iter (fun fd -> u "close" (U.close fd))
      [ go_r; go_w; ready_r; ready_w; hold_r; hold_w ];
    List.iter (fun pid -> ignore (u "wait" (U.waitpid pid 0))) pids;
    0)
  in
  check_exit "idle channels" 0 status;
  let per_buffer = !grown / buffers in
  if per_buffer >= 64 then
    Alcotest.failf "%d idle ring buffers cost %d words each (bound 64)"
      buffers per_buffer

let test_socketpair_eof_and_epipe () =
  let _, status = boot (fun () ->
    let a, b = u "socketpair" (Libc.Unistd.socketpair ()) in
    ignore (Libc.Unistd.close b);
    (* peer gone: reads see EOF, writes see EPIPE *)
    let buf = Bytes.create 4 in
    (match Libc.Unistd.read a buf 4 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    ignore (Libc.Unistd.signal Signal.sigpipe Value.H_ignore);
    match Libc.Unistd.write a "x" with
    | Error Errno.EPIPE -> 0
    | Error _ | Ok _ -> 2)
  in
  check_exit "socket EOF/EPIPE" 0 status

let test_socketpair_stat_kind () =
  let _, status = boot (fun () ->
    let a, _b = u "socketpair" (Libc.Unistd.socketpair ()) in
    let st = u "fstat" (Libc.Unistd.fstat a) in
    if Flags.Mode.is_sock st.Stat.st_mode then 0 else 1)
  in
  check_exit "S_IFSOCK" 0 status

(* --- getrusage ------------------------------------------------------------------------------- *)

let test_getrusage_accounts_time () =
  let _, status = boot (fun () ->
    let u1, s1 = u "ru1" (Libc.Unistd.getrusage ()) in
    Libc.Unistd.cpu_work 5_000;
    ignore (Libc.Unistd.getpid ());
    ignore (Libc.Unistd.getpid ());
    let u2, s2 = u "ru2" (Libc.Unistd.getrusage ()) in
    (* 5ms of user time charged; two getpids (25us each) + the first
       getrusage (60us) of system time *)
    if u2 - u1 = 5_000 && s2 - s1 >= 110 then 0 else 1)
  in
  check_exit "rusage deltas" 0 status

let test_getrusage_per_process () =
  let _, status = boot (fun () ->
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           Libc.Unistd.cpu_work 1_000;
           let ut, _ = u "child ru" (Libc.Unistd.getrusage ()) in
           if ut = 1_000 then 0 else 1))
    in
    let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
    let ut, _ = u "parent ru" (Libc.Unistd.getrusage ()) in
    (* the child's user time is not the parent's *)
    if Flags.Wait.wexitstatus st = 0 && ut = 0 then 0 else 1)
  in
  check_exit "per-process accounting" 0 status

(* --- device nodes -------------------------------------------------------------------------- *)

let test_dev_null_and_zero () =
  let _, status = boot (fun () ->
    let null = u "open null" (Libc.Unistd.open_ "/dev/null" Flags.Open.o_rdwr 0) in
    (match Libc.Unistd.write null "discarded" with
     | Ok 9 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    let buf = Bytes.make 4 'x' in
    (match Libc.Unistd.read null buf 4 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 2);
    let zero = u "open zero" (Libc.Unistd.open_ "/dev/zero" Flags.Open.o_rdonly 0) in
    (match Libc.Unistd.read zero buf 4 with
     | Ok 4 when Bytes.to_string buf = "\000\000\000\000" -> 0
     | Ok _ | Error _ -> 3))
  in
  check_exit "null + zero" 0 status

let test_dev_stat_kind () =
  let _, status = boot (fun () ->
    let st = u "stat" (Libc.Unistd.stat "/dev/null") in
    if Flags.Mode.is_chr st.Stat.st_mode then 0 else 1)
  in
  check_exit "chardev kind" 0 status

(* --- select ------------------------------------------------------------------------------------ *)

let test_select_poll_and_ready () =
  let _, status = boot (fun () ->
    let r, w = u "pipe" (Libc.Unistd.pipe ()) in
    (* empty pipe: a poll (timeout 0) reports nothing ready *)
    (match Libc.Unistd.select ~read:[ r ] ~timeout_us:0 () with
     | Ok ([], []) -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    (* the write side of an empty pipe is ready *)
    (match Libc.Unistd.select ~write:[ w ] ~timeout_us:0 () with
     | Ok ([], [ fd ]) when fd = w -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 2);
    ignore (u "write" (Libc.Unistd.write w "x"));
    match Libc.Unistd.select ~read:[ r ] ~timeout_us:0 () with
    | Ok ([ fd ], []) when fd = r -> 0
    | Ok _ | Error _ -> 3)
  in
  check_exit "poll semantics" 0 status

let test_select_blocks_until_data () =
  let _, status = boot (fun () ->
    let r, w = u "pipe" (Libc.Unistd.pipe ()) in
    let _ =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.close r);
           ignore (Libc.Unistd.sleep_us 500_000);
           ignore (Libc.Unistd.write_all w "late data");
           0))
    in
    ignore (Libc.Unistd.close w);
    let t0, _ = u "t0" (Libc.Unistd.gettimeofday ()) in
    (match Libc.Unistd.select ~read:[ r ] () with
     | Ok ([ fd ], []) when fd = r -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    let buf = Bytes.create 16 in
    let n = u "read" (Libc.Unistd.read r buf 16) in
    let _ = Libc.Unistd.wait () in
    ignore t0;
    if Bytes.sub_string buf 0 n = "late data" then 0 else 2)
  in
  check_exit "blocking select" 0 status

let test_select_timeout_expires () =
  let k, status = boot (fun () ->
    let r, _w = u "pipe" (Libc.Unistd.pipe ()) in
    match Libc.Unistd.select ~read:[ r ] ~timeout_us:2_000_000 () with
    | Ok ([], []) -> 0
    | Ok _ | Error _ -> 1)
  in
  check_exit "timeout returns empty" 0 status;
  Alcotest.(check bool) "waited ~2 virtual seconds" true
    (Kernel.elapsed_seconds k >= 2.0)

let test_select_multiplexes_two_children () =
  (* the reason select exists: one parent watching two pipes *)
  let _, status = boot (fun () ->
    let mk_child delay_us tag =
      let r, w = u "pipe" (Libc.Unistd.pipe ()) in
      let _ =
        u "fork"
          (Libc.Unistd.fork ~child:(fun () ->
             ignore (Libc.Unistd.close r);
             ignore (Libc.Unistd.sleep_us delay_us);
             ignore (Libc.Unistd.write_all w tag);
             0))
      in
      ignore (Libc.Unistd.close w);
      r
    in
    let slow = mk_child 3_000_000 "slow" in
    let fast = mk_child 1_000_000 "fast" in
    let read_tag fd =
      let buf = Bytes.create 8 in
      match Libc.Unistd.read fd buf 8 with
      | Ok n -> Bytes.sub_string buf 0 n
      | Error _ -> "?"
    in
    (* first wake must be the fast child *)
    let first =
      match Libc.Unistd.select ~read:[ slow; fast ] () with
      | Ok ([ fd ], []) -> read_tag fd
      | Ok _ | Error _ -> "?"
    in
    (* the fast pipe is exhausted (and soon EOF-readable), so a real
       multiplexer drops it from the watch set *)
    let second =
      match Libc.Unistd.select ~read:[ slow ] () with
      | Ok ([ fd ], []) -> read_tag fd
      | Ok _ | Error _ -> "?"
    in
    let _ = Libc.Unistd.wait () in
    let _ = Libc.Unistd.wait () in
    if first = "fast" && second = "slow" then 0 else 1)
  in
  check_exit "multiplexing order" 0 status

let test_select_bad_fd () =
  let _, status = boot (fun () ->
    match Libc.Unistd.select ~read:[ 55 ] ~timeout_us:0 () with
    | Error Errno.EBADF -> 0
    | Error _ | Ok _ -> 1)
  in
  check_exit "EBADF" 0 status

(* --- scheduler stress -------------------------------------------------------------------------- *)

let test_many_children () =
  let _, status = boot (fun () ->
    let n = 100 in
    let pids =
      List.init n (fun i ->
        u "fork" (Libc.Unistd.fork ~child:(fun () -> i mod 8)))
    in
    let sum =
      List.fold_left
        (fun acc pid ->
          let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
          acc + Flags.Wait.wexitstatus st)
        0 pids
    in
    (* 100 children each exiting (i mod 8): 12 full cycles of 0+..+7
       plus 0+1+2+3 *)
    if sum = (12 * 28) + 6 then 0 else 1)
  in
  check_exit "100 children reaped" 0 status

let test_pipeline_chain_of_processes () =
  (* a 30-stage bucket brigade: each process increments a number and
     passes it down a chain of pipes *)
  let _, status = boot (fun () ->
    let stages = 30 in
    let first_r, first_w = u "pipe" (Libc.Unistd.pipe ()) in
    let rec build prev_r n =
      if n = 0 then prev_r
      else begin
        let r, w = u "pipe" (Libc.Unistd.pipe ()) in
        let _ =
          u "fork"
            (Libc.Unistd.fork ~child:(fun () ->
               ignore (Libc.Unistd.close r);
               let buf = Bytes.create 16 in
               let got =
                 match Libc.Unistd.read prev_r buf 16 with
                 | Ok k -> Bytes.sub_string buf 0 k
                 | Error _ -> "0"
               in
               let v = int_of_string (String.trim got) + 1 in
               ignore (Libc.Unistd.write_all w (string_of_int v ^ "\n"));
               ignore (Libc.Unistd.close w);
               0))
        in
        ignore (Libc.Unistd.close prev_r);
        ignore (Libc.Unistd.close w);
        build r (n - 1)
      end
    in
    let last_r = build first_r stages in
    ignore (u "seed" (Libc.Unistd.write_all first_w "0\n"));
    ignore (Libc.Unistd.close first_w);
    let buf = Bytes.create 16 in
    let k = u "read" (Libc.Unistd.read last_r buf 16) in
    let final = int_of_string (String.trim (Bytes.sub_string buf 0 k)) in
    for _ = 1 to stages do
      ignore (Libc.Unistd.wait ())
    done;
    if final = stages then 0 else 1)
  in
  check_exit "30-stage brigade" 0 status

let test_deep_fork_chain () =
  (* each process forks the next; depth 40; exit codes propagate back *)
  let _, status = boot (fun () ->
    let rec descend depth =
      if depth = 0 then 7
      else begin
        match Libc.Unistd.fork ~child:(fun () -> descend (depth - 1)) with
        | Ok pid ->
          (match Libc.Unistd.waitpid pid 0 with
           | Ok (_, st) -> Flags.Wait.wexitstatus st
           | Error _ -> 99)
        | Error _ -> 98
      end
    in
    descend 40)
  in
  check_exit "depth-40 chain" 7 status

(* --- cross-process pipe property ----------------------------------------------------------- *)

let test_pipe_preserves_stream =
  QCheck.Test.make ~name:"pipe preserves the byte stream across fork"
    ~count:25
    QCheck.(list_of_size Gen.(1 -- 12)
              (make Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 600))))
    (fun chunks ->
      let expected = String.concat "" chunks in
      let k = Tharness.fresh_kernel () in
      let got = ref "" in
      let status =
        Tharness.boot_k k (fun () ->
          let r, w = u "pipe" (Libc.Unistd.pipe ()) in
          let _ =
            u "fork"
              (Libc.Unistd.fork ~child:(fun () ->
                 ignore (Libc.Unistd.close r);
                 List.iter
                   (fun chunk -> ignore (Libc.Unistd.write_all w chunk))
                   chunks;
                 ignore (Libc.Unistd.close w);
                 0))
          in
          ignore (Libc.Unistd.close w);
          got := u "read_all" (Libc.Unistd.read_all r);
          ignore (Libc.Unistd.close r);
          let _ = Libc.Unistd.wait () in
          0)
      in
      Flags.Wait.wexitstatus status = 0 && !got = expected)

let test_sock_bidirectional_streams =
  QCheck.Test.make ~name:"socketpair carries both directions intact"
    ~count:20
    QCheck.(pair
              (make Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 2000)))
              (make Gen.(string_size ~gen:(char_range 'A' 'Z') (1 -- 2000))))
    (fun (ping, pong) ->
      let k = Tharness.fresh_kernel () in
      let got = ref "" in
      let status =
        Tharness.boot_k k (fun () ->
          let a, b = u "socketpair" (Libc.Unistd.socketpair ()) in
          let _ =
            u "fork"
              (Libc.Unistd.fork ~child:(fun () ->
                 ignore (Libc.Unistd.close a);
                 (* read the full ping, then answer *)
                 let buf = Bytes.create 256 in
                 let received = Buffer.create 64 in
                 let rec slurp () =
                   if Buffer.length received < String.length ping then begin
                     match Libc.Unistd.read b buf 256 with
                     | Ok n when n > 0 ->
                       Buffer.add_subbytes received buf 0 n;
                       slurp ()
                     | Ok _ | Error _ -> ()
                   end
                 in
                 slurp ();
                 if Buffer.contents received = ping then
                   ignore (Libc.Unistd.write_all b pong);
                 ignore (Libc.Unistd.close b);
                 0))
          in
          ignore (Libc.Unistd.close b);
          ignore (Libc.Unistd.write_all a ping);
          got := u "read_all" (Libc.Unistd.read_all a);
          ignore (Libc.Unistd.close a);
          let _ = Libc.Unistd.wait () in
          0)
      in
      Flags.Wait.wexitstatus status = 0 && !got = pong)

(* --- stream sockets: the bound/listening surface (DESIGN.md 3.10) ------- *)

(* establish a connected pair through the rendezvous machinery inside a
   single process: while the accept queue has room, connect succeeds
   immediately and accept adopts the queued peer *)
let conn_pair name =
  let lfd = u "socket(l)" (Libc.Unistd.socket ()) in
  u "bind" (Libc.Unistd.bind lfd name);
  u "listen" (Libc.Unistd.listen lfd 4);
  let c = u "socket(c)" (Libc.Unistd.socket ()) in
  u "connect" (Libc.Unistd.connect c name);
  let s = u "accept" (Libc.Unistd.accept lfd) in
  u "close(l)" (Libc.Unistd.close lfd);
  (c, s)

let test_bind_address_lifecycle () =
  let _, status = boot (fun () ->
    let a = u "socket" (Libc.Unistd.socket ()) in
    (match Libc.Unistd.bind a "" with
     | Error Errno.EINVAL -> ()
     | Ok () | Error _ -> Libc.Unistd._exit 1);
    u "bind" (Libc.Unistd.bind a "svc");
    let b = u "socket2" (Libc.Unistd.socket ()) in
    (match Libc.Unistd.bind b "svc" with
     | Error Errno.EADDRINUSE -> ()
     | Ok () | Error _ -> Libc.Unistd._exit 2);
    (* the name dies with its socket: close, and the address is free *)
    u "close(a)" (Libc.Unistd.close a);
    u "rebind" (Libc.Unistd.bind b "svc");
    u "close(b)" (Libc.Unistd.close b);
    0)
  in
  check_exit "EADDRINUSE then released" 0 status

let test_connect_refused () =
  let _, status = boot (fun () ->
    let c = u "socket" (Libc.Unistd.socket ()) in
    (match Libc.Unistd.connect c "nobody-home" with
     | Error Errno.ECONNREFUSED -> ()
     | Ok () | Error _ -> Libc.Unistd._exit 1);
    (* bound but never listening refuses just like an absent name *)
    let s = u "socket(b)" (Libc.Unistd.socket ()) in
    u "bind" (Libc.Unistd.bind s "deaf");
    (match Libc.Unistd.connect c "deaf" with
     | Error Errno.ECONNREFUSED -> ()
     | Ok () | Error _ -> Libc.Unistd._exit 2);
    u "close(s)" (Libc.Unistd.close s);
    u "close(c)" (Libc.Unistd.close c);
    0)
  in
  check_exit "ECONNREFUSED" 0 status

let test_shutdown_directions () =
  let _, status = boot (fun () ->
    let c, s = conn_pair "shut.svc" in
    ignore (Libc.Unistd.signal Signal.sigpipe Value.H_ignore);
    u "send" (Libc.Unistd.send_all s "tail");
    u "shutdown(wr)" (Libc.Unistd.shutdown s Flags.Shut.wr);
    (* bytes queued before the shutdown arrive ahead of the EOF *)
    let buf = Bytes.create 8 in
    (match Libc.Unistd.recv c buf 8 with
     | Ok 4 when Bytes.sub_string buf 0 4 = "tail" -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    (match Libc.Unistd.recv c buf 8 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 2);
    (* the closed direction refuses writes; the other still flows *)
    (match Libc.Unistd.send s "x" with
     | Error Errno.EPIPE -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 3);
    u "send(back)" (Libc.Unistd.send_all c "up");
    (match Libc.Unistd.recv s buf 8 with
     | Ok 2 when Bytes.sub_string buf 0 2 = "up" -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 4);
    (* shutting down our own read side is an immediate local EOF *)
    u "shutdown(rd)" (Libc.Unistd.shutdown c Flags.Shut.rd);
    (match Libc.Unistd.recv c buf 8 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 5);
    u "close(c)" (Libc.Unistd.close c);
    u "close(s)" (Libc.Unistd.close s);
    0)
  in
  check_exit "shutdown semantics" 0 status

let test_send_sigpipe_and_epipe () =
  let _, status = boot (fun () ->
    let c, s = conn_pair "pipe.svc" in
    u "close(s)" (Libc.Unistd.close s);
    (* default disposition: sending to a dead peer kills the sender *)
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.send c "x");
           0))
    in
    let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
    if not (Flags.Wait.wifsignaled st
            && Flags.Wait.wtermsig st = Signal.sigpipe)
    then 1
    else begin
      ignore (Libc.Unistd.signal Signal.sigpipe Value.H_ignore);
      match Libc.Unistd.send c "x" with
      | Error Errno.EPIPE -> u "close(c)" (Libc.Unistd.close c); 0
      | Ok _ -> 2
      | Error _ -> 3
    end)
  in
  check_exit "SIGPIPE then EPIPE" 0 status

let test_recv_drains_before_eof () =
  let _, status = boot (fun () ->
    let c, s = conn_pair "drain.svc" in
    u "send" (Libc.Unistd.send_all s "hello");
    (* a zero-length recv is a no-op, never an EOF claim *)
    let buf = Bytes.create 8 in
    (match Libc.Unistd.recv c buf 0 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    u "close(s)" (Libc.Unistd.close s);
    (* bytes in flight when the peer closed arrive before the EOF *)
    (match Libc.Unistd.recv c buf 8 with
     | Ok 5 when Bytes.sub_string buf 0 5 = "hello" -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 2);
    (match Libc.Unistd.recv c buf 8 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 3);
    u "close(c)" (Libc.Unistd.close c);
    0)
  in
  check_exit "drain then EOF" 0 status

let test_sock_not_connected_errors () =
  let _, status = boot (fun () ->
    let s = u "socket" (Libc.Unistd.socket ()) in
    let buf = Bytes.create 4 in
    (match Libc.Unistd.recv s buf 4 with
     | Error Errno.ENOTCONN -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    (match Libc.Unistd.send s "x" with
     | Error Errno.ENOTCONN -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 2);
    (match Libc.Unistd.accept s with
     | Error Errno.EINVAL -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 3);
    (* socket calls on a plain file are ENOTSOCK across the board *)
    let fd = u "open" (Libc.Unistd.open_ "/tmp/plain"
                         Flags.Open.(o_wronly lor o_creat) 0o644) in
    (match Libc.Unistd.send fd "x" with
     | Error Errno.ENOTSOCK -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 4);
    u "close(fd)" (Libc.Unistd.close fd);
    u "close(s)" (Libc.Unistd.close s);
    0)
  in
  check_exit "ENOTCONN/ENOTSOCK" 0 status

let test_sock_cloexec_across_exec () =
  let k = fresh_kernel () in
  Kernel.register_image k "sockprobe" (fun ~argv ~envp:_ () ->
    (* argv.(1) carried close-on-exec and must be gone; argv.(2) is a
       connected socket with a byte already queued *)
    let closed = int_of_string argv.(1) in
    let still = int_of_string argv.(2) in
    let buf = Bytes.create 4 in
    let closed_gone =
      match Libc.Unistd.recv closed buf 4 with
      | Error Errno.EBADF -> true
      | Error _ | Ok _ -> false
    in
    let alive =
      match Libc.Unistd.recv still buf 4 with
      | Ok 1 when Bytes.get buf 0 = 'x' -> true
      | Ok _ | Error _ -> false
    in
    if closed_gone && alive then 0 else 1);
  Kernel.install_image k ~path:"/bin/sockprobe" ~image:"sockprobe";
  let status =
    boot_k k (fun () ->
      let c, s = conn_pair "exec.svc" in
      u "send" (Libc.Unistd.send_all s "x");
      u "cloexec" (Libc.Unistd.set_cloexec s true);
      match
        Libc.Unistd.execv "/bin/sockprobe"
          [| "sockprobe"; string_of_int s; string_of_int c |]
      with
      | Error _ -> 99
      | Ok _ -> assert false)
  in
  check_exit "socket cloexec honoured" 0 status

(* --- pipe EOF ordering and zero-length reads ----------------------------- *)

let test_pipe_drain_then_eof () =
  let _, status = boot (fun () ->
    let r, w = u "pipe" (Libc.Unistd.pipe ()) in
    (* a zero-length read with a live writer returns 0 immediately
       without meaning EOF — it must neither block nor consume *)
    let buf = Bytes.create 8 in
    (match Libc.Unistd.read r buf 0 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 1);
    u "write" (Libc.Unistd.write_all w "abc");
    (match Libc.Unistd.read r buf 0 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 2);
    u "close(w)" (Libc.Unistd.close w);
    (* bytes buffered when the writer closed arrive before the EOF *)
    (match Libc.Unistd.read r buf 8 with
     | Ok 3 when Bytes.sub_string buf 0 3 = "abc" -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 3);
    (match Libc.Unistd.read r buf 8 with
     | Ok 0 -> ()
     | Ok _ | Error _ -> Libc.Unistd._exit 4);
    u "close(r)" (Libc.Unistd.close r);
    0)
  in
  check_exit "bytes before EOF" 0 status

(* --- direct kernel entry ------------------------------------------------------ *)

(* A trap returns on the calling fibre only when the scheduler would
   have resumed it next anyway; these pin the scheduling decisions that
   must come out exactly as when every trap went through the run
   queue. *)

let test_getpid_loops_interleave () =
  let log = ref [] in
  let spin () =
    for _ = 1 to 4 do
      let pid = Libc.Unistd.getpid () in
      log := pid :: !log
    done
  in
  let _, status = boot (fun () ->
    let pid =
      u "fork" (Libc.Unistd.fork ~child:(fun () -> spin (); 0))
    in
    spin ();
    ignore (u "wait" (Libc.Unistd.waitpid pid 0));
    0)
  in
  check_exit "session" 0 status;
  (* the child runs first; from then on each trap is a turn *)
  Alcotest.(check (list int)) "one trap per turn" [ 2; 1; 2; 1; 2; 1; 2; 1 ]
    (List.rev !log)

let test_alarm_due_inside_a_charge () =
  let k = fresh_kernel () in
  let now () = Sim.Clock.now_us (Kernel.clock k) in
  let due = ref 0 in
  let completed = ref 0 in
  let clocks = ref [] in
  let seen_at = ref (-1) in
  let status =
    boot_k k (fun () ->
      ignore
        (u "signal"
           (Libc.Unistd.signal Signal.sigalrm
              (Value.H_fn (fun _ -> seen_at := !completed))));
      ignore (u "alarm" (Libc.Unistd.alarm 1));
      due := now () + 1_000_000;
      (* off the getpid grid, so the deadline lands mid-charge *)
      Kernel.Uspace.cpu_work 7;
      (* bounded: a lost signal must fail the test, not hang it *)
      while !seen_at < 0 && !completed < 100_000 do
        ignore (Libc.Unistd.getpid ());
        incr completed;
        clocks := now () :: !clocks
      done;
      0)
  in
  check_exit "session" 0 status;
  (* trap [c] is the one whose charge carries the clock past the
     deadline: the timer fires at the scheduling point after it, and
     the handler runs on the way out of the next trap *)
  let clocks = Array.of_list (List.rev !clocks) in
  let c = ref 1 in
  while clocks.(!c - 1) < !due do incr c done;
  let before = if !c >= 2 then clocks.(!c - 2) else 0 in
  Alcotest.(check bool) "deadline falls inside trap c's charge" true
    (before < !due && !due < clocks.(!c - 1));
  Alcotest.(check int) "delivered on the way out of trap c + 1" !c !seen_at;
  Alcotest.(check int) "no trap after the delivering one" (!c + 1)
    (Array.length clocks)

let test_kill_self_ends_at_same_count () =
  let k = fresh_kernel () in
  let status =
    boot_k k (fun () ->
      for _ = 1 to 3 do ignore (Libc.Unistd.getpid ()) done;
      ignore (Libc.Unistd.kill (Libc.Unistd.getpid ()) Signal.sigterm);
      for _ = 1 to 3 do ignore (Libc.Unistd.getpid ()) done;
      0)
  in
  Alcotest.(check bool) "killed by SIGTERM" true
    (Flags.Wait.wifsignaled status
     && Flags.Wait.wtermsig status = Signal.sigterm);
  (* three getpids, the getpid for kill's argument, and the kill *)
  Alcotest.(check int) "syscalls made" 5 (Kernel.total_syscalls k)

let test_kill_from_peer_at_next_entry () =
  let child_done = ref 0 in
  let _, status = boot (fun () ->
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           for _ = 1 to 10 do
             ignore (Libc.Unistd.getpid ());
             incr child_done
           done;
           0))
    in
    u "kill" (Libc.Unistd.kill pid Signal.sigterm);
    let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigterm
    then 0
    else 1)
  in
  check_exit "child killed" 0 status;
  (* the child's first getpid was already answered when the signal
     arrived; its second trap is the boundary that ends it *)
  Alcotest.(check int) "getpids completed by the child" 1 !child_done

let test_fork_child_runs_first () =
  let log = ref [] in
  let _, status = boot (fun () ->
    let pid =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () -> log := "child" :: !log; 0))
    in
    log := "parent" :: !log;
    ignore (u "wait" (Libc.Unistd.waitpid pid 0));
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (list string)) "child before parent" [ "child"; "parent" ]
    (List.rev !log)

exception Hook_failed

let test_kernel_code_sees_no_process () =
  let k = fresh_kernel () in
  let hooked = ref 0 in
  let with_process = ref 0 in
  Kernel.set_trace_hook k
    (Some
       (fun _ _ _ ->
         incr hooked;
         if Option.is_some (Kernel.Uspace.current_proc ()) then
           incr with_process));
  let status =
    boot_k k (fun () ->
      for _ = 1 to 5 do ignore (Libc.Unistd.getpid ()) done;
      0)
  in
  check_exit "session" 0 status;
  Alcotest.(check bool) "hook ran" true (!hooked >= 5);
  Alcotest.(check int) "hook calls with a current process" 0 !with_process

let test_current_restored_after_raise () =
  let k = fresh_kernel () in
  Kernel.set_trace_hook k
    (Some
       (fun _ call _ ->
         match call with
         | Call.Getppid -> raise Hook_failed
         | _ -> ()));
  let status =
    boot_k k (fun () ->
      let me = Libc.Unistd.getpid () in
      match Libc.Unistd.getppid () with
      | _ -> 1
      | exception Hook_failed ->
        (match Kernel.Uspace.current_proc () with
         | Some p when p.Kernel.Proc.pid = me ->
           (* and the process carries on trapping normally *)
           if Libc.Unistd.getpid () = me then 0 else 3
         | Some _ | None -> 2))
  in
  check_exit "current process restored" 0 status

(* --- process tree: wait4 against a table scan ------------------------------------------------ *)

module Proc = Kernel.Proc
module Kstate = Kernel.Kstate

(* wait4's choice as the kernel made it before each process indexed
   its children: scan the whole table for the caller's unreaped
   children, sort them by pid, take the first matching zombie, else
   under WUNTRACED the first matching stopped child. *)
let reference_wait4 (k : Kernel.t) (p : Proc.t) pid options =
  let kids =
    Hashtbl.fold
      (fun _ (c : Proc.t) acc ->
        if c.ppid = p.pid && c.state <> Proc.Reaped then c :: acc else acc)
      k.Kstate.procs []
    |> List.sort (fun (a : Proc.t) b -> compare a.pid b.pid)
  in
  let matches (c : Proc.t) =
    if pid > 0 then c.pid = pid
    else if pid = 0 then c.pgrp = p.pgrp
    else if pid = -1 then true
    else c.pgrp = -pid
  in
  let stopped (c : Proc.t) =
    match c.state with Proc.Stopped -> true | _ -> false
  in
  match List.filter matches kids with
  | [] -> `Done (Error Errno.ECHILD)
  | candidates ->
    (match
       List.find_opt (fun (c : Proc.t) -> c.state = Proc.Zombie) candidates
     with
     | Some z -> `Done (Value.ret z.pid ~r1:z.exit_status)
     | None ->
       (match
          if options land Flags.Wait.wuntraced <> 0 then
            List.find_opt stopped candidates
          else None
        with
        | Some s ->
          `Done (Value.ret s.pid ~r1:(Flags.Wait.stop_status Signal.sigstop))
        | None ->
          if options land Flags.Wait.wnohang <> 0 then `Done (Value.ret 0)
          else `Block))

type tree_step =
  | Fork of int               (* the i-th runnable process forks *)
  | Exit of int * int         (* the i-th live process exits with a code *)
  | Setpgrp of int * int      (* the i-th runnable process joins a group *)
  | Stop of int               (* the i-th runnable process is stopped *)
  | Exit_init of int          (* init exits, orphaning its children *)
  | Wait of int * int * int   (* the i-th runnable process: wait4 pid options *)

let tree_step_to_string = function
  | Fork i -> Printf.sprintf "fork %d" i
  | Exit (i, c) -> Printf.sprintf "exit %d %d" i c
  | Setpgrp (i, g) -> Printf.sprintf "setpgrp %d %d" i g
  | Stop i -> Printf.sprintf "stop %d" i
  | Exit_init c -> Printf.sprintf "exit-init %d" c
  | Wait (i, pid, o) -> Printf.sprintf "wait %d %d 0x%x" i pid o

let tree_steps =
  let open QCheck.Gen in
  let i = 0 -- 15 in
  let selector =
    oneof [ 1 -- 24; return 0; return (-1); map (fun g -> -g) (2 -- 4) ]
  in
  let options =
    oneofl
      Flags.Wait.[ 0; wnohang; wuntraced; wnohang lor wuntraced ]
  in
  let step =
    frequency
      [ (5, map (fun i -> Fork i) i);
        (3, map2 (fun i c -> Exit (i, c)) i (0 -- 3));
        (1, map2 (fun i g -> Setpgrp (i, g)) i (1 -- 4));
        (1, map (fun i -> Stop i) i);
        (1, map (fun c -> Exit_init c) (0 -- 3));
        (6, map3 (fun i pid o -> Wait (i, pid, o)) i selector options) ]
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map tree_step_to_string l))
    (list_size (1 -- 40) step)

type _ Effect.t += Stop_here : unit Effect.t

(* A suspended fibre, standing in for the trap a stopped process is
   held at. *)
let stopped_fibre () =
  let saved : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with
    (fun () -> Effect.perform Stop_here)
    ()
    { retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Stop_here ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) -> saved := Some k)
          | _ -> None) };
  Option.get !saved

(* Every process in the table is unreaped, and its [kids] index holds
   exactly the table's processes naming it as parent. *)
let check_child_index (k : Kernel.t) =
  Hashtbl.iter
    (fun pid (p : Proc.t) ->
      if p.state = Proc.Reaped then
        QCheck.Test.fail_reportf "pid %d: reaped but still in the table" pid;
      let want =
        Hashtbl.fold
          (fun _ (q : Proc.t) acc -> if q.ppid = pid then q.pid :: acc else acc)
          k.Kstate.procs []
        |> List.sort compare
      in
      let got = List.map fst (Proc.Kids.bindings p.kids) in
      if got <> want then
        QCheck.Test.fail_reportf "pid %d: kids [%s], table children [%s]" pid
          (String.concat " " (List.map string_of_int got))
          (String.concat " " (List.map string_of_int want));
      Proc.Kids.iter
        (fun cpid c ->
          match Kstate.proc k cpid with
          | Some q when q == c -> ()
          | _ ->
            QCheck.Test.fail_reportf "pid %d: kid %d is not the table's process"
              pid cpid)
        p.kids)
    k.Kstate.procs

(* The steps drive the kernel's own fork/exit/setpgrp/wait4 handlers
   directly, with no scheduler: a forked child's fibre is queued but
   never run, so the tree changes only through the steps. *)
let test_wait4_matches_table_scan =
  QCheck.Test.make ~name:"wait4 picks what a table scan picks" ~count:200
    tree_steps
    (fun steps ->
      let k = fresh_kernel () in
      let init =
        Proc.create ~pid:(Kstate.alloc_pid k) ~ppid:0 ~pgrp:1 ~name:"init"
          ~cred:Vfs.Fs.root_cred ~cwd:(Vfs.Fs.root_ino (Kernel.fs k))
      in
      Kstate.add_proc k init;
      let pick pred i =
        let ps =
          Hashtbl.fold
            (fun _ (p : Proc.t) acc -> if pred p then p :: acc else acc)
            k.Kstate.procs []
          |> List.sort (fun (a : Proc.t) b -> compare a.pid b.pid)
        in
        match ps with [] -> None | _ -> Some (List.nth ps (i mod List.length ps))
      in
      let runnable (p : Proc.t) =
        match p.state with Proc.Runnable -> true | _ -> false
      in
      let live (p : Proc.t) =
        match p.state with Proc.Runnable | Proc.Stopped -> true | _ -> false
      in
      let call p c = Kernel.Syscalls.dispatch k p c in
      List.iter
        (fun step ->
          (match step with
           | Fork i ->
             Option.iter
               (fun p -> ignore (call p (Call.Fork (fun () -> 0))))
               (pick runnable i)
           | Exit (i, code) ->
             Option.iter (fun p -> ignore (call p (Call.Exit code))) (pick live i)
           | Setpgrp (i, g) ->
             Option.iter
               (fun p -> ignore (call p (Call.Setpgrp (0, g))))
               (pick runnable i)
           | Stop i ->
             Option.iter
               (fun (p : Proc.t) ->
                 p.fibre <- stopped_fibre ();
                 p.state <- Proc.Stopped)
               (pick runnable i)
           | Exit_init code ->
             if live init then ignore (call init (Call.Exit code))
           | Wait (i, pid, options) ->
             Option.iter
               (fun (p : Proc.t) ->
                 let want = reference_wait4 k p pid options in
                 let got =
                   match call p (Call.Wait4 (pid, options)) with
                   | Kstate.Done res -> `Done res
                   | Kstate.Block _ -> `Block
                   | Kstate.Exited | Kstate.Exec _ ->
                     QCheck.Test.fail_reportf "wait4 left the caller"
                 in
                 if got <> want then
                   QCheck.Test.fail_reportf "pid %d: wait4 %d 0x%x differs" p.pid
                     pid options)
               (pick runnable i));
          check_child_index k)
        steps;
      true)

(* --- shared kernel results ------------------------------------------------------------ *)

(* [done_ret] hands the commonest successes out as shared outcomes;
   each must equal the fresh [Done (Value.ret ?r1 v)] it replaces,
   inside the shared range (r1 = 0, 0 <= v < fd_table_size) and outside
   it, negatives included, and inside it two calls must return the one
   shared value.  [Kstate.fail] shares every failure the same way:
   each errno (2000 draws from 42 reach them all) has one value, equal
   to a fresh [Done (Error e)]. *)
let all_errnos = List.filter_map Errno.of_int (List.init 128 Fun.id)

let test_done_ret_shared =
  let gen =
    QCheck.(
      triple
        (option (int_range (-3) 3))
        (oneof [ int_range (-70) 70; int ])
        (oneofl all_errnos))
  in
  QCheck.Test.make ~name:"done_ret equals a fresh Done" ~count:2000 gen
    (fun (r1, v, e) ->
      let got = Kernel.Syscalls.done_ret ?r1 v in
      got = Kstate.Done (Value.ret ?r1 v)
      && (not
            ((r1 = None || r1 = Some 0) && v >= 0 && v < Proc.fd_table_size)
          || got == Kernel.Syscalls.done_ret v)
      && Kstate.fail e = Kstate.Done (Error e)
      && Kstate.fail e == Kstate.fail e)

(* A crossing is one agent-style call ([htg_syscall]) from the
   envelope pool to the kernel and back.  With obs off and the pool
   warm, none of these allocates: the envelope holds its call in a
   field, a descriptor lookup matches the table's own entry, and the
   outcome (a small success or a failure) is shared. *)
let test_crossing_words () =
  let words = ref [] in
  let _, status =
    boot (fun () ->
      let htg = Kernel.Uspace.htg_syscall in
      let fd =
        match htg (Call.Open ("/dev/null", Flags.Open.o_rdwr, 0)) with
        | Ok r -> r.Value.r0
        | Error e -> Alcotest.failf "open /dev/null: %s" (Errno.name e)
      in
      let closed = 40 in
      let measure name c =
        for _ = 1 to 10 do ignore (Sys.opaque_identity (htg c)) done;
        let n = 1000 in
        let m0 = Gc.minor_words () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (htg c))
        done;
        words := (name, (Gc.minor_words () -. m0) /. float_of_int n) :: !words
      in
      measure "getpid" Call.Getpid;
      measure "write 20 bytes to /dev/null"
        (Call.Write (fd, String.make 20 'x'));
      measure "lseek to 0" (Call.Lseek (fd, 0, Flags.Seek.set));
      measure "fcntl F_GETFD, open" (Call.Fcntl (fd, Flags.Fcntl.f_getfd, 0));
      measure "fcntl F_GETFD, closed"
        (Call.Fcntl (closed, Flags.Fcntl.f_getfd, 0));
      measure "close, bad descriptor" (Call.Close closed);
      ignore (htg (Call.Close fd));
      0)
  in
  check_exit "session" 0 status;
  Alcotest.(check bool) "obs off" false (Obs.enabled ());
  List.iter
    (fun (name, w) -> Alcotest.(check (float 0.)) name 0. w)
    (List.rev !words)

(* --- the process table holds only unreaped processes ------------------------------------- *)

(* (entries, entries in state Reaped) *)
let table_census (k : Kernel.t) =
  Hashtbl.fold
    (fun _ (p : Proc.t) (n, reaped) ->
      (n + 1, if p.state = Proc.Reaped then reaped + 1 else reaped))
    k.Kstate.procs (0, 0)

let test_table_parent_exits_unwaited () =
  (* a parent forks 2000 children that exit, then exits without
     waiting; init inherits the zombies and reaps every one *)
  let n = 2000 in
  let k, status = boot (fun () ->
    let _ =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           for _ = 1 to n do
             ignore (u "fork" (Libc.Unistd.fork ~child:(fun () -> 0)))
           done;
           0))
    in
    let rec reap_all count =
      match Libc.Unistd.wait () with
      | Ok _ -> reap_all (count + 1)
      | Error _ -> count
    in
    if reap_all 0 = n + 1 then 0 else 1)
  in
  check_exit "init reaped the parent and its 2000 orphans" 0 status;
  Alcotest.(check (pair int int)) "table (entries, reaped)" (0, 0)
    (table_census k)

let test_table_orphans_outlive_init () =
  (* init exits while its child sleeps; the child then forks 2000
     children and exits, half of them still running.  Nobody is left to
     wait, so every process reaps itself and leaves the table *)
  let n = 2000 in
  let k, status = boot (fun () ->
    let _ =
      u "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.sleep_us 1000);
           for i = 1 to n do
             ignore
               (u "fork"
                  (Libc.Unistd.fork ~child:(fun () ->
                     if i mod 2 = 0 then ignore (Libc.Unistd.sleep_us 1000);
                     0)))
           done;
           0))
    in
    0)
  in
  check_exit "init" 0 status;
  Alcotest.(check (pair int int)) "table (entries, reaped)" (0, 0)
    (table_census k)

(* --- wait channels ------------------------------------------------------------------------ *)

(* A process is in a wait channel's queue exactly while it sleeps on
   it (4.3BSD's unsleep): a sleeper that is killed or interrupted
   leaves no entry behind, so a run ends with no wait queue at all. *)
let no_wait_queues what (k : Kernel.t) =
  Alcotest.(check int) (what ^ ": wait queues") 0
    (Hashtbl.length k.Kstate.waitqs)

let test_killed_in_wait4 () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let status = boot_k k (fun () ->
    let pid =
      u "fork"
        (U.fork ~child:(fun () ->
           (* parked in wait4 until its own child kills it *)
           ignore
             (u "fork"
                (U.fork ~child:(fun () ->
                   ignore (U.sleep_us 1000);
                   u "kill" (U.kill (U.getppid ()) Signal.sigkill);
                   0)));
           ignore (U.wait ());
           1))
    in
    let _, st = u "wait" (U.waitpid pid 0) in
    (* the orphan, now init's *)
    ignore (u "wait orphan" (U.wait ()));
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigkill
    then 0
    else 1)
  in
  check_exit "killed in wait4" 0 status;
  no_wait_queues "after the run" k

let test_killed_reading_pipe () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let status = boot_k k (fun () ->
    let r, w = u "pipe" (U.pipe ()) in
    let pid =
      u "fork"
        (U.fork ~child:(fun () ->
           u "close" (U.close w);
           (* parked reading until killed *)
           ignore (U.read r (Bytes.create 1) 1);
           1))
    in
    u "close" (U.close r);
    ignore (U.sleep_us 1000);
    u "kill" (U.kill pid Signal.sigkill);
    ignore (u "wait" (U.waitpid pid 0));
    (* the writer lives on here, and nobody sleeps *)
    let queues = Hashtbl.length k.Kstate.waitqs in
    u "close" (U.close w);
    queues)
  in
  check_exit "wait queues while the writer lives" 0 status;
  no_wait_queues "after the run" k

let test_wait4_interrupted () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let status = boot_k k (fun () ->
    let pid =
      u "fork"
        (U.fork ~child:(fun () ->
           ignore
             (u "signal" (U.signal Signal.sigusr1 (Value.H_fn (fun _ -> ()))));
           ignore
             (u "fork"
                (U.fork ~child:(fun () ->
                   ignore (U.sleep_us 1000);
                   u "kill" (U.kill (U.getppid ()) Signal.sigusr1);
                   ignore (U.sleep_us 1000);
                   0)));
           (* interrupted, and gone without waiting again *)
           match U.wait () with
           | Error Errno.EINTR -> 0
           | Ok _ | Error _ -> 1))
    in
    let _, st = u "wait" (U.waitpid pid 0) in
    ignore (u "wait orphan" (U.wait ()));
    exit_code st)
  in
  check_exit "wait4 interrupted" 0 status;
  no_wait_queues "after the run" k

(* A select woken through one of its channels, or by its deadline,
   leaves the queues of all the others while their rings live on. *)
let test_select_leaves_other_channels () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let status = boot_k k (fun () ->
    let r1, w1 = u "pipe" (U.pipe ()) in
    let r2, w2 = u "pipe" (U.pipe ()) in
    let pid =
      u "fork"
        (U.fork ~child:(fun () ->
           ignore (U.sleep_us 1000);
           ignore (u "write" (U.write w1 "x"));
           0))
    in
    let woken = u "select" (U.select ~read:[ r1; r2 ] ()) in
    let after_wake = Hashtbl.length k.Kstate.waitqs in
    let timed_out = u "select" (U.select ~read:[ r2 ] ~timeout_us:1000 ()) in
    let after_timeout = Hashtbl.length k.Kstate.waitqs in
    ignore (u "wait" (U.waitpid pid 0));
    List.iter (fun fd -> u "close" (U.close fd)) [ r1; w1; r2; w2 ];
    if woken <> ([ r1 ], []) || timed_out <> ([], []) then 1
    else if after_wake <> 0 then 2
    else if after_timeout <> 0 then 3
    else 0)
  in
  check_exit "select's other channels" 0 status;
  no_wait_queues "after the run" k

(* The pids in the run queue, in order, left in place. *)
let run_queue (k : Kernel.t) =
  let rec drain acc =
    match Kstate.dequeue k with
    | Some p -> drain (p :: acc)
    | None -> List.rev acc
  in
  let queued = drain [] in
  List.iter (Kstate.enqueue k) queued;
  List.map (fun (p : Proc.t) -> p.pid) queued

(* One row of the select wake table: [setup] runs in init and returns
   the descriptors to select on, the masks select must return, the
   helper's program and init's clean-up.  The helper's program makes
   its preparations and returns the one call that makes the
   descriptors ready. *)
type select_row = {
  row : string;
  setup :
    unit -> (int list * int list) * (int list * int list)
    * (unit -> unit -> unit) * (unit -> unit);
}

(* Init selects with no timeout; a forked helper waits until init is
   parked, makes the row's channel ready, and checks that this woke
   init, queued once.  Init then parks once more in a sleep: a second,
   stale wake-up would resume its fibre there out of turn. *)
let run_select_row { row; setup } () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let status = boot_k k (fun () ->
    let me = U.getpid () in
    let (read, write), want, act, finish = setup () in
    let parked () =
      match Kstate.proc k me with
      | Some { Proc.state = Proc.Parked _; _ } -> true
      | Some _ | None -> false
    in
    let helper =
      u "fork"
        (U.fork ~child:(fun () ->
           let wake = act () in
           ignore (U.sleep_us 1000);
           if not (parked ()) then 10
           else begin
             wake ();
             if parked () then 11
             else if run_queue k <> [ me ] then 12
             else 0
           end))
    in
    let got = u "select" (U.select ~read ~write ()) in
    ignore (U.sleep_us 1000);
    finish ();
    let _, st = u "wait" (U.waitpid helper 0) in
    if got <> want then 20 else exit_code st)
  in
  check_exit row 0 status;
  Alcotest.(check int) (row ^ ": deadlock kills") 0 (Kernel.deadlock_kills k);
  no_wait_queues row k

let select_rows =
  let module U = Libc.Unistd in
  let fill fd =
    Alcotest.(check int) "filled" 4096
      (u "fill" (U.write fd (String.make 4096 'f')))
  in
  let take fd = ignore (u "take" (U.read fd (Bytes.create 1) 1)) in
  let put fd = ignore (u "put" (U.write fd "x")) in
  let close_all fds () = List.iter (fun fd -> u "close" (U.close fd)) fds in
  let fifo () =
    u "mkfifo" (U.mkfifo "/tmp/fifo" 0o644);
    let fr = u "open r" (U.open_ "/tmp/fifo" Flags.Open.o_rdonly 0) in
    let fw = u "open w" (U.open_ "/tmp/fifo" Flags.Open.o_wronly 0) in
    fr, fw
  in
  (* the helper's own open of the FIFO, closed when it exits *)
  let in_fifo flags f () =
    let fd = u "open" (U.open_ "/tmp/fifo" flags 0) in
    fun () -> f fd
  in
  [ { row = "pipe read";
      setup =
        (fun () ->
          let r, w = u "pipe" (U.pipe ()) in
          ([ r ], []), ([ r ], []), (fun () () -> put w), close_all [ r; w ]) };
    { row = "pipe write, full";
      setup =
        (fun () ->
          let r, w = u "pipe" (U.pipe ()) in
          fill w;
          ([], [ w ]), ([], [ w ]), (fun () () -> take r), close_all [ r; w ]) };
    { row = "fifo read";
      setup =
        (fun () ->
          let fr, fw = fifo () in
          ( ([ fr ], []), ([ fr ], []),
            in_fifo Flags.Open.o_wronly put,
            close_all [ fr; fw ] )) };
    { row = "fifo write, full";
      setup =
        (fun () ->
          let fr, fw = fifo () in
          fill fw;
          ( ([], [ fw ]), ([], [ fw ]),
            in_fifo Flags.Open.o_rdonly take,
            close_all [ fr; fw ] )) };
    { row = "socket read";
      setup =
        (fun () ->
          let a, b = u "socketpair" (U.socketpair ()) in
          ([ a ], []), ([ a ], []), (fun () () -> put b), close_all [ a; b ]) };
    { row = "socket write, full";
      setup =
        (fun () ->
          let a, b = u "socketpair" (U.socketpair ()) in
          fill a;
          ([], [ a ]), ([], [ a ]), (fun () () -> take b), close_all [ a; b ]) };
    { row = "listener";
      setup =
        (fun () ->
          let s = u "socket" (U.socket ()) in
          u "bind" (U.bind s "select-svc");
          u "listen" (U.listen s 1);
          ( ([ s ], []), ([ s ], []),
            (fun () ->
              let c = u "socket" (U.socket ()) in
              fun () -> u "connect" (U.connect c "select-svc")),
            fun () ->
              let conn = u "accept" (U.accept s) in
              close_all [ conn; s ] () )) };
    { row = "one ring twice";
      setup =
        (fun () ->
          let r, w = u "pipe" (U.pipe ()) in
          let r2 = u "dup" (U.dup r) in
          ( ([ r; r2 ], []), ([ r; r2 ], []),
            (fun () () -> put w),
            close_all [ r; r2; w ] )) } ]

(* --- the read-chunk pool ----------------------------------------------- *)

(* A whole-file read borrows its 4 KB chunk from the shard's pool for
   one call (DESIGN.md §3.8).  Each text below spans several chunks and
   differs from every other, so a reader that saw another call's bytes
   in its chunk reads the wrong text. *)
let chunk_text i =
  String.init (9000 + (517 * i)) (fun j ->
    Char.chr (97 + (((i * 7) + (j / 61)) mod 26)))

let chunk_path i = Printf.sprintf "/tmp/chunk%d" i

let read_all_path path =
  let module U = Libc.Unistd in
  let fd = u "open" (U.open_ path Flags.Open.o_rdonly 0) in
  let text = u "read_all" (U.read_all fd) in
  u "close" (U.close fd);
  text

let write_texts n =
  for i = 0 to n - 1 do
    u "write_file" (Libc.Stdio.write_file (chunk_path i) (chunk_text i))
  done

let wait_failures pids =
  List.fold_left
    (fun bad pid ->
      let _, st = u "wait" (Libc.Unistd.waitpid pid 0) in
      if Flags.Wait.wifexited st && Flags.Wait.wexitstatus st = 0 then bad
      else bad + 1)
    0 pids

(* Five children read five files at once: every read yields to the
   others, so each chunk is filled, then read back after other
   processes' reads.  The pool is warm first, so every take is a
   reuse. *)
let test_read_all_interleaved () =
  let n = 5 in
  let _, status = boot (fun () ->
    write_texts n;
    ignore (read_all_path (chunk_path 0));
    wait_failures
      (List.init n (fun i ->
         u "fork"
           (Libc.Unistd.fork ~child:(fun () ->
              if read_all_path (chunk_path i) = chunk_text i then 0 else 1)))))
  in
  check_exit "every reader got its own bytes" 0 status

(* A reader parks in [read_all] on an empty pipe holding its chunk;
   another process reads a file with [read_all] while the pipe is fed
   in pieces, so the parked read restarts, fills its chunk and yields
   in between the other's reads. *)
let test_read_all_parked_pipe () =
  let module U = Libc.Unistd in
  let _, status = boot (fun () ->
    write_texts 3;
    ignore (read_all_path (chunk_path 0));
    let piped = chunk_text 1 in
    let r, w = u "pipe" (U.pipe ()) in
    let reader =
      u "fork"
        (U.fork ~child:(fun () ->
           u "close" (U.close w);
           if u "read_all" (U.read_all r) = piped then 0 else 1))
    in
    u "close" (U.close r);
    ignore (U.sleep_us 1000);
    let other =
      u "fork"
        (U.fork ~child:(fun () ->
           u "close" (U.close w);
           if read_all_path (chunk_path 2) = chunk_text 2 then 0 else 1))
    in
    let rec feed pos =
      if pos < String.length piped then begin
        let n = min 1000 (String.length piped - pos) in
        u "write" (U.write_all w (String.sub piped pos n));
        ignore (U.getpid ());
        feed (pos + n)
      end
    in
    feed 0;
    u "close" (U.close w);
    wait_failures [ reader; other ])
  in
  check_exit "the restarted read and the other both got their bytes" 0 status

(* A reader killed while parked inside [read_all] never gives its chunk
   back; the pool is simply one chunk short, and later calls, alone and
   at once, read their own bytes. *)
let test_read_all_killed_reader () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let free_after_kill = ref (-1) in
  let status = boot_k k (fun () ->
    write_texts 3;
    ignore (read_all_path (chunk_path 0));
    let r, w = u "pipe" (U.pipe ()) in
    let pid =
      u "fork"
        (U.fork ~child:(fun () ->
           u "close" (U.close w);
           ignore (U.read_all r);
           1))
    in
    u "close" (U.close r);
    ignore (U.sleep_us 1000);
    u "kill" (U.kill pid Signal.sigkill);
    ignore (u "wait" (U.waitpid pid 0));
    free_after_kill := k.Kstate.chunks_free;
    u "close" (U.close w);
    if read_all_path (chunk_path 1) <> chunk_text 1 then 1
    else
      wait_failures
        (List.init 3 (fun i ->
           u "fork"
             (U.fork ~child:(fun () ->
                if read_all_path (chunk_path i) = chunk_text i then 0 else 1)))))
  in
  check_exit "later reads got their own bytes" 0 status;
  Alcotest.(check int) "the killed reader's chunk never came back" 0
    !free_after_kill

(* Ten readers parked in [read_all] at once hold ten chunks; when they
   finish, the pool keeps its 8 and drops and counts the other 2.  The
   pool is empty once the session is over. *)
let test_chunk_pool_capacity () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  let readers = 10 in
  let held = ref (-1, -1, -1) in
  let status = boot_k k (fun () ->
    let started =
      List.fold_left
        (fun started i ->
          let r, w = u "pipe" (U.pipe ()) in
          let earlier = List.map (fun (_, _, w) -> w) started in
          let pid =
            u "fork"
              (U.fork ~child:(fun () ->
                 List.iter (fun fd -> u "close" (U.close fd)) (w :: earlier);
                 match U.read_all r with
                 | Ok text when text = Printf.sprintf "reader %d" i -> 0
                 | Ok _ | Error _ -> 1))
          in
          u "close" (U.close r);
          (i, pid, w) :: started)
        []
        (List.init readers Fun.id)
    in
    ignore (U.sleep_us 100_000);
    let parked =
      List.length
        (List.filter
           (fun (p : Proc.t) ->
             match p.state with Proc.Parked _ -> true | _ -> false)
           (Kstate.live_procs k))
    in
    if parked <> readers then Alcotest.failf "%d readers parked" parked;
    List.iter
      (fun (i, _, w) ->
        u "write" (U.write_all w (Printf.sprintf "reader %d" i));
        u "close" (U.close w))
      started;
    let bad = wait_failures (List.map (fun (_, pid, _) -> pid) started) in
    held := (Array.length k.Kstate.chunks, k.Kstate.chunks_free,
             k.Kstate.chunk_drops);
    bad)
  in
  check_exit "every reader got its own bytes" 0 status;
  Alcotest.(check (triple int int int)) "8 slots, 8 kept, 2 dropped"
    (8, 8, 2) !held;
  Alcotest.(check (pair int int)) "released once idle" (0, 0)
    (Array.length k.Kstate.chunks, k.Kstate.chunks_free)

(* --- lseek, sigprocmask and the umask at their edges ------------------ *)

let seek_fixture () =
  let module U = Libc.Unistd in
  u "write_file" (Libc.Stdio.write_file "/tmp/seek" (String.make 100 's'));
  let fd = u "open" (U.open_ "/tmp/seek" Flags.Open.o_rdonly 0) in
  ignore (u "read" (U.read fd (Bytes.create 10) 10));
  fd

(* SEEK_END counts from the file's size, not from the current offset *)
let test_lseek_end_from_size () =
  let module U = Libc.Unistd in
  let got = ref [] in
  let _, status = boot (fun () ->
    let fd = seek_fixture () in
    got :=
      List.map
        (fun off -> u "lseek" (U.lseek fd off Flags.Seek.end_))
        [ -5; 0; 7 ];
    u "close" (U.close fd);
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (list int)) "offsets" [ 95; 100; 107 ] !got

(* A result of -1, from any base, is EINVAL, and the offset stays *)
let test_lseek_minus_one_einval () =
  let module U = Libc.Unistd in
  let got = ref [] in
  let _, status = boot (fun () ->
    let fd = seek_fixture () in
    got :=
      List.map
        (fun (off, whence) ->
          let r = U.lseek fd off whence in
          (r, u "where" (U.lseek fd 0 Flags.Seek.cur)))
        [ (-1, Flags.Seek.set); (-11, Flags.Seek.cur); (-101, Flags.Seek.end_) ];
    u "close" (U.close fd);
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (list (pair (result int errno) int)))
    "EINVAL, offset unchanged"
    (List.init 3 (fun _ -> (Error Errno.EINVAL, 10)))
    !got

(* [how] outside block/unblock/setmask is EINVAL and leaves the mask *)
let test_sigprocmask_bad_how () =
  let module U = Libc.Unistd in
  let usr1 = Signal.Mask.mask_bit Signal.sigusr1 in
  let usr2 = Signal.Mask.mask_bit Signal.sigusr2 in
  let got = ref [] in
  let _, status = boot (fun () ->
    ignore (u "block" (U.sigprocmask Flags.Sighow.sig_block usr1));
    got :=
      List.map
        (fun how ->
          let r = U.sigprocmask how usr2 in
          (r, u "mask" (U.sigprocmask Flags.Sighow.sig_block 0)))
        [ 4; 0 ];
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (list (pair (result int errno) int)))
    "EINVAL, mask unchanged"
    [ (Error Errno.EINVAL, usr1); (Error Errno.EINVAL, usr1) ]
    !got

(* mkdir and mknod (a FIFO) take the umask off the mode, as creat does *)
let test_umask_mkdir_mknod () =
  let module U = Libc.Unistd in
  let perms = ref [] in
  let _, status = boot (fun () ->
    ignore (u "umask" (U.umask 0o027));
    u "mkdir" (U.mkdir "/tmp/masked-dir" 0o777);
    u "mkfifo" (U.mkfifo "/tmp/masked-fifo" 0o666);
    perms :=
      List.map
        (fun path -> Flags.Mode.perm_bits (u "stat" (U.stat path)).Stat.st_mode)
        [ "/tmp/masked-dir"; "/tmp/masked-fifo" ];
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (list int)) "modes" [ 0o750; 0o640 ] !perms

(* ftruncate to 64 MB leaves a hole: a read at its end gives zeros,
   and the file holds under 1 MB, with or without one byte written at
   the end (its block and the block table) *)
let test_ftruncate_hole () =
  let module U = Libc.Unistd in
  let size = 64 lsl 20 in
  let tail = ref "" in
  let k, status = boot (fun () ->
    let fd =
      u "open" (U.open_ "/tmp/sparse" Flags.Open.(o_rdwr lor o_creat) 0o644)
    in
    ignore (u "write" (U.write fd "head"));
    u "ftruncate" (U.ftruncate fd size);
    ignore (u "lseek" (U.lseek fd (size - 100) Flags.Seek.set));
    let buf = Bytes.make 100 'x' in
    tail := Bytes.sub_string buf 0 (u "read" (U.read fd buf 100));
    u "close" (U.close fd);
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check string) "zeros at the end" (String.make 100 '\000') !tail;
  let fs = Kernel.fs k in
  match Vfs.Fs.resolve fs Vfs.Fs.root_cred ~cwd:(Vfs.Fs.root_ino fs) "/tmp/sparse" with
  | Ok { Vfs.Inode.kind = Vfs.Inode.Reg d; _ } ->
    Alcotest.(check int) "size" size (Vfs.Filedata.size d);
    let held () = Obj.reachable_words (Obj.repr d) * (Sys.word_size / 8) in
    if held () >= 1 lsl 20 then
      Alcotest.failf "a 64 MB hole holds %d bytes" (held ());
    ignore (Vfs.Filedata.write d ~pos:(size - 1) "z");
    if held () >= 1 lsl 20 then
      Alcotest.failf "a 64 MB hole with its last byte written holds %d bytes"
        (held ())
  | Ok _ | Error _ -> Alcotest.fail "/tmp/sparse is not a regular file"

(* link into a directory the caller cannot write is EACCES, even with
   the source its own, and names nothing *)
let test_link_unwritable_dir () =
  let module U = Libc.Unistd in
  let got = ref (Ok ()) and listed = ref true in
  let _, status = boot (fun () ->
    u "mkdir" (U.mkdir "/tmp/ro" 0o755);
    u "write_file" (Libc.Stdio.write_file "/tmp/mine" "m");
    u "chown" (U.chown "/tmp/mine" ~uid:100 ~gid:100);
    u "setuid" (U.setuid 100);
    got := U.link ~existing:"/tmp/mine" "/tmp/ro/alias";
    listed := Result.is_ok (U.stat "/tmp/ro/alias");
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (result unit errno)) "link" (Error Errno.EACCES) !got;
  Alcotest.(check bool) "no alias" false !listed

(* link changes the source's link count, so it advances its ctime *)
let test_link_advances_ctime () =
  let module U = Libc.Unistd in
  let times = ref (0, 0) in
  let _, status = boot (fun () ->
    u "write_file" (Libc.Stdio.write_file "/tmp/src" "s");
    let before = (u "stat" (U.stat "/tmp/src")).Stat.st_ctime in
    u "sleep" (U.sleep_us 2_000_000);
    u "link" (U.link ~existing:"/tmp/src" "/tmp/alias");
    times := (before, (u "stat" (U.stat "/tmp/src")).Stat.st_ctime);
    0)
  in
  check_exit "session" 0 status;
  let before, after = !times in
  if after < before + 2 then
    Alcotest.failf "ctime %d -> %d across a link 2 s later" before after

(* A zero-length write to a regular file changes nothing: at offset 100
   of a 3-byte file it returns 0, and the size, the mtime and the offset
   stay, with and without O_APPEND (as on Linux's ext4) *)
let test_empty_write_changes_nothing () =
  let module U = Libc.Unistd in
  let got = ref [] in
  let _, status = boot (fun () ->
    u "write_file" (Libc.Stdio.write_file "/tmp/empty" "abc");
    let before = (u "stat" (U.stat "/tmp/empty")).Stat.st_mtime in
    u "sleep" (U.sleep_us 2_000_000);
    got :=
      List.map
        (fun extra ->
          let fd =
            u "open" (U.open_ "/tmp/empty" (Flags.Open.o_wronly lor extra) 0)
          in
          ignore (u "lseek" (U.lseek fd 100 Flags.Seek.set));
          let n = u "write" (U.write fd "") in
          let st = u "fstat" (U.fstat fd) in
          let off = u "where" (U.lseek fd 0 Flags.Seek.cur) in
          u "close" (U.close fd);
          (n, st.Stat.st_size, st.Stat.st_mtime - before, off))
        [ 0; Flags.Open.o_append ];
    0)
  in
  check_exit "session" 0 status;
  List.iter2
    (fun what (n, size, dmtime, off) ->
      Alcotest.(check (list int)) what [ 0; 3; 0; 100 ] [ n; size; dmtime; off ])
    [ "plain: returned, size, mtime moved by, offset";
      "O_APPEND: returned, size, mtime moved by, offset" ]
    !got

(* MAXPATHLEN counts the NUL: a 1,023-byte path resolves and a 1,024-byte
   one is ENAMETOOLONG, for lookups and for the parent walk of a create *)
let test_path_length_boundary () =
  let module U = Libc.Unistd in
  (* "/", then "./" or "/" padding, then [tail]: [n] bytes in all *)
  let path n tail =
    let pad = n - 1 - String.length tail in
    "/" ^ String.concat "" (List.init (pad / 2) (fun _ -> "./"))
    ^ (if pad mod 2 = 1 then "/" else "") ^ tail
  in
  let got = ref [] in
  let _, status = boot (fun () ->
    u "write_file" (Libc.Stdio.write_file "/tmp/f" "f");
    got :=
      List.map
        (fun n ->
          ( Result.map ignore (U.stat (path n "tmp/f")),
            U.mkdir (path n (Printf.sprintf "tmp/d%d" n)) 0o755 ))
        [ 1023; 1024 ];
    0)
  in
  check_exit "session" 0 status;
  Alcotest.(check (list (pair (result unit errno) (result unit errno))))
    "1,023 resolve, 1,024 do not"
    [ (Ok (), Ok ());
      (Error Errno.ENAMETOOLONG, Error Errno.ENAMETOOLONG) ]
    !got

let () =
  Alcotest.run "kernel-extra"
    [ "process-groups",
      [ Alcotest.test_case "inherit+set" `Quick test_pgrp_inherit_and_set;
        Alcotest.test_case "kill -pgrp" `Quick test_kill_process_group ];
      "job-control",
      [ Alcotest.test_case "stop/continue" `Quick test_stop_and_continue ];
      "exec",
      [ Alcotest.test_case "cloexec" `Quick test_cloexec_closed_on_exec ];
      "fifo",
      [ Alcotest.test_case "cross-process" `Quick
          test_fifo_between_processes;
        Alcotest.test_case "stat kind" `Quick test_fifo_stat_kind ];
      "file-semantics",
      [ Alcotest.test_case "umask" `Quick test_umask_applies;
        Alcotest.test_case "O_APPEND" `Quick test_append_interleave;
        Alcotest.test_case "O_NONBLOCK" `Quick test_nonblocking_pipe;
        Alcotest.test_case "dir paging" `Quick
          test_getdirentries_small_buffer_pages;
        Alcotest.test_case "rewinddir" `Quick test_lseek_rewinds_directory;
        QCheck_alcotest.to_alcotest test_getdirentries_matches_model;
        Alcotest.test_case "FIONREAD" `Quick test_fionread;
        Alcotest.test_case "F_DUPFD range" `Quick test_fcntl_dupfd_range;
        Alcotest.test_case "trailing slash table" `Quick
          test_trailing_slash_table;
        Alcotest.test_case "dots and empty targets, as Linux" `Quick
          test_dots_table;
        Alcotest.test_case "O_CREAT through symlinks, as Linux" `Quick
          test_creat_table ];
      "timers",
      [ Alcotest.test_case "alarm replace/cancel" `Quick
          test_alarm_replaced_and_cancelled;
        Alcotest.test_case "alarm kept across exec" `Quick
          test_alarm_kept_across_exec;
        Alcotest.test_case "settimeofday" `Quick test_settimeofday_root_only ];
      "direct-entry",
      [ Alcotest.test_case "getpid loops interleave" `Quick
          test_getpid_loops_interleave;
        Alcotest.test_case "alarm due inside a charge" `Quick
          test_alarm_due_inside_a_charge;
        Alcotest.test_case "kill self" `Quick
          test_kill_self_ends_at_same_count;
        Alcotest.test_case "kill from a peer" `Quick
          test_kill_from_peer_at_next_entry;
        Alcotest.test_case "fork child first" `Quick
          test_fork_child_runs_first;
        Alcotest.test_case "kernel sees no process" `Quick
          test_kernel_code_sees_no_process;
        Alcotest.test_case "current restored after raise" `Quick
          test_current_restored_after_raise ];
      "crashes",
      [ Alcotest.test_case "uncaught exn" `Quick
          test_uncaught_exception_is_abort;
        Alcotest.test_case "contained" `Quick test_division_crash_contained ];
      "socketpair",
      [ Alcotest.test_case "bidirectional" `Quick
          test_socketpair_bidirectional;
        Alcotest.test_case "EOF/EPIPE" `Quick test_socketpair_eof_and_epipe;
        Alcotest.test_case "stat kind" `Quick test_socketpair_stat_kind;
        Alcotest.test_case "idle channels footprint" `Quick
          test_idle_channels_footprint ];
      "sockets",
      [ Alcotest.test_case "bind lifecycle" `Quick
          test_bind_address_lifecycle;
        Alcotest.test_case "ECONNREFUSED" `Quick test_connect_refused;
        Alcotest.test_case "shutdown" `Quick test_shutdown_directions;
        Alcotest.test_case "SIGPIPE/EPIPE" `Quick
          test_send_sigpipe_and_epipe;
        Alcotest.test_case "drain then EOF" `Quick
          test_recv_drains_before_eof;
        Alcotest.test_case "ENOTCONN/ENOTSOCK" `Quick
          test_sock_not_connected_errors;
        Alcotest.test_case "cloexec across exec" `Quick
          test_sock_cloexec_across_exec ];
      "pipe-eof",
      [ Alcotest.test_case "drain then EOF" `Quick test_pipe_drain_then_eof ];
      "getrusage",
      [ Alcotest.test_case "time deltas" `Quick test_getrusage_accounts_time;
        Alcotest.test_case "per-process" `Quick test_getrusage_per_process ];
      "devices",
      [ Alcotest.test_case "null + zero" `Quick test_dev_null_and_zero;
        Alcotest.test_case "stat kind" `Quick test_dev_stat_kind ];
      "select",
      [ Alcotest.test_case "poll + ready" `Quick test_select_poll_and_ready;
        Alcotest.test_case "blocks until data" `Quick
          test_select_blocks_until_data;
        Alcotest.test_case "timeout" `Quick test_select_timeout_expires;
        Alcotest.test_case "multiplex two children" `Quick
          test_select_multiplexes_two_children;
        Alcotest.test_case "EBADF" `Quick test_select_bad_fd ];
      "stress",
      [ QCheck_alcotest.to_alcotest test_pipe_preserves_stream;
        QCheck_alcotest.to_alcotest test_sock_bidirectional_streams;
        Alcotest.test_case "100 children" `Quick test_many_children;
        Alcotest.test_case "30-stage brigade" `Quick
          test_pipeline_chain_of_processes;
        Alcotest.test_case "deep fork chain" `Quick test_deep_fork_chain ];
      "process-tree",
      [ QCheck_alcotest.to_alcotest test_wait4_matches_table_scan;
        Alcotest.test_case "parent exits unwaited" `Quick
          test_table_parent_exits_unwaited;
        Alcotest.test_case "orphans outlive init" `Quick
          test_table_orphans_outlive_init ];
      "results",
      [ QCheck_alcotest.to_alcotest test_done_ret_shared;
        Alcotest.test_case "crossing words" `Quick test_crossing_words ];
      "wait-channels",
      [ Alcotest.test_case "killed in wait4" `Quick test_killed_in_wait4;
        Alcotest.test_case "killed reading a pipe" `Quick
          test_killed_reading_pipe;
        Alcotest.test_case "wait4 interrupted" `Quick test_wait4_interrupted;
        Alcotest.test_case "select leaves its other channels" `Quick
          test_select_leaves_other_channels ];
      "read-chunks",
      [ Alcotest.test_case "interleaved readers" `Quick
          test_read_all_interleaved;
        Alcotest.test_case "parked pipe reader" `Quick
          test_read_all_parked_pipe;
        Alcotest.test_case "killed reader" `Quick test_read_all_killed_reader;
        Alcotest.test_case "capacity and drops" `Quick
          test_chunk_pool_capacity ];
      "edges",
      [ Alcotest.test_case "lseek SEEK_END from size" `Quick
          test_lseek_end_from_size;
        Alcotest.test_case "lseek to -1" `Quick test_lseek_minus_one_einval;
        Alcotest.test_case "sigprocmask bad how" `Quick
          test_sigprocmask_bad_how;
        Alcotest.test_case "umask on mkdir and mknod" `Quick
          test_umask_mkdir_mknod;
        Alcotest.test_case "ftruncate 64 MB hole" `Quick test_ftruncate_hole;
        Alcotest.test_case "link into an unwritable directory" `Quick
          test_link_unwritable_dir;
        Alcotest.test_case "link advances ctime" `Quick
          test_link_advances_ctime;
        Alcotest.test_case "path length boundary" `Quick
          test_path_length_boundary;
        Alcotest.test_case "empty write changes nothing" `Quick
          test_empty_write_changes_nothing ];
      "select-wake",
      List.map
        (fun r -> Alcotest.test_case r.row `Quick (run_select_row r))
        select_rows ]
