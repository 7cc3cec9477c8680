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
         if Option.is_some (Kernel.Proc.Cur.get ()) then incr with_process));
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
        (match Kernel.Proc.Cur.get () with
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
    match c.state with Proc.Stopped _ -> true | _ -> false
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

type _ Effect.t += Stop_here : Kernel.Events.trap_reply Effect.t

(* A suspended fibre, standing in for the trap a stopped process is
   held at. *)
let stopped_fibre () =
  let saved : (Kernel.Events.trap_reply, unit) Effect.Deep.continuation option ref =
    ref None
  in
  Effect.Deep.match_with
    (fun () -> ignore (Effect.perform Stop_here))
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
        match p.state with Proc.Runnable | Proc.Stopped _ -> true | _ -> false
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
                 p.state <-
                   Proc.Stopped
                     { sk = stopped_fibre ();
                       reply = { Kernel.Events.res = Value.ret 0; deliver = [] } })
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
        Alcotest.test_case "FIONREAD" `Quick test_fionread ];
      "timers",
      [ Alcotest.test_case "alarm replace/cancel" `Quick
          test_alarm_replaced_and_cancelled;
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
        Alcotest.test_case "stat kind" `Quick test_socketpair_stat_kind ];
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
          test_table_orphans_outlive_init ] ]
