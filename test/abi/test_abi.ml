(* ABI-level tests: errno/signal tables, flag arithmetic, wait-status
   encoding, the dirent wire codec, typed-call encode/decode and the
   cost model. *)

open Abi

let qtest = QCheck_alcotest.to_alcotest

(* --- errno ------------------------------------------------------------- *)

let all_errnos =
  [ Errno.EPERM; ENOENT; ESRCH; EINTR; EIO; ENXIO; E2BIG; ENOEXEC; EBADF;
    ECHILD; EAGAIN; ENOMEM; EACCES; EFAULT; EBUSY; EEXIST; EXDEV; ENODEV;
    ENOTDIR; EISDIR; EINVAL; ENFILE; EMFILE; ENOTTY; EFBIG; ENOSPC;
    ESPIPE; EROFS; EMLINK; EPIPE; ERANGE; EWOULDBLOCK; ENAMETOOLONG;
    ENOTEMPTY; ELOOP; ENOSYS ]

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Errno.name e) true
        (Errno.of_int (Errno.to_int e) = Some e);
      Alcotest.(check bool) "message nonempty" true (Errno.message e <> ""))
    all_errnos

let test_errno_distinct () =
  let codes = List.map Errno.to_int all_errnos in
  Alcotest.(check int) "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* --- signals ------------------------------------------------------------ *)

let test_signal_names () =
  for s = 1 to Signal.max_signal do
    Alcotest.(check (option int))
      (Signal.name s) (Some s)
      (Signal.of_name (Signal.name s))
  done;
  Alcotest.(check (option int)) "lowercase" (Some Signal.sigint)
    (Signal.of_name "int");
  Alcotest.(check (option int)) "unknown" None (Signal.of_name "NOSUCH")

let test_signal_defaults () =
  Alcotest.(check bool) "chld ignored" true
    (Signal.default_action Signal.sigchld = Signal.Ignore);
  Alcotest.(check bool) "term terminates" true
    (Signal.default_action Signal.sigterm = Signal.Terminate);
  Alcotest.(check bool) "stop stops" true
    (Signal.default_action Signal.sigstop = Signal.Stop);
  Alcotest.(check bool) "cont continues" true
    (Signal.default_action Signal.sigcont = Signal.Continue)

let test_mask_sanitize =
  QCheck.Test.make ~name:"mask sanitize strips KILL/STOP" ~count:200
    QCheck.(int_bound Signal.Mask.full)
    (fun m ->
      let s = Signal.Mask.sanitize m in
      (not (Signal.Mask.mem s Signal.sigkill))
      && (not (Signal.Mask.mem s Signal.sigstop))
      && Signal.Mask.inter s m = s)

let test_mask_ops =
  QCheck.Test.make ~name:"mask add/remove/mem" ~count:200
    QCheck.(pair (int_bound Signal.Mask.full) (int_range 1 31))
    (fun (m, s) ->
      Signal.Mask.mem (Signal.Mask.add m s) s
      && not (Signal.Mask.mem (Signal.Mask.remove m s) s))

(* --- wait status ---------------------------------------------------------- *)

let test_wait_exit =
  QCheck.Test.make ~name:"wait exit status" ~count:200
    QCheck.(int_bound 255)
    (fun code ->
      let st = Flags.Wait.exit_status code in
      Flags.Wait.wifexited st
      && Flags.Wait.wexitstatus st = code
      && (not (Flags.Wait.wifsignaled st))
      && not (Flags.Wait.wifstopped st))

let test_wait_signal =
  QCheck.Test.make ~name:"wait termination status" ~count:100
    QCheck.(int_range 1 31)
    (fun s ->
      let st = Flags.Wait.sig_status s in
      Flags.Wait.wifsignaled st
      && Flags.Wait.wtermsig st = s
      && not (Flags.Wait.wifexited st))

let test_wait_stop =
  QCheck.Test.make ~name:"wait stop status" ~count:100
    QCheck.(int_range 1 31)
    (fun s ->
      let st = Flags.Wait.stop_status s in
      Flags.Wait.wifstopped st
      && Flags.Wait.wstopsig st = s
      && (not (Flags.Wait.wifexited st))
      && not (Flags.Wait.wifsignaled st))

(* --- mode bits --------------------------------------------------------------- *)

let test_ls_string () =
  let cases =
    [ Flags.Mode.ifreg lor 0o644, "-rw-r--r--";
      Flags.Mode.ifdir lor 0o755, "drwxr-xr-x";
      Flags.Mode.iflnk lor 0o777, "lrwxrwxrwx";
      Flags.Mode.ifchr lor 0o666, "crw-rw-rw-";
      Flags.Mode.ifreg lor 0o4755, "-rwsr-xr-x";
      Flags.Mode.ifdir lor 0o1777, "drwxrwxrwt" ]
  in
  List.iter
    (fun (mode, expect) ->
      Alcotest.(check string) expect expect (Flags.Mode.to_ls_string mode))
    cases

let test_open_flags () =
  Alcotest.(check bool) "rdonly readable" true
    (Flags.Open.readable Flags.Open.o_rdonly);
  Alcotest.(check bool) "rdonly not writable" false
    (Flags.Open.writable Flags.Open.o_rdonly);
  Alcotest.(check bool) "rdwr both" true
    Flags.Open.(readable o_rdwr && writable o_rdwr);
  Alcotest.(check bool) "wronly" true
    Flags.Open.(writable o_wronly && not (readable o_wronly))

(* --- dirent codec --------------------------------------------------------------- *)

let name_gen = QCheck.(string_of_size Gen.(1 -- 60))

let valid_name n =
  n <> "" && not (String.contains n '/') && not (String.contains n '\000')

let test_dirent_roundtrip =
  QCheck.Test.make ~name:"dirent encode/decode" ~count:300
    QCheck.(pair (int_bound 0xFFFF) name_gen)
    (fun (ino, name) ->
      QCheck.assume (valid_name name);
      let e = { Dirent.d_ino = ino; d_name = name } in
      let buf = Bytes.create 256 in
      let next = Dirent.encode buf ~pos:0 e in
      next = Dirent.reclen e
      &&
      match Dirent.decode buf ~pos:0 ~limit:next with
      | Some (e', pos) -> e' = e && pos = next
      | None -> false)

let test_dirent_list_roundtrip =
  QCheck.Test.make ~name:"dirent list packing" ~count:200
    QCheck.(list_of_size Gen.(0 -- 20) (pair (int_bound 0xFFFF) name_gen))
    (fun raw ->
      let entries =
        List.filter_map
          (fun (ino, name) ->
            if valid_name name then Some { Dirent.d_ino = ino; d_name = name }
            else None)
        raw
      in
      let buf = Bytes.create 512 in
      let written, leftover = Dirent.encode_list buf entries in
      let decoded = Dirent.decode_all buf ~len:written in
      let taken = List.length entries - List.length leftover in
      decoded = List.filteri (fun i _ -> i < taken) entries)

let test_dirent_alignment =
  QCheck.Test.make ~name:"reclen 4-aligned" ~count:100 name_gen
    (fun name ->
      QCheck.assume (valid_name name);
      Dirent.reclen { Dirent.d_ino = 1; d_name = name } mod 4 = 0)

let test_dirent_small_buffer () =
  let e = { Dirent.d_ino = 1; d_name = "filename" } in
  let buf = Bytes.create 4 in
  Alcotest.(check bool) "does not fit" false (Dirent.fits buf ~pos:0 e);
  Alcotest.check_raises "encode raises"
    (Invalid_argument "Dirent.encode: buffer too small") (fun () ->
      ignore (Dirent.encode buf ~pos:0 e))

(* --- typed calls ------------------------------------------------------------------ *)

let call_cases : Call.t list =
  [ Call.Exit 3;
    Call.Read (4, Bytes.create 8, 8);
    Call.Write (1, "data");
    Call.Open ("/etc/motd", Flags.Open.o_rdonly, 0);
    Call.Close 5;
    Call.Wait4 (-1, 0);
    Call.Link ("/a", "/b");
    Call.Unlink "/a";
    Call.Execve ("/bin/sh", [| "sh" |], [||]);
    Call.Chdir "/tmp";
    Call.Lseek (3, 10, 0);
    Call.Getpid;
    Call.Kill (7, 9);
    Call.Stat ("/x", ref None);
    Call.Dup 1;
    Call.Pipe;
    Call.Socketpair;
    Call.Socket;
    Call.Bind (3, "svc.kv");
    Call.Listen (3, 8);
    Call.Accept 3;
    Call.Connect (4, "svc.kv");
    Call.Send (4, "ping");
    Call.Recv (4, Bytes.create 8, 8);
    Call.Shutdown (4, 1);
    Call.Sigprocmask (1, 0xF);
    Call.Ioctl (0, Flags.Ioctl.fionread, Bytes.create 4);
    Call.Symlink ("target", "/link");
    Call.Readlink ("/link", Bytes.create 64);
    Call.Umask 0o22;
    Call.Fstat (0, ref None);
    Call.Dup2 (1, 2);
    Call.Fcntl (1, Flags.Fcntl.f_getfd, 0);
    Call.Select (0b1010, 0b1, 1000);
    Call.Gettimeofday (ref None);
    Call.Getrusage (ref None);
    Call.Rename ("/a", "/b");
    Call.Truncate ("/a", 10);
    Call.Mkdir ("/d", 0o755);
    Call.Rmdir "/d";
    Call.Utimes ("/a", 1, 2);
    Call.Getdirentries (3, Bytes.create 128);
    Call.Sleepus 100;
    Call.Getcwd (Bytes.create 64) ]

let test_call_roundtrip () =
  List.iter
    (fun c ->
      match Call.decode (Call.encode c) with
      | Ok c' ->
        Alcotest.(check string) (Call.name c) (Call.name c) (Call.name c');
        Alcotest.(check int) "number" (Call.number c) (Call.number c')
      | Error e ->
        Alcotest.failf "decode %s failed: %s" (Call.name c) (Errno.name e))
    call_cases

let test_call_decode_bad () =
  (match Call.decode { Value.num = 9999; args = [||] } with
   | Error Errno.ENOSYS -> ()
   | Error e -> Alcotest.failf "expected ENOSYS, got %s" (Errno.name e)
   | Ok _ -> Alcotest.fail "decoded nonsense");
  match
    Call.decode { Value.num = Sysno.sys_read; args = [| Value.Str "x" |] }
  with
  | Error Errno.EFAULT -> ()
  | Error e -> Alcotest.failf "expected EFAULT, got %s" (Errno.name e)
  | Ok _ -> Alcotest.fail "decoded malformed read"

let test_call_classification () =
  List.iter
    (fun c ->
      let n = Call.number c in
      (match Call.pathname_of c with
       | Some _ ->
         Alcotest.(check bool)
           (Call.name c ^ " is a pathname call")
           true (Sysno.uses_pathname n)
       | None -> ());
      match Call.descriptor_of c with
      | Some _ ->
        Alcotest.(check bool)
          (Call.name c ^ " is a descriptor call")
          true (Sysno.uses_descriptor n)
      | None -> ())
    call_cases

let test_call_pp () =
  List.iter
    (fun c ->
      let s = Format.asprintf "%a" Call.pp c in
      Alcotest.(check bool) (Call.name c) true (String.length s > 0))
    call_cases

(* The trace agent's three result shapes, pinned byte for byte, and
   the [Format] printer agreeing with the string renderer. *)
let test_res_shapes () =
  List.iter
    (fun (res, want) ->
      Alcotest.(check string) want want (Value.res_to_string res);
      Alcotest.(check string) ("pp " ^ want) want
        (Format.asprintf "%a" Value.pp_res res))
    [ (Value.ret 5, "5");
      (Value.ret 3 ~r1:4, "(3, 4)");
      (Error Errno.ENOENT, "-1 ENOENT (No such file or directory)") ]

(* --- exhaustive encode/decode round-trip ------------------------------------- *)

(* Wire values carry closures and shared out-cells, so equality is
   physical for those and structural for the plain data. *)
let value_equal (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Body f, Value.Body g -> f == g
  | Value.Buf x, Value.Buf y -> x == y
  | Value.Stat_ref x, Value.Stat_ref y -> x == y
  | Value.Tv_ref x, Value.Tv_ref y -> x == y
  | Value.Handler_ref x, Value.Handler_ref y -> x == y
  | Value.Handler (Value.H_fn f), Value.Handler (Value.H_fn g) -> f == g
  | Value.Nil, Value.Nil -> true
  | Value.Int x, Value.Int y -> x = y
  | Value.Str x, Value.Str y -> x = y
  | Value.Strs x, Value.Strs y -> x = y
  | Value.Handler x, Value.Handler y -> x = y   (* H_default / H_ignore *)
  | _ -> false

let call_equal (a : Call.t) (b : Call.t) =
  Call.number a = Call.number b
  &&
  let wa = Call.encode a and wb = Call.encode b in
  Array.length wa.Value.args = Array.length wb.Value.args
  && Array.for_all2 value_equal wa.Value.args wb.Value.args

(* One generator per constructor, keyed by syscall number so coverage
   of the whole interface is checkable, not assumed. *)
let call_builders : (int * Call.t QCheck.Gen.t) list =
  let open QCheck.Gen in
  let i = small_nat in
  let s = map (Printf.sprintf "/p/%d") small_nat in
  (* socket addresses are flat names, deliberately not "/"-prefixed *)
  let addr = map (Printf.sprintf "svc%d") small_nat in
  let buf = map (fun n -> Bytes.create (n + 1)) (int_bound 63) in
  let strs = array_size (int_bound 3) (map string_of_int small_nat) in
  let body = (fun () -> 0) in
  let handler =
    oneofl [ Value.H_default; Value.H_ignore; Value.H_fn ignore ]
  in
  [ Sysno.sys_exit, map (fun n -> Call.Exit n) i;
    Sysno.sys_fork, return (Call.Fork body);
    Sysno.sys_read, map2 (fun fd b -> Call.Read (fd, b, Bytes.length b)) i buf;
    Sysno.sys_write, map2 (fun fd d -> Call.Write (fd, d)) i (map string_of_int i);
    Sysno.sys_open, map3 (fun p f m -> Call.Open (p, f, m)) s i i;
    Sysno.sys_close, map (fun fd -> Call.Close fd) i;
    Sysno.sys_wait4, map2 (fun p o -> Call.Wait4 (p, o)) i i;
    Sysno.sys_creat, map2 (fun p m -> Call.Creat (p, m)) s i;
    Sysno.sys_link, map2 (fun a b -> Call.Link (a, b)) s s;
    Sysno.sys_unlink, map (fun p -> Call.Unlink p) s;
    Sysno.sys_execve, map3 (fun p a e -> Call.Execve (p, a, e)) s strs strs;
    Sysno.sys_chdir, map (fun p -> Call.Chdir p) s;
    Sysno.sys_fchdir, map (fun fd -> Call.Fchdir fd) i;
    Sysno.sys_mknod, map3 (fun p m d -> Call.Mknod (p, m, d)) s i i;
    Sysno.sys_chmod, map2 (fun p m -> Call.Chmod (p, m)) s i;
    Sysno.sys_chown, map3 (fun p u g -> Call.Chown (p, u, g)) s i i;
    Sysno.sys_sbrk, map (fun d -> Call.Sbrk d) i;
    Sysno.sys_lseek, map3 (fun fd o w -> Call.Lseek (fd, o, w)) i i (int_bound 2);
    Sysno.sys_getpid, return Call.Getpid;
    Sysno.sys_setuid, map (fun u -> Call.Setuid u) i;
    Sysno.sys_getuid, return Call.Getuid;
    Sysno.sys_geteuid, return Call.Geteuid;
    Sysno.sys_alarm, map (fun n -> Call.Alarm n) i;
    Sysno.sys_access, map2 (fun p b -> Call.Access (p, b)) s (int_bound 7);
    Sysno.sys_sync, return Call.Sync;
    Sysno.sys_kill, map2 (fun p sg -> Call.Kill (p, sg)) i (int_range 1 31);
    Sysno.sys_stat, map (fun p -> Call.Stat (p, ref None)) s;
    Sysno.sys_getppid, return Call.Getppid;
    Sysno.sys_lstat, map (fun p -> Call.Lstat (p, ref None)) s;
    Sysno.sys_dup, map (fun fd -> Call.Dup fd) i;
    Sysno.sys_pipe, return Call.Pipe;
    Sysno.sys_socketpair, return Call.Socketpair;
    Sysno.sys_socket, return Call.Socket;
    Sysno.sys_bind, map2 (fun fd a -> Call.Bind (fd, a)) i addr;
    Sysno.sys_listen, map2 (fun fd b -> Call.Listen (fd, b)) i (int_range 1 16);
    Sysno.sys_accept, map (fun fd -> Call.Accept fd) i;
    Sysno.sys_connect, map2 (fun fd a -> Call.Connect (fd, a)) i addr;
    Sysno.sys_send, map2 (fun fd d -> Call.Send (fd, d)) i (map string_of_int i);
    Sysno.sys_recv, map2 (fun fd b -> Call.Recv (fd, b, Bytes.length b)) i buf;
    Sysno.sys_shutdown, map2 (fun fd h -> Call.Shutdown (fd, h)) i (int_bound 2);
    Sysno.sys_getegid, return Call.Getegid;
    Sysno.sys_sigaction,
    (map3
       (fun sg h keep ->
         Call.Sigaction (sg, h, if keep then Some (ref None) else None))
       (int_range 1 31) (option handler) bool);
    Sysno.sys_getgid, return Call.Getgid;
    Sysno.sys_sigprocmask, map2 (fun h m -> Call.Sigprocmask (h, m)) (int_bound 2) i;
    Sysno.sys_sigpending, return Call.Sigpending;
    Sysno.sys_sigsuspend, map (fun m -> Call.Sigsuspend m) i;
    Sysno.sys_ioctl, map3 (fun fd op b -> Call.Ioctl (fd, op, b)) i i buf;
    Sysno.sys_symlink, map2 (fun t p -> Call.Symlink (t, p)) s s;
    Sysno.sys_readlink, map2 (fun p b -> Call.Readlink (p, b)) s buf;
    Sysno.sys_umask, map (fun m -> Call.Umask m) (int_bound 0o777);
    Sysno.sys_fstat, map (fun fd -> Call.Fstat (fd, ref None)) i;
    Sysno.sys_getpagesize, return Call.Getpagesize;
    Sysno.sys_getpgrp, return Call.Getpgrp;
    Sysno.sys_setpgrp, map2 (fun p g -> Call.Setpgrp (p, g)) i i;
    Sysno.sys_getdtablesize, return Call.Getdtablesize;
    Sysno.sys_dup2, map2 (fun o n -> Call.Dup2 (o, n)) i i;
    Sysno.sys_fcntl, map3 (fun fd c a -> Call.Fcntl (fd, c, a)) i i i;
    Sysno.sys_fsync, map (fun fd -> Call.Fsync fd) i;
    Sysno.sys_select, map3 (fun r w t -> Call.Select (r, w, t)) i i i;
    Sysno.sys_gettimeofday, return (Call.Gettimeofday (ref None));
    Sysno.sys_getrusage, return (Call.Getrusage (ref None));
    Sysno.sys_settimeofday, map2 (fun sec us -> Call.Settimeofday (sec, us)) i i;
    Sysno.sys_rename, map2 (fun a b -> Call.Rename (a, b)) s s;
    Sysno.sys_truncate, map2 (fun p l -> Call.Truncate (p, l)) s i;
    Sysno.sys_ftruncate, map2 (fun fd l -> Call.Ftruncate (fd, l)) i i;
    Sysno.sys_mkdir, map2 (fun p m -> Call.Mkdir (p, m)) s i;
    Sysno.sys_rmdir, map (fun p -> Call.Rmdir p) s;
    Sysno.sys_utimes, map3 (fun p a m -> Call.Utimes (p, a, m)) s i i;
    Sysno.sys_getdirentries, map2 (fun fd b -> Call.Getdirentries (fd, b)) i buf;
    Sysno.sys_sleepus, map (fun us -> Call.Sleepus us) i;
    Sysno.sys_getcwd, map (fun b -> Call.Getcwd b) buf ]

let test_builders_cover_interface () =
  (* the generator table IS the interface: every syscall number, once *)
  Alcotest.(check (list int))
    "one builder per syscall" Sysno.all
    (List.sort compare (List.map fst call_builders));
  List.iter
    (fun (num, gen) ->
      let c = QCheck.Gen.generate1 gen in
      Alcotest.(check int) (Sysno.name num) num (Call.number c))
    call_builders

let gen_call =
  QCheck.Gen.(oneofl call_builders >>= fun (_, g) -> g)

let arb_call =
  QCheck.make ~print:(fun c -> Format.asprintf "%a" Call.pp c) gen_call

let test_call_roundtrip_exhaustive =
  QCheck.Test.make ~name:"decode (encode c) = Ok c, all constructors"
    ~count:1000 arb_call
    (fun c ->
      match Call.decode (Call.encode c) with
      | Ok c' -> call_equal c c'
      | Error _ -> false)

(* --- envelopes -------------------------------------------------------------------- *)

let codec_window f =
  (* no kernel here: envelopes count against the installed (default)
     per-shard counter set *)
  let codec = Envelope.Stats.installed () in
  let before = Envelope.Stats.snapshot_of codec in
  let r = f () in
  (r, Envelope.Stats.diff before (Envelope.Stats.snapshot_of codec))

let test_envelope_decode_once () =
  let env = Envelope.of_wire (Call.encode (Call.Close 3)) in
  Alcotest.(check bool) "starts undecoded" false (Envelope.decoded env);
  let (first, d) =
    codec_window (fun () ->
      let a = Envelope.call env in
      let b = Envelope.call env in
      Alcotest.(check bool) "memoized view is the same" true
        (match a, b with Ok x, Ok y -> x == y | _ -> false);
      a)
  in
  Alcotest.(check int) "one decode for two reads" 1 d.Envelope.Stats.decodes;
  Alcotest.(check int) "no encodes" 0 d.Envelope.Stats.encodes;
  (match first with
   | Ok (Call.Close 3) -> ()
   | _ -> Alcotest.fail "decoded to the wrong call");
  Alcotest.(check bool) "now decoded" true (Envelope.decoded env);
  Alcotest.(check bool) "wire memoized, not dirty" false (Envelope.dirty env)

let test_envelope_of_call_lazy_encode () =
  let env = Envelope.of_call (Call.Unlink "/tmp/x") in
  Alcotest.(check bool) "typed from birth" true (Envelope.decoded env);
  Alcotest.(check bool) "dirty until someone wants the vector" true
    (Envelope.dirty env);
  Alcotest.(check (option int)) "no wire yet" None
    (Option.map (fun (w : Value.wire) -> w.Value.num)
       (Envelope.peek_wire env));
  let (_, d) =
    codec_window (fun () ->
      let a = Envelope.wire env in
      let b = Envelope.wire env in
      Alcotest.(check bool) "memoized wire is the same" true (a == b))
  in
  Alcotest.(check int) "one encode for two reads" 1 d.Envelope.Stats.encodes;
  Alcotest.(check int) "no decodes" 0 d.Envelope.Stats.decodes;
  Alcotest.(check bool) "clean after encoding" false (Envelope.dirty env)

let test_envelope_boundary_drops_view () =
  let (env, d) =
    codec_window (fun () -> Envelope.at_boundary (Call.Getpid))
  in
  Alcotest.(check int) "boundary encodes eagerly" 1 d.Envelope.Stats.encodes;
  Alcotest.(check bool) "typed view dropped" false (Envelope.decoded env);
  Alcotest.(check int) "number still free" Sysno.sys_getpid
    (Envelope.number env)

let test_envelope_undecodable_memoized () =
  let env = Envelope.of_wire { Value.num = 9999; args = [||] } in
  let (_, d) =
    codec_window (fun () ->
      (match Envelope.call env with
       | Error Errno.ENOSYS -> ()
       | _ -> Alcotest.fail "expected ENOSYS");
      match Envelope.call env with
      | Error Errno.ENOSYS -> ()
      | _ -> Alcotest.fail "expected memoized ENOSYS")
  in
  Alcotest.(check int) "failure decoded once" 1 d.Envelope.Stats.decodes

(* --- wire pool ------------------------------------------------------------- *)

let pool_window f =
  let stats = Value.Pool.Stats.installed () in
  let before = Value.Pool.Stats.snapshot_of stats in
  let r = f () in
  (r, Value.Pool.Stats.diff before (Value.Pool.Stats.snapshot_of stats))

let test_pool_scrub_on_recycle () =
  let p = Value.Pool.create ~capacity:4 () in
  let (w, d) = pool_window (fun () -> Value.Pool.take p) in
  Alcotest.(check int) "dry take is a miss" 1 d.Value.Pool.Stats.misses;
  w.Value.num <- Sysno.sys_open;
  w.Value.args <- [| Value.Str "secret"; Value.Int 0; Value.Int 0o644 |];
  Value.Pool.recycle p w;
  Alcotest.(check int) "one wire parked" 1 (Value.Pool.size p);
  let (w', d) = pool_window (fun () -> Value.Pool.take p) in
  Alcotest.(check int) "warm take is a hit" 1 d.Value.Pool.Stats.hits;
  Alcotest.(check int) "warm take never allocates" 0 d.Value.Pool.Stats.misses;
  Alcotest.(check bool) "same record reused" true (w == w');
  Alcotest.(check int) "number scrubbed" 0 w'.Value.num;
  Alcotest.(check bool) "every argument scrubbed to Nil" true
    (Array.for_all (fun v -> v = Value.Nil) w'.Value.args)

let test_pool_boundary_reuse_no_stale () =
  (* a pooled wire refilled by a later trap carries only the later
     call: arity resets and nothing of the old arguments survives *)
  let p = Value.Pool.create () in
  let env1 =
    Envelope.at_boundary ~pool:p (Call.Open ("/tmp/secret", 3, 0o600))
  in
  Envelope.release env1;
  Alcotest.(check int) "un-rewritten trap parks its wire" 1
    (Value.Pool.size p);
  let (env2, d) =
    pool_window (fun () ->
        Envelope.at_boundary ~pool:p (Call.Unlink "/tmp/other"))
  in
  Alcotest.(check int) "refill reused the parked record" 1
    d.Value.Pool.Stats.hits;
  let w2 = Envelope.wire env2 in
  Alcotest.(check int) "number is the new call's" Sysno.sys_unlink
    w2.Value.num;
  Alcotest.(check bool) "args are exactly the new call's" true
    (w2.Value.args = [| Value.Str "/tmp/other" |])

let test_pool_release_ownership () =
  (* release recycles only while the envelope still owns the wire
     exclusively *)
  let p = Value.Pool.create () in
  let env = Envelope.at_boundary ~pool:p Call.Getpid in
  ignore (Envelope.wire env); (* an agent saw the raw record *)
  let ((), d) = pool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "exposed wire is not recycled" 0
    d.Value.Pool.Stats.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Value.Pool.size p);
  let env' = Envelope.at_boundary ~pool:p Call.Getpid in
  let ((), d) =
    pool_window (fun () ->
        Envelope.release env';
        Envelope.release env')
  in
  Alcotest.(check int) "double release recycles once" 1
    d.Value.Pool.Stats.recycled;
  let ((), d) =
    pool_window (fun () -> Envelope.release (Envelope.of_call Call.Sync))
  in
  Alcotest.(check bool) "release of a typed-born envelope is a no-op" true
    (d = { Value.Pool.Stats.hits = 0; misses = 0; recycled = 0; dropped = 0 })

let test_pool_release_keeps_typed_view () =
  (* the internal decode does not expose the wire, so a released
     envelope both recycles and stays readable through its memoized
     view *)
  let p = Value.Pool.create () in
  let env = Envelope.at_boundary ~pool:p (Call.Close 7) in
  (match Envelope.call env with
   | Ok (Call.Close 7) -> ()
   | _ -> Alcotest.fail "decode failed");
  let ((), d) = pool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "decoded-but-unexposed wire recycles" 1
    d.Value.Pool.Stats.recycled;
  Alcotest.(check (option int)) "raw record is gone" None
    (Option.map (fun (w : Value.wire) -> w.Value.num)
       (Envelope.peek_wire env));
  (match Envelope.call env with
   | Ok (Call.Close 7) -> ()
   | _ -> Alcotest.fail "typed view lost by release")

let test_pool_capacity_drop () =
  let p = Value.Pool.create ~capacity:1 () in
  let w1 = Value.Pool.take p in
  let w2 = Value.Pool.take p in
  let ((), d) =
    pool_window (fun () ->
        Value.Pool.recycle p w1;
        Value.Pool.recycle p w2)
  in
  Alcotest.(check int) "first return kept" 1 d.Value.Pool.Stats.recycled;
  Alcotest.(check int) "overflow dropped" 1 d.Value.Pool.Stats.dropped;
  Alcotest.(check int) "size capped" 1 (Value.Pool.size p)

(* --- envelope record pool --------------------------------------------------- *)

let epool_window f =
  let stats = Envelope.Pool.Stats.installed () in
  let before = Envelope.Pool.Stats.snapshot_of stats in
  let r = f () in
  ( r,
    Envelope.Pool.Stats.diff before
      (Envelope.Pool.Stats.snapshot_of stats) )

let test_epool_reuse_and_scrub () =
  let p = Envelope.Pool.create ~capacity:4 () in
  let (env1, d) =
    epool_window (fun () -> Envelope.of_call ~epool:p (Call.Close 7))
  in
  Alcotest.(check int) "dry take is a miss" 1 d.Envelope.Pool.Stats.misses;
  let ((), d) = epool_window (fun () -> Envelope.release env1) in
  Alcotest.(check int) "clean release recycles the record" 1
    d.Envelope.Pool.Stats.recycled;
  Alcotest.(check int) "one record parked" 1 (Envelope.Pool.size p);
  let (env2, d) =
    epool_window (fun () -> Envelope.of_call ~epool:p (Call.Unlink "/x"))
  in
  Alcotest.(check int) "warm take is a hit" 1 d.Envelope.Pool.Stats.hits;
  Alcotest.(check int) "warm take never allocates" 0
    d.Envelope.Pool.Stats.misses;
  Alcotest.(check bool) "same record refilled" true (env1 == env2);
  (* scrubbed before reuse: nothing of the Close survives *)
  Alcotest.(check int) "number is the new call's" Sysno.sys_unlink
    (Envelope.number env2);
  (match Envelope.call env2 with
   | Ok (Call.Unlink "/x") -> ()
   | _ -> Alcotest.fail "stale view leaked through the free list");
  Alcotest.(check bool) "no stale wire" true (Envelope.dirty env2)

let test_epool_never_recycles_retained () =
  let p = Envelope.Pool.create () in
  let env = Envelope.of_call ~epool:p (Call.Close 3) in
  Envelope.retain env;
  let ((), d) = epool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "retained record not recycled" 0
    d.Envelope.Pool.Stats.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Envelope.Pool.size p);
  (* the whole point of retain: the stash stays readable *)
  (match Envelope.call env with
   | Ok (Call.Close 3) -> ()
   | _ -> Alcotest.fail "retained envelope lost its view")

let test_epool_never_recycles_exposed () =
  (* handing out the raw wire — including the forced encode of a dirty
     envelope, i.e. a rewrite — blocks record recycling *)
  let p = Envelope.Pool.create () in
  let env = Envelope.of_call ~epool:p (Call.Close 9) in
  ignore (Envelope.wire env);  (* rewrite: dirty envelope forced to wire *)
  let ((), d) = epool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "exposed record not recycled" 0
    d.Envelope.Pool.Stats.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Envelope.Pool.size p);
  let env' = Envelope.at_boundary ~epool:p Call.Getpid in
  ignore (Envelope.peek_wire env');
  let ((), d) = epool_window (fun () -> Envelope.release env') in
  Alcotest.(check int) "peeked record not recycled" 0
    d.Envelope.Pool.Stats.recycled

let test_epool_boundary_pairs_with_wire_pool () =
  (* at_boundary with both pools: one release sends the wire to its
     pool and the record to its own *)
  let wp = Value.Pool.create () in
  let ep = Envelope.Pool.create () in
  let env = Envelope.at_boundary ~pool:wp ~epool:ep (Call.Close 1) in
  Envelope.release env;
  Alcotest.(check int) "wire parked" 1 (Value.Pool.size wp);
  Alcotest.(check int) "record parked" 1 (Envelope.Pool.size ep)

(* Model property: drive a small pool through random
   take/action/release cycles and mirror the free list with an
   integer.  Actions: 0 = clean trap, 1 = retained stash, 2 = rewrite
   (wire forced on a dirty envelope).  Only clean traps may recycle;
   the pool never exceeds capacity; counters match the model
   exactly. *)
let test_epool_model =
  QCheck.Test.make ~name:"envelope pool matches free-list model" ~count:100
    QCheck.(small_list (int_bound 2))
    (fun actions ->
      let cap = 2 in
      let p = Envelope.Pool.create ~capacity:cap () in
      let model_len = ref 0 in
      let ok = ref true in
      let (_, d) =
        epool_window (fun () ->
            List.iteri
              (fun i action ->
                let expect_hit = !model_len > 0 in
                let (env, dt) =
                  epool_window (fun () ->
                      Envelope.of_call ~epool:p (Call.Close i))
                in
                if expect_hit then begin
                  if dt.Envelope.Pool.Stats.hits <> 1 then ok := false;
                  decr model_len
                end
                else if dt.Envelope.Pool.Stats.misses <> 1 then ok := false;
                (* scrub check: the record carries only this trap's call *)
                (match Envelope.call env with
                 | Ok (Call.Close j) when j = i -> ()
                 | _ -> ok := false);
                (match action with
                 | 0 -> ()
                 | 1 -> Envelope.retain env
                 | _ -> ignore (Envelope.wire env));
                Envelope.release env;
                if action = 0 && !model_len < cap then incr model_len)
              actions)
      in
      !ok
      && Envelope.Pool.size p = !model_len
      && d.Envelope.Pool.Stats.recycled
         + d.Envelope.Pool.Stats.dropped
         = List.length (List.filter (fun a -> a = 0) actions))

(* --- bitset ---------------------------------------------------------------- *)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.(check int) "length" 10 (Bitset.length b);
  List.iter
    (fun i ->
      Bitset.set b i; (* out-of-range set is a no-op *)
      Alcotest.(check bool) (Printf.sprintf "mem %d" i) false (Bitset.mem b i))
    [ -1; 10; 4096 ];
  Alcotest.(check bool) "still empty" true (Bitset.is_empty b)

let test_bitset_ops () =
  let b = Bitset.create 40 in
  List.iter (Bitset.set b) [ 0; 7; 8; 39 ];
  Bitset.assign b 7 false;
  Bitset.assign b 9 true;
  Alcotest.(check (list int)) "members" [ 0; 8; 9; 39 ] (Bitset.to_list b);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  let c = Bitset.copy b in
  Bitset.clear b 39;
  Alcotest.(check bool) "copy is independent" true (Bitset.mem c 39);
  Alcotest.(check bool) "cleared" false (Bitset.mem b 39);
  Bitset.clear_all c;
  Alcotest.(check bool) "clear_all empties" true (Bitset.is_empty c);
  Alcotest.(check bool) "equal on equal contents" true
    (Bitset.equal b (Bitset.copy b))

let test_bitset_model =
  QCheck.Test.make ~name:"bitset matches reference set" ~count:200
    QCheck.(small_list (pair bool (int_bound 70)))
    (fun ops ->
      let b = Bitset.create 64 in
      let m = Hashtbl.create 16 in
      List.iter
        (fun (present, i) ->
          Bitset.assign b i present;
          if i >= 0 && i < 64 then
            if present then Hashtbl.replace m i () else Hashtbl.remove m i)
        ops;
      let model =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m [])
      in
      Bitset.to_list b = model
      && Bitset.cardinal b = List.length model
      && List.for_all
           (fun i -> Bitset.mem b i = Hashtbl.mem m i)
           (List.init 70 (fun i -> i)))

let test_sysno_table () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (Sysno.name n) (Some n)
        (Sysno.of_name (Sysno.name n)))
    Sysno.all;
  Alcotest.(check bool) "all sorted" true
    (List.sort compare Sysno.all = Sysno.all);
  Alcotest.(check int) "count" (List.length Sysno.all)
    (List.length (List.sort_uniq compare Sysno.all))

(* --- cost model -------------------------------------------------------------------- *)

let test_cost_components () =
  Alcotest.(check int) "six components" 6
    (Cost_model.path_components "/usr/lib/pkg/deep/sub/leaf");
  Alcotest.(check int) "dots skipped" 2
    (Cost_model.path_components "/a/./b/");
  Alcotest.(check int) "stat 6-component = 892" 892
    (Cost_model.syscall_us
       (Call.Stat ("/usr/lib/pkg/deep/sub/leaf", ref None)))

let test_cost_known_values () =
  Alcotest.(check int) "getpid 25" 25 (Cost_model.syscall_us Call.Getpid);
  Alcotest.(check int) "gettimeofday 47" 47
    (Cost_model.syscall_us (Call.Gettimeofday (ref None)));
  Alcotest.(check int) "read 1K = 370" 370
    (Cost_model.syscall_us (Call.Read (0, Bytes.create 1024, 1024)));
  Alcotest.(check int) "fork 10000" 10_000
    (Cost_model.syscall_us (Call.Fork (fun () -> 0)))

let test_cost_read_monotonic =
  QCheck.Test.make ~name:"read cost monotonic in size" ~count:50
    QCheck.(pair (int_bound 8192) (int_bound 8192))
    (fun (a, b) ->
      let cost n = Cost_model.syscall_us (Call.Read (0, Bytes.create (max n 1), n)) in
      a > b || cost a <= cost b)

let () =
  Alcotest.run "abi"
    [ "errno",
      [ Alcotest.test_case "roundtrip" `Quick test_errno_roundtrip;
        Alcotest.test_case "distinct" `Quick test_errno_distinct ];
      "signal",
      [ Alcotest.test_case "names" `Quick test_signal_names;
        Alcotest.test_case "defaults" `Quick test_signal_defaults;
        qtest test_mask_sanitize;
        qtest test_mask_ops ];
      "wait",
      [ qtest test_wait_exit; qtest test_wait_signal; qtest test_wait_stop ];
      "mode",
      [ Alcotest.test_case "ls strings" `Quick test_ls_string;
        Alcotest.test_case "open flags" `Quick test_open_flags ];
      "dirent",
      [ qtest test_dirent_roundtrip;
        qtest test_dirent_list_roundtrip;
        qtest test_dirent_alignment;
        Alcotest.test_case "small buffer" `Quick test_dirent_small_buffer ];
      "call",
      [ Alcotest.test_case "roundtrip" `Quick test_call_roundtrip;
        Alcotest.test_case "coverage" `Quick test_builders_cover_interface;
        qtest test_call_roundtrip_exhaustive;
        Alcotest.test_case "bad decode" `Quick test_call_decode_bad;
        Alcotest.test_case "classification" `Quick test_call_classification;
        Alcotest.test_case "pp" `Quick test_call_pp;
        Alcotest.test_case "result shapes" `Quick test_res_shapes;
        Alcotest.test_case "sysno" `Quick test_sysno_table ];
      "envelope",
      [ Alcotest.test_case "decode once" `Quick test_envelope_decode_once;
        Alcotest.test_case "lazy encode" `Quick
          test_envelope_of_call_lazy_encode;
        Alcotest.test_case "boundary" `Quick
          test_envelope_boundary_drops_view;
        Alcotest.test_case "undecodable memoized" `Quick
          test_envelope_undecodable_memoized ];
      "pool",
      [ Alcotest.test_case "scrub on recycle" `Quick
          test_pool_scrub_on_recycle;
        Alcotest.test_case "boundary reuse" `Quick
          test_pool_boundary_reuse_no_stale;
        Alcotest.test_case "release ownership" `Quick
          test_pool_release_ownership;
        Alcotest.test_case "release keeps view" `Quick
          test_pool_release_keeps_typed_view;
        Alcotest.test_case "capacity" `Quick test_pool_capacity_drop ];
      "env pool",
      [ Alcotest.test_case "reuse and scrub" `Quick
          test_epool_reuse_and_scrub;
        Alcotest.test_case "retained never recycles" `Quick
          test_epool_never_recycles_retained;
        Alcotest.test_case "exposed never recycles" `Quick
          test_epool_never_recycles_exposed;
        Alcotest.test_case "pairs with wire pool" `Quick
          test_epool_boundary_pairs_with_wire_pool;
        qtest test_epool_model ];
      "bitset",
      [ Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "ops" `Quick test_bitset_ops;
        qtest test_bitset_model ];
      "cost",
      [ Alcotest.test_case "components" `Quick test_cost_components;
        Alcotest.test_case "known values" `Quick test_cost_known_values;
        qtest test_cost_read_monotonic ] ]
