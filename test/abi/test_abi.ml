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
    ESPIPE; EROFS; EMLINK; EPIPE; ERANGE; EWOULDBLOCK; ENOTSOCK;
    EADDRINUSE; ECONNRESET; EISCONN; ENOTCONN; ECONNREFUSED; ENAMETOOLONG;
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

(* every access mode with every subset of the option bits: the access
   mode's name, then each set option in bit order; [pp] prints the same *)
let test_open_flag_names () =
  let opts =
    Flags.Open.
      [ (o_nonblock, "O_NONBLOCK"); (o_append, "O_APPEND"); (o_creat, "O_CREAT");
        (o_trunc, "O_TRUNC"); (o_excl, "O_EXCL") ]
  in
  let accs = [| "O_RDONLY"; "O_WRONLY"; "O_RDWR"; "O_BADACC" |] in
  for acc = 0 to 3 do
    for subset = 0 to 31 do
      let chosen = List.filteri (fun i _ -> subset land (1 lsl i) <> 0) opts in
      let f = List.fold_left (fun f (bit, _) -> f lor bit) acc chosen in
      let expect = String.concat "|" (accs.(acc) :: List.map snd chosen) in
      Alcotest.(check string) "to_string" expect (Flags.Open.to_string f);
      Alcotest.(check string) "pp" expect (Format.asprintf "%a" Flags.Open.pp f)
    done
  done

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
      next = Dirent.record_len name
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
      (* pack from the front until an entry does not fit *)
      let rec pack pos taken = function
        | e :: rest when Dirent.fits buf ~pos e ->
          pack (Dirent.encode buf ~pos e) (taken + 1) rest
        | _ -> pos, taken
      in
      let written, taken = pack 0 0 entries in
      let decoded = Dirent.decode_all buf ~len:written in
      decoded = List.filteri (fun i _ -> i < taken) entries)

let test_dirent_alignment =
  QCheck.Test.make ~name:"reclen 4-aligned" ~count:100 name_gen
    (fun name ->
      QCheck.assume (valid_name name);
      let buf = Bytes.create 512 in
      Dirent.encode buf ~pos:0 { Dirent.d_ino = 1; d_name = name } mod 4 = 0)

let test_dirent_small_buffer () =
  let e = { Dirent.d_ino = 1; d_name = "filename" } in
  let buf = Bytes.create 4 in
  Alcotest.(check bool) "does not fit" false (Dirent.fits buf ~pos:0 e);
  Alcotest.check_raises "encode raises"
    (Invalid_argument "Dirent.encode: buffer too small") (fun () ->
      ignore (Dirent.encode buf ~pos:0 e))

(* --- typed calls ------------------------------------------------------------------ *)

let call_name c = Call.name (Call.number c)

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
        Alcotest.(check string) (call_name c) (call_name c) (call_name c');
        Alcotest.(check int) "number" (Call.number c) (Call.number c')
      | Error e ->
        Alcotest.failf "decode %s failed: %s" (call_name c) (Errno.name e))
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

let test_call_pp () =
  List.iter
    (fun c ->
      let s = Format.asprintf "%a" Call.pp c in
      Alcotest.(check bool) (call_name c) true (String.length s > 0))
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
    "one builder per syscall" Call.all
    (List.sort compare (List.map fst call_builders))

(* Every row's constructor maps back to that row.  The builders, one
   per number, are the oracle the table is read against: the call a
   builder makes reads its own number off the table, and the arity of
   its constructor as both [nargs] and the length of its wire.  No two
   builders share a constructor, so the table pairs rows and
   constructors one to one. *)
let test_row_of_every_constructor () =
  let constructors =
    List.map
      (fun (num, gen) ->
        let c = QCheck.Gen.generate1 gen in
        let r = Obj.repr c in
        let arity = if Obj.is_int r then 0 else Obj.size r in
        let what s = Printf.sprintf "%s: %s" (Call.name num) s in
        let w = Call.encode c in
        Alcotest.(check int) (what "number") num (Call.number c);
        Alcotest.(check int) (what "wire number") num w.Value.num;
        Alcotest.(check int) (what "nargs") arity (Call.nargs c);
        Alcotest.(check int) (what "wire arguments") arity
          (Array.length w.Value.args);
        (Obj.is_int r, if Obj.is_int r then Obj.obj r else Obj.tag r))
      call_builders
  in
  Alcotest.(check int) "one constructor per builder" (List.length Call.all)
    (List.length (List.sort_uniq compare constructors))

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

(* --- decode against the reference decoder ------------------------------------- *)

(* Every [Value.t] constructor, each handler kind included. *)
let gen_value : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ return Value.Nil;
      map (fun n -> Value.Int n) small_signed_int;
      map (fun n -> Value.Str (Printf.sprintf "/p/%d" n)) small_nat;
      map (fun n -> Value.Buf (Bytes.create n)) (int_bound 8);
      map (fun n -> Value.Strs (Array.make n "a")) (int_bound 2);
      return (Value.Body (fun () -> 0));
      return (Value.Stat_ref (ref None));
      return (Value.Tv_ref (ref None));
      map (fun h -> Value.Handler h)
        (oneofl [ Value.H_default; Value.H_ignore; Value.H_fn ignore ]);
      return (Value.Handler_ref (ref None)) ]

(* Half the wires are random vectors of 0-4 slots under any number
   from -1 to [max_sysno + 1]; the other half start from a well-formed
   call, then may lose a slot, gain one, or have one overwritten, so
   that every decoder arm is reached on both sides of its match. *)
let gen_wire : Value.wire QCheck.Gen.t =
  let open QCheck.Gen in
  let random =
    map2
      (fun num args -> { Value.num; args = Array.of_list args })
      (int_range (-1) (Call.max_sysno + 1))
      (list_size (int_bound 4) gen_value)
  in
  let perturbed =
    gen_call >>= fun c ->
    let w = Call.encode c in
    let n = Array.length w.Value.args in
    oneof
      [ return w;
        return { w with Value.args = Array.sub w.Value.args 0 (max 0 (n - 1)) };
        map (fun v -> { w with Value.args = Array.append w.Value.args [| v |] })
          gen_value;
        map2
          (fun i v ->
            let args = Array.copy w.Value.args in
            if n > 0 then args.(i mod n) <- v;
            { w with Value.args })
          small_nat gen_value ]
  in
  oneof [ random; perturbed ]

let test_decode_matches_reference =
  QCheck.Test.make ~name:"decode = the let* reference decoder, any wire"
    ~count:3000
    (QCheck.make ~print:(Format.asprintf "%a" Value.pp_wire) gen_wire)
    (fun w ->
      match Call.decode w, Decode_ref.decode w with
      | Ok c, Ok c' -> call_equal c c'
      | Error e, Error e' -> e = e'
      | Ok _, Error _ | Error _, Ok _ -> false)

(* --- envelopes -------------------------------------------------------------------- *)

let codec_window f =
  (* no kernel here: envelopes count against the installed (default)
     obs engine's counters *)
  let before = Obs.codec_of (Obs.installed ()) in
  let r = f () in
  (r, Obs.Codec.diff before (Obs.codec_of (Obs.installed ())))

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
  Alcotest.(check int) "one decode for two reads" 1 d.Obs.Codec.decodes;
  Alcotest.(check int) "no encodes" 0 d.Obs.Codec.encodes;
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
  Alcotest.(check int) "one encode for two reads" 1 d.Obs.Codec.encodes;
  Alcotest.(check int) "no decodes" 0 d.Obs.Codec.decodes;
  Alcotest.(check bool) "clean after encoding" false (Envelope.dirty env)

let test_envelope_boundary_drops_view () =
  let (env, d) =
    codec_window (fun () -> Envelope.at_boundary (Call.Getpid))
  in
  Alcotest.(check int) "boundary counts one encode" 1 d.Obs.Codec.encodes;
  Alcotest.(check bool) "not decoded until read" false (Envelope.decoded env);
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
  Alcotest.(check int) "failure decoded once" 1 d.Obs.Codec.decodes

(* [typed] is [call] without the result box: one decode, then the
   physically same [Call.t] on every read, and the errno [call]
   returns raised as [Undecodable], whichever way the envelope was
   born. *)
let test_envelope_typed_read () =
  List.iter
    (fun c ->
      List.iter
        (fun (birth, env, decodes) ->
          let what s =
            Printf.sprintf "%s %s: %s" birth (call_name c) s
          in
          let first, d =
            codec_window (fun () ->
              let a = Envelope.typed env in
              let b = Envelope.typed env in
              Alcotest.(check bool) (what "reads share the call") true (a == b);
              Alcotest.(check bool) (what "call boxes the same call") true
                (match Envelope.call env with
                 | Ok x -> x == a
                 | Error _ -> false);
              a)
          in
          Alcotest.(check int) (what "decodes") decodes d.Obs.Codec.decodes;
          Alcotest.(check bool) (what "the call") true (first = c))
        [ ("wire-born", Envelope.of_wire (Call.encode c), 1);
          ("call-born", Envelope.of_call c, 0);
          ("boundary", Envelope.at_boundary c, 1) ])
    [ Call.Getpid; Call.Close 3; Call.Write (1, "abc"); Call.Lseek (4, 0, 2) ];
  List.iter
    (fun (what, w, errno) ->
      let env = Envelope.of_wire w in
      let raised () =
        match Envelope.typed env with
        | _ -> Alcotest.failf "%s: decoded" what
        | exception Envelope.Undecodable e -> e
      in
      let (), d =
        codec_window (fun () ->
          Alcotest.(check string) (what ^ " errno") (Errno.name errno)
            (Errno.name (raised ()));
          Alcotest.(check string) (what ^ " memoized errno") (Errno.name errno)
            (Errno.name (raised ()));
          Alcotest.(check bool) (what ^ " agrees with call") true
            (Envelope.call env = Error errno))
      in
      Alcotest.(check int) (what ^ " decoded once") 1 d.Obs.Codec.decodes)
    [ ("unknown number", { Value.num = 9999; args = [||] }, Errno.ENOSYS);
      ( "string for a descriptor",
        { Value.num = Sysno.sys_close; args = [| Value.Str "x" |] },
        Errno.EFAULT );
      ( "missing argument",
        { Value.num = Sysno.sys_write; args = [| Value.Int 1 |] },
        Errno.EFAULT ) ];
  Alcotest.(check int) "nargs of a wire-less envelope" 0
    (Envelope.nargs (Envelope.of_call (Call.Lseek (4, 0, 2))));
  Alcotest.(check int) "nargs of a wire" 3
    (Envelope.nargs (Envelope.of_wire (Call.encode (Call.Lseek (4, 0, 2)))))

(* --- boundary envelopes: the call, with its wire implied ------------------------ *)

let pp_text env = Format.asprintf "%a" Envelope.pp env

(* Rewrites count per process: run [f] as simulated pid 1. *)
let rewrite_window f =
  Obs.set_context (fun () -> 1);
  Fun.protect
    ~finally:(fun () -> Obs.set_context (fun () -> 0))
    (fun () ->
      let before = Obs.rewrites () in
      let r = f () in
      (r, Obs.rewrites () - before))

let wire_equal (a : Value.wire) (b : Value.wire) =
  a.Value.num = b.Value.num
  && Array.length a.Value.args = Array.length b.Value.args
  && Array.for_all2 value_equal a.Value.args b.Value.args

(* A boundary envelope keeps the application's call and builds its
   wire only when asked; it must read, at every step, as the
   [of_wire (encode c)] envelope it stands for, codec counts
   included. *)
let test_boundary_matches_wire =
  QCheck.Test.make ~name:"at_boundary c reads as of_wire (encode c)"
    ~count:1000 arb_call
    (fun c ->
      let p = Envelope.Pool.create () in
      let ((b, w), d) =
        codec_window (fun () ->
            let b = Envelope.at_boundary ~pool:p c in
            (b, Envelope.of_wire (Call.encode c)))
      in
      let same what x y =
        if x <> y then QCheck.Test.fail_reportf "%s: %s <> %s" what x y
      in
      let same_bool what x y = same what (string_of_bool x) (string_of_bool y) in
      let same_int what x y = same what (string_of_int x) (string_of_int y) in
      same_int "encodes at the boundary" 1 d.Obs.Codec.encodes;
      same_int "arity off the table" (Array.length (Call.encode c).Value.args)
        (Call.nargs c);
      same_int "number" (Envelope.number w) (Envelope.number b);
      same_int "nargs" (Envelope.nargs w) (Envelope.nargs b);
      same "shape" (Envelope.shape w) (Envelope.shape b);
      same "pp" (pp_text w) (pp_text b);
      same_bool "decoded" false (Envelope.decoded b);
      same_bool "decoded, of_wire" false (Envelope.decoded w);
      same_bool "dirty" false (Envelope.dirty b);
      same_bool "dirty, of_wire" false (Envelope.dirty w);
      let ((tb, tw), d) =
        codec_window (fun () -> (Envelope.typed b, Envelope.typed w))
      in
      same_int "one decode each" 2 d.Obs.Codec.decodes;
      same_bool "typed" true (call_equal tb tw && call_equal tb c);
      same_bool "decoded after typed" true (Envelope.decoded b);
      same "pp after typed" (pp_text w) (pp_text b);
      let ((wb, rewrites), d) =
        codec_window (fun () -> rewrite_window (fun () -> Envelope.wire b))
      in
      same_int "wire encodes" 0 d.Obs.Codec.encodes;
      same_int "wire rewrites" 0 rewrites;
      same_bool "wire" true (wire_equal wb (Envelope.wire w));
      same_bool "wire memoized" true (Envelope.wire b == wb);
      let (_, d) = codec_window (fun () -> Envelope.typed b) in
      same_int "typed read again decodes" 0 d.Obs.Codec.decodes;
      true)

(* A warm pooled boundary trap, with its first typed read and its
   release, allocates nothing: the record holds the call in a field,
   and there is no wire, no argument box, no decoded copy of the
   call. *)
let test_boundary_words () =
  let rand = Random.State.make [| 34 |] in
  (* the option built once, as [Proc.env_pool] is: [~pool:p] would
     box a fresh [Some] per trap *)
  let pool = Some (Envelope.Pool.create ()) in
  List.iter
    (fun (num, gen) ->
      let c = QCheck.Gen.generate1 ~rand gen in
      let trap () =
        let env = Envelope.at_boundary ?pool c in
        ignore (Sys.opaque_identity (Envelope.typed env));
        Envelope.release env
      in
      trap ();
      let n = 1000 in
      let m0 = Gc.minor_words () in
      for _ = 1 to n do
        trap ()
      done;
      let words = (Gc.minor_words () -. m0) /. float_of_int n in
      Alcotest.(check (float 0.)) (Call.name num) 0. words)
    call_builders

(* --- envelope pool: boundary records -------------------------------------------- *)

let pool_window f =
  let before = Obs.env_pool_of (Obs.installed ()) in
  let r = f () in
  (r, Obs.Env_pool.diff before (Obs.env_pool_of (Obs.installed ())))

(* What a scrubbed record reads as: no view, no wire, no span, no
   flag. *)
let check_scrubbed what env =
  Alcotest.(check int) (what ^ ": number") 0 (Envelope.number env);
  Alcotest.(check bool) (what ^ ": no view") false (Envelope.decoded env);
  Alcotest.(check string) (what ^ ": no view or wire to shape") "?"
    (Envelope.shape env);
  Alcotest.(check int) (what ^ ": no arity") 0 (Envelope.nargs env);
  Alcotest.(check bool) (what ^ ": no implied wire") true (Envelope.dirty env);
  Alcotest.(check int) (what ^ ": span") 0 (Envelope.span env);
  Alcotest.(check bool) (what ^ ": not retained") false
    (Envelope.retained env)

let test_pool_scrub_on_recycle () =
  let p = Envelope.Pool.create ~capacity:4 () in
  let (env, d) =
    pool_window (fun () ->
        Envelope.at_boundary ~pool:p (Call.Open ("secret", 0, 0o644)))
  in
  Alcotest.(check int) "dry take is a miss" 1 d.Obs.Env_pool.misses;
  Envelope.set_span env 7;
  (* released with its decode still pending: no layer read the call *)
  Envelope.release env;
  Alcotest.(check int) "one record parked" 1 (Envelope.Pool.size p);
  check_scrubbed "parked record" env;
  let (env', d) =
    pool_window (fun () -> Envelope.of_call ~pool:p Call.Getpid)
  in
  Alcotest.(check int) "warm take is a hit" 1 d.Obs.Env_pool.hits;
  Alcotest.(check int) "warm take never allocates" 0
    d.Obs.Env_pool.misses;
  Alcotest.(check bool) "same record reused" true (env == env');
  (* none of the boundary trap's state survives into the typed one *)
  let (c, d) = codec_window (fun () -> Envelope.typed env') in
  Alcotest.(check bool) "the new call" true (c == Call.Getpid);
  Alcotest.(check int) "no pending decode carried over" 0
    d.Obs.Codec.decodes;
  Alcotest.(check bool) "dirty: no implied wire carried over" true
    (Envelope.dirty env');
  let (_, rewrites) = rewrite_window (fun () -> Envelope.wire env') in
  Alcotest.(check int) "forcing its wire is a rewrite" 1 rewrites

let test_pool_boundary_reuse_no_stale () =
  (* a record reused by a later boundary trap carries only the later
     call, with its own pending decode *)
  let p = Envelope.Pool.create () in
  let env1 =
    Envelope.at_boundary ~pool:p (Call.Open ("/tmp/secret", 3, 0o600))
  in
  ignore (Envelope.typed env1);
  Envelope.release env1;
  Alcotest.(check int) "un-rewritten trap parks its record" 1
    (Envelope.Pool.size p);
  let (env2, d) =
    pool_window (fun () ->
        Envelope.at_boundary ~pool:p (Call.Unlink "/tmp/other"))
  in
  Alcotest.(check int) "refill reused the parked record" 1
    d.Obs.Env_pool.hits;
  Alcotest.(check bool) "same record" true (env1 == env2);
  Alcotest.(check bool) "undecoded again" false (Envelope.decoded env2);
  Alcotest.(check int) "arity is the new call's" 1 (Envelope.nargs env2);
  let (c, d) = codec_window (fun () -> Envelope.typed env2) in
  Alcotest.(check int) "its own decode" 1 d.Obs.Codec.decodes;
  Alcotest.(check bool) "the new call" true (c = Call.Unlink "/tmp/other");
  (* a remap-style agent reads the raw vector, then sends a new
     envelope down: the record it read must never recycle *)
  let w2 = Envelope.wire env2 in
  Alcotest.(check int) "number is the new call's" Sysno.sys_unlink
    w2.Value.num;
  Alcotest.(check bool) "args are exactly the new call's" true
    (w2.Value.args = [| Value.Str "/tmp/other" |]);
  let ((), d) = pool_window (fun () -> Envelope.release env2) in
  Alcotest.(check int) "a read wire keeps its record off the free list" 0
    d.Obs.Env_pool.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Envelope.Pool.size p);
  ignore (Envelope.at_boundary ~pool:p Call.Getpid);
  Alcotest.(check bool) "the wire read still holds its call" true
    (w2.Value.num = Sysno.sys_unlink
     && w2.Value.args = [| Value.Str "/tmp/other" |])

let test_pool_release_ownership () =
  (* release recycles only while the envelope still owns the wire
     exclusively *)
  let p = Envelope.Pool.create () in
  let env = Envelope.at_boundary ~pool:p Call.Getpid in
  ignore (Envelope.wire env); (* an agent saw the raw record *)
  let ((), d) = pool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "exposed wire is not recycled" 0
    d.Obs.Env_pool.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Envelope.Pool.size p);
  let env' = Envelope.at_boundary ~pool:p Call.Getpid in
  let ((), d) =
    pool_window (fun () ->
        Envelope.release env';
        Envelope.release env')
  in
  Alcotest.(check int) "double release recycles once" 1
    d.Obs.Env_pool.recycled;
  let ((), d) =
    pool_window (fun () -> Envelope.release (Envelope.of_call Call.Sync))
  in
  Alcotest.(check bool) "release of an unpooled envelope is a no-op" true
    (d
     = { Obs.Env_pool.hits = 0; misses = 0; recycled = 0; dropped = 0 })

let test_pool_decode_keeps_ownership () =
  (* the internal decode does not expose the wire, so a decoded
     envelope still recycles, and the released record keeps no
     reference to the wire it handed back *)
  let p = Envelope.Pool.create () in
  let env = Envelope.at_boundary ~pool:p (Call.Close 7) in
  (match Envelope.call env with
   | Ok (Call.Close 7) -> ()
   | _ -> Alcotest.fail "decode failed");
  let ((), d) = pool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "decoded-but-unexposed record recycles" 1
    d.Obs.Env_pool.recycled;
  Alcotest.(check bool) "released record holds no wire" true
    (Envelope.peek_wire env = None)

let test_pool_capacity_drop () =
  let p = Envelope.Pool.create ~capacity:1 () in
  let env1 = Envelope.at_boundary ~pool:p Call.Getpid in
  let env2 = Envelope.at_boundary ~pool:p Call.Getpid in
  let ((), d) =
    pool_window (fun () ->
        Envelope.release env1;
        Envelope.release env2)
  in
  Alcotest.(check int) "first return kept" 1 d.Obs.Env_pool.recycled;
  Alcotest.(check int) "overflow dropped" 1 d.Obs.Env_pool.dropped;
  Alcotest.(check int) "size capped" 1 (Envelope.Pool.size p)

(* --- envelope pool: records ------------------------------------------------- *)

let test_epool_reuse_and_scrub () =
  let p = Envelope.Pool.create ~capacity:4 () in
  let (env1, d) =
    pool_window (fun () -> Envelope.of_call ~pool:p (Call.Close 7))
  in
  Alcotest.(check int) "dry take is a miss" 1 d.Obs.Env_pool.misses;
  let ((), d) = pool_window (fun () -> Envelope.release env1) in
  Alcotest.(check int) "clean release recycles the record" 1
    d.Obs.Env_pool.recycled;
  Alcotest.(check int) "one record parked" 1 (Envelope.Pool.size p);
  let (env2, d) =
    pool_window (fun () -> Envelope.of_call ~pool:p (Call.Unlink "/x"))
  in
  Alcotest.(check int) "warm take is a hit" 1 d.Obs.Env_pool.hits;
  Alcotest.(check int) "warm take never allocates" 0
    d.Obs.Env_pool.misses;
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
  let env = Envelope.of_call ~pool:p (Call.Close 3) in
  Envelope.retain env;
  let ((), d) = pool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "retained record not recycled" 0
    d.Obs.Env_pool.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Envelope.Pool.size p);
  (* the whole point of retain: the stash stays readable *)
  (match Envelope.call env with
   | Ok (Call.Close 3) -> ()
   | _ -> Alcotest.fail "retained envelope lost its view")

let test_epool_never_recycles_exposed () =
  (* handing out the raw wire — including the forced encode of a dirty
     envelope, i.e. a rewrite — blocks record recycling *)
  let p = Envelope.Pool.create () in
  let env = Envelope.of_call ~pool:p (Call.Close 9) in
  ignore (Envelope.wire env);  (* rewrite: dirty envelope forced to wire *)
  let ((), d) = pool_window (fun () -> Envelope.release env) in
  Alcotest.(check int) "exposed record not recycled" 0
    d.Obs.Env_pool.recycled;
  Alcotest.(check int) "pool stays empty" 0 (Envelope.Pool.size p);
  let env' = Envelope.at_boundary ~pool:p Call.Getpid in
  ignore (Envelope.peek_wire env');
  let ((), d) = pool_window (fun () -> Envelope.release env') in
  Alcotest.(check int) "peeked record not recycled" 0
    d.Obs.Env_pool.recycled

let test_epool_boundary_record_keeps_no_wire () =
  (* one free list for both constructors: a record parked by a boundary
     trap whose layer decoded it carries neither its call nor an
     implied wire into the [of_call] trap that takes it *)
  let p = Envelope.Pool.create () in
  let env = Envelope.at_boundary ~pool:p (Call.Close 1) in
  ignore (Envelope.typed env);
  Envelope.release env;
  Alcotest.(check int) "record parked" 1 (Envelope.Pool.size p);
  check_scrubbed "parked record" env;
  let env' = Envelope.of_call ~pool:p Call.Sync in
  Alcotest.(check bool) "of_call takes the same record" true (env == env');
  Alcotest.(check bool) "of_call's record is dirty" true (Envelope.dirty env');
  Alcotest.(check (option int)) "no wire to peek" None
    (Option.map (fun (w : Value.wire) -> w.Value.num)
       (Envelope.peek_wire env'));
  Alcotest.(check int) "no boundary arity" 0 (Envelope.nargs env')

(* Model property: drive a small pool through random
   take/action/release cycles, drawing records with [at_boundary] or
   [of_call] from the one free list, and mirror the free list with an
   integer.  Actions: 0 = clean trap, 1 = retained stash, 2 = raw wire
   handed out (for [of_call], the rewrite: wire forced on a dirty
   envelope; for [at_boundary], a remap-style read).  Only clean traps
   may recycle; the pool never exceeds capacity; counters match the
   model exactly; and every record, fresh or recycled, starts in its
   constructor's state, decoding as many times as that constructor
   says and no more. *)
let test_epool_model =
  QCheck.Test.make ~name:"envelope pool matches free-list model" ~count:100
    QCheck.(small_list (pair bool (int_bound 2)))
    (fun steps ->
      let cap = 2 in
      let p = Envelope.Pool.create ~capacity:cap () in
      let model_len = ref 0 in
      let ok = ref true in
      let (_, d) =
        pool_window (fun () ->
            List.iteri
              (fun i (boundary, action) ->
                let expect_hit = !model_len > 0 in
                let (env, dt) =
                  pool_window (fun () ->
                      if boundary then Envelope.at_boundary ~pool:p (Call.Close i)
                      else Envelope.of_call ~pool:p (Call.Close i))
                in
                if expect_hit then begin
                  if dt.Obs.Env_pool.hits <> 1 then ok := false;
                  decr model_len
                end
                else if dt.Obs.Env_pool.misses <> 1 then ok := false;
                (* scrub check: the record starts as its constructor
                   builds it and carries only this trap's call *)
                if Envelope.decoded env = boundary then ok := false;
                if Envelope.dirty env = boundary then ok := false;
                let (c, dc) = codec_window (fun () -> Envelope.call env) in
                (match c with
                 | Ok (Call.Close j) when j = i -> ()
                 | _ -> ok := false);
                if dc.Obs.Codec.decodes <> Bool.to_int boundary then
                  ok := false;
                (match action with
                 | 0 -> ()
                 | 1 -> Envelope.retain env
                 | _ -> ignore (Envelope.wire env));
                Envelope.release env;
                if action = 0 && !model_len < cap then incr model_len)
              steps)
      in
      !ok
      && Envelope.Pool.size p = !model_len
      && d.Obs.Env_pool.recycled
         + d.Obs.Env_pool.dropped
         = List.length (List.filter (fun (_, a) -> a = 0) steps))

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  List.iter
    (fun i ->
      Bitset.set b i; (* out-of-range set is a no-op *)
      Alcotest.(check bool) (Printf.sprintf "mem %d" i) false (Bitset.mem b i))
    [ -1; 10; 4096 ];
  Alcotest.(check (list int)) "still empty" [] (Bitset.to_list b)

let test_bitset_ops () =
  let b = Bitset.create 40 in
  (* byte edges (7/8) and the last member; setting twice is setting once *)
  List.iter (Bitset.set b) [ 0; 7; 8; 39; 8 ];
  Alcotest.(check (list int)) "members" [ 0; 7; 8; 39 ] (Bitset.to_list b);
  Alcotest.(check bool) "neighbour absent" false (Bitset.mem b 9);
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  Alcotest.(check (list int)) "iter agrees with to_list" (Bitset.to_list b)
    (List.rev !seen)

let test_bitset_model =
  QCheck.Test.make ~name:"bitset matches reference set" ~count:200
    QCheck.(small_list (int_bound 70))
    (fun ops ->
      let b = Bitset.create 64 in
      List.iter (Bitset.set b) ops;
      let model = List.sort_uniq compare (List.filter (fun i -> i < 64) ops) in
      Bitset.to_list b = model
      && List.for_all
           (fun i -> Bitset.mem b i = List.mem i model)
           (List.init 70 (fun i -> i)))

let test_sysno_table () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (Call.name n) (Some n)
        (Call.of_name (Call.name n)))
    Call.all;
  Alcotest.(check bool) "all sorted" true
    (List.sort compare Call.all = Call.all);
  Alcotest.(check int) "count" (List.length Call.all)
    (List.length (List.sort_uniq compare Call.all))

(* --- the system-call table ---------------------------------------------------- *)

(* The families, pinned as literal lists: a row that moves a call into
   or out of a family shows here. *)
let test_table_families () =
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "pathname family"
    (sorted
       Sysno.
         [ sys_open; sys_creat; sys_link; sys_unlink; sys_execve; sys_chdir;
           sys_mknod; sys_chmod; sys_chown; sys_access; sys_stat; sys_lstat;
           sys_symlink; sys_readlink; sys_rename; sys_truncate; sys_mkdir;
           sys_rmdir; sys_utimes ])
    Call.pathname_calls;
  Alcotest.(check (list int)) "descriptor family"
    (sorted
       Sysno.
         [ sys_read; sys_write; sys_close; sys_fchdir; sys_lseek; sys_dup;
           sys_dup2; sys_pipe; sys_ioctl; sys_fstat; sys_fcntl; sys_fsync;
           sys_ftruncate; sys_getdirentries; sys_open; sys_creat; sys_bind;
           sys_listen; sys_accept; sys_connect; sys_send; sys_recv;
           sys_shutdown ])
    Call.descriptor_calls;
  Alcotest.(check (list int)) "file calls, ascending"
    Sysno.
      [ sys_read; sys_write; sys_open; sys_close; sys_creat; sys_link;
        sys_unlink; sys_execve; sys_chdir; sys_fchdir; sys_mknod; sys_chmod;
        sys_chown; sys_lseek; sys_access; sys_stat; sys_lstat; sys_dup;
        sys_pipe; sys_ioctl; sys_symlink; sys_readlink; sys_fstat; sys_dup2;
        sys_fcntl; sys_fsync; sys_connect; sys_accept; sys_send; sys_recv;
        sys_bind; sys_listen; sys_rename; sys_truncate; sys_ftruncate;
        sys_shutdown; sys_mkdir; sys_rmdir; sys_utimes; sys_getdirentries ]
    Call.file_calls;
  Alcotest.(check (list int)) "sizes" [ 19; 23; 40; 71 ]
    (List.map List.length
       [ Call.pathname_calls; Call.descriptor_calls; Call.file_calls; Call.all ])

(* Every Linux name strace(1) reports that maps onto a native call, and
   the native calls no Linux name maps onto. *)
let strace_pairs =
  Sysno.
      [ ("read", sys_read); ("write", sys_write); ("open", sys_open);
        ("openat", sys_open); ("creat", sys_creat); ("close", sys_close);
        ("stat", sys_stat); ("stat64", sys_stat); ("newfstatat", sys_stat);
        ("fstatat64", sys_stat); ("statx", sys_stat); ("lstat", sys_lstat);
        ("lstat64", sys_lstat); ("fstat", sys_fstat); ("fstat64", sys_fstat);
        ("access", sys_access); ("faccessat", sys_access);
        ("faccessat2", sys_access); ("unlink", sys_unlink);
        ("unlinkat", sys_unlink); ("mkdir", sys_mkdir); ("mkdirat", sys_mkdir);
        ("rmdir", sys_rmdir); ("rename", sys_rename); ("renameat", sys_rename);
        ("renameat2", sys_rename); ("link", sys_link); ("linkat", sys_link);
        ("symlink", sys_symlink); ("symlinkat", sys_symlink);
        ("readlink", sys_readlink); ("readlinkat", sys_readlink);
        ("chdir", sys_chdir); ("fchdir", sys_fchdir); ("getcwd", sys_getcwd);
        ("chmod", sys_chmod); ("fchmodat", sys_chmod); ("chown", sys_chown);
        ("fchownat", sys_chown); ("lchown", sys_chown);
        ("truncate", sys_truncate); ("ftruncate", sys_ftruncate);
        ("lseek", sys_lseek); ("_llseek", sys_lseek); ("dup", sys_dup);
        ("dup2", sys_dup2); ("dup3", sys_dup2); ("pipe", sys_pipe);
        ("pipe2", sys_pipe); ("fcntl", sys_fcntl); ("fcntl64", sys_fcntl);
        ("select", sys_select); ("pselect6", sys_select);
        ("_newselect", sys_select); ("fsync", sys_fsync);
        ("fdatasync", sys_fsync); ("sync", sys_sync); ("ioctl", sys_ioctl);
        ("mknod", sys_mknod); ("mknodat", sys_mknod); ("umask", sys_umask);
        ("utimes", sys_utimes); ("utimensat", sys_utimes);
        ("utime", sys_utimes); ("getdents", sys_getdirentries);
        ("getdents64", sys_getdirentries); ("getpid", sys_getpid);
        ("getppid", sys_getppid); ("getuid", sys_getuid);
        ("getuid32", sys_getuid); ("geteuid", sys_geteuid);
        ("geteuid32", sys_geteuid); ("getgid", sys_getgid);
        ("getgid32", sys_getgid); ("getegid", sys_getegid);
        ("getegid32", sys_getegid); ("setuid", sys_setuid);
        ("setuid32", sys_setuid); ("getpgrp", sys_getpgrp);
        ("setpgid", sys_setpgrp); ("fork", sys_fork); ("vfork", sys_fork);
        ("clone", sys_fork); ("clone3", sys_fork); ("execve", sys_execve);
        ("wait4", sys_wait4); ("waitpid", sys_wait4); ("kill", sys_kill);
        ("exit", sys_exit); ("exit_group", sys_exit); ("_exit", sys_exit);
        ("gettimeofday", sys_gettimeofday);
        ("clock_gettime", sys_gettimeofday); ("time", sys_gettimeofday);
        ("settimeofday", sys_settimeofday); ("getrusage", sys_getrusage);
        ("alarm", sys_alarm); ("brk", sys_sbrk); ("sbrk", sys_sbrk);
        ("nanosleep", sys_sleepus); ("clock_nanosleep", sys_sleepus);
        ("usleep", sys_sleepus); ("rt_sigaction", sys_sigaction);
        ("sigaction", sys_sigaction); ("rt_sigprocmask", sys_sigprocmask);
        ("sigprocmask", sys_sigprocmask); ("rt_sigpending", sys_sigpending);
        ("sigpending", sys_sigpending); ("rt_sigsuspend", sys_sigsuspend);
        ("sigsuspend", sys_sigsuspend); ("socketpair", sys_socketpair) ]

let test_table_strace_names () =
  List.iter
    (fun (linux, n) ->
      Alcotest.(check (option int)) linux (Some n) (Call.of_linux linux))
    strace_pairs;
  let mapped = List.sort_uniq compare (List.map snd strace_pairs) in
  Alcotest.(check (list int)) "unmapped natives"
    (List.sort compare
       Sysno.
         [ sys_socket; sys_bind; sys_connect; sys_accept; sys_send; sys_recv;
           sys_listen; sys_shutdown; sys_getpagesize; sys_getdtablesize ])
    (List.filter (fun n -> not (List.mem n mapped)) Call.all);
  List.iter
    (fun linux ->
      Alcotest.(check (option int)) linux None (Call.of_linux linux))
    [ "socket"; "bind"; "connect"; "accept"; "send"; "recv"; "listen";
      "shutdown"; "getpagesize"; "getdtablesize"; "epoll_create1" ]

(* Decoding a well-formed wire allocates the typed call and its [Ok],
   and nothing else; a nullary call's [Ok] is built once with the
   table, so decoding one allocates nothing at all. *)
let test_decode_words () =
  let rand = Random.State.make [| 33 |] in
  List.iter
    (fun (num, gen) ->
      let c =
        if num = Sysno.sys_sigaction then
          Call.Sigaction (Signal.sigusr1, None, None)
        else QCheck.Gen.generate1 ~rand gen
      in
      let w = Call.encode c in
      let block = Obj.repr c in
      let expect = if Obj.is_int block then 0 else 1 + Obj.size block + 2 in
      let n = 1000 in
      ignore (Sys.opaque_identity (Call.decode w));
      let m0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Call.decode w))
      done;
      let words = (Gc.minor_words () -. m0) /. float_of_int n in
      Alcotest.(check (float 0.)) (Call.name num) (float_of_int expect) words)
    call_builders

let test_fd_first () =
  Alcotest.(check (list int)) "calls whose first argument is a descriptor"
    (List.sort compare
       Sysno.
         [ sys_read; sys_write; sys_close; sys_fchdir; sys_lseek; sys_dup;
           sys_dup2; sys_ioctl; sys_fstat; sys_fcntl; sys_fsync;
           sys_ftruncate; sys_getdirentries; sys_bind; sys_listen;
           sys_accept; sys_connect; sys_send; sys_recv; sys_shutdown ])
    (List.filter Call.fd_first Call.all)

(* --- cost model -------------------------------------------------------------------- *)

let test_cost_components () =
  Alcotest.(check int) "six components" 6
    (Cost_model.path_components "/usr/lib/pkg/deep/sub/leaf");
  Alcotest.(check int) "dots skipped" 2
    (Cost_model.path_components "/a/./b/");
  Alcotest.(check int) "stat 6-component = 892" 892
    (Cost_model.syscall_us
       (Call.Stat ("/usr/lib/pkg/deep/sub/leaf", ref None)))

let test_cost_components_match_split =
  QCheck.Test.make ~name:"path_components = the split-and-filter count"
    ~count:500
    QCheck.(
      make ~print:(fun s -> s)
        Gen.(string_size ~gen:(oneofl [ '/'; '.'; 'a' ]) (0 -- 12)))
    (fun p ->
      let parts = String.split_on_char '/' p in
      Cost_model.path_components p
      = List.length (List.filter (fun s -> s <> "" && s <> ".") parts))

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
        Alcotest.test_case "open flags" `Quick test_open_flags;
        Alcotest.test_case "open flag names" `Quick test_open_flag_names ];
      "dirent",
      [ qtest test_dirent_roundtrip;
        qtest test_dirent_list_roundtrip;
        qtest test_dirent_alignment;
        Alcotest.test_case "small buffer" `Quick test_dirent_small_buffer ];
      "call",
      [ Alcotest.test_case "roundtrip" `Quick test_call_roundtrip;
        Alcotest.test_case "coverage" `Quick test_builders_cover_interface;
        Alcotest.test_case "row of every constructor" `Quick
          test_row_of_every_constructor;
        qtest test_call_roundtrip_exhaustive;
        qtest test_decode_matches_reference;
        Alcotest.test_case "bad decode" `Quick test_call_decode_bad;
        Alcotest.test_case "pp" `Quick test_call_pp;
        Alcotest.test_case "result shapes" `Quick test_res_shapes;
        Alcotest.test_case "sysno" `Quick test_sysno_table;
        Alcotest.test_case "table families" `Quick test_table_families;
        Alcotest.test_case "table strace names" `Quick test_table_strace_names;
        Alcotest.test_case "table fd first" `Quick test_fd_first;
        Alcotest.test_case "decode words" `Quick test_decode_words ];
      "envelope",
      [ Alcotest.test_case "decode once" `Quick test_envelope_decode_once;
        Alcotest.test_case "lazy encode" `Quick
          test_envelope_of_call_lazy_encode;
        Alcotest.test_case "boundary" `Quick
          test_envelope_boundary_drops_view;
        Alcotest.test_case "typed read" `Quick test_envelope_typed_read;
        Alcotest.test_case "undecodable memoized" `Quick
          test_envelope_undecodable_memoized;
        qtest test_boundary_matches_wire;
        Alcotest.test_case "boundary words" `Quick test_boundary_words ];
      "pool",
      [ Alcotest.test_case "scrub on recycle" `Quick
          test_pool_scrub_on_recycle;
        Alcotest.test_case "boundary reuse" `Quick
          test_pool_boundary_reuse_no_stale;
        Alcotest.test_case "release ownership" `Quick
          test_pool_release_ownership;
        Alcotest.test_case "decode keeps ownership" `Quick
          test_pool_decode_keeps_ownership;
        Alcotest.test_case "capacity" `Quick test_pool_capacity_drop ];
      "env pool",
      [ Alcotest.test_case "reuse and scrub" `Quick
          test_epool_reuse_and_scrub;
        Alcotest.test_case "retained never recycles" `Quick
          test_epool_never_recycles_retained;
        Alcotest.test_case "exposed never recycles" `Quick
          test_epool_never_recycles_exposed;
        Alcotest.test_case "boundary record keeps no wire" `Quick
          test_epool_boundary_record_keeps_no_wire;
        qtest test_epool_model ];
      "bitset",
      [ Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "ops" `Quick test_bitset_ops;
        qtest test_bitset_model ];
      "cost",
      [ Alcotest.test_case "components" `Quick test_cost_components;
        qtest test_cost_components_match_split;
        Alcotest.test_case "known values" `Quick test_cost_known_values;
        qtest test_cost_read_monotonic ] ]
