(* Per-agent behaviour tests: timex, trace, syscount, union,
   dfs_trace (vs the in-kernel collector), sandbox, txn, crypt,
   compress, remap. *)

open Abi
open Tharness

(* --- timex ---------------------------------------------------------------- *)

let test_timex_shifts_time () =
  let day = 86_400 in
  let _, status =
    boot_under_agent
      (Agents.Timex.create ~offset_seconds:day ())
      (fun () ->
        let shifted, _ = check_ok "tod" (Libc.Unistd.gettimeofday ()) in
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
        (* the outer null agent does not change anything; compare with
           a direct reading through both *)
        let shifted2, _ = check_ok "tod" (Libc.Unistd.gettimeofday ()) in
        if shifted2 - shifted >= 0 && shifted2 - shifted < 5 then
          (* now measure the raw clock *)
          let raw =
            let cell = ref None in
            match Kernel.Uspace.htg_syscall (Call.Gettimeofday cell), !cell with
            | Ok _, Some (sec, _) -> sec
            | _ -> 0
          in
          if shifted - raw >= day - 5 && shifted - raw <= day + 5 then 0
          else 1
        else 2)
  in
  check_exit "time shifted by a day" 0 status

let test_timex_leaves_other_calls () =
  let _, status =
    boot_under_agent
      (Agents.Timex.create ~offset_seconds:1000 ())
      (fun () ->
        ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/x" "1"));
        let st = check_ok "stat" (Libc.Unistd.stat "/tmp/x") in
        (* mtime comes from the kernel clock, not the shifted one *)
        if st.Stat.st_size = 1 then 0 else 1)
  in
  check_exit "stat unaffected" 0 status

(* --- trace ------------------------------------------------------------------ *)

let test_trace_emits_two_lines_per_call () =
  let k, status =
    boot (fun () ->
      let log_fd =
        check_ok "open log"
          (Libc.Unistd.open_ "/tmp/trace.log"
             Flags.Open.(o_wronly lor o_creat)
             0o644)
      in
      let agent = Agents.Trace.create ~fd:log_fd () in
      Toolkit.Loader.run_under agent (fun () ->
        ignore (Libc.Unistd.getpid ());
        ignore (Libc.Stdio.write_file "/tmp/y" "data"));
      ignore (Libc.Unistd.close log_fd);
      0)
  in
  check_exit "exit" 0 status;
  let log = read_file_exn k "/tmp/trace.log" in
  let lines = String.split_on_char '\n' log |> List.filter (( <> ) "") in
  let pre =
    List.filter (fun l -> not (String.length l > 3 && String.sub l 0 3 = "...")) lines
  in
  let post = List.filter (fun l -> String.length l > 3 && String.sub l 0 3 = "...") lines in
  Alcotest.(check bool) "balanced pre/post" true
    (List.length pre = List.length post);
  Alcotest.(check bool) "mentions getpid" true
    (List.exists (fun l -> String.length l >= 6 && String.sub l 0 6 = "getpid") pre);
  Alcotest.(check bool) "mentions open" true
    (List.exists
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "open")
       pre)

let test_trace_signal_line () =
  let k, status =
    boot (fun () ->
      let log_fd =
        check_ok "open log"
          (Libc.Unistd.open_ "/tmp/trace.log"
             Flags.Open.(o_wronly lor o_creat)
             0o644)
      in
      let agent = Agents.Trace.create ~fd:log_fd () in
      Toolkit.Loader.run_under agent (fun () ->
        ignore
          (Libc.Unistd.signal Signal.sigusr1 (Value.H_fn (fun _ -> ())));
        ignore (Libc.Unistd.kill (Libc.Unistd.getpid ()) Signal.sigusr1);
        ignore (Libc.Unistd.getpid ()));
      0)
  in
  check_exit "exit" 0 status;
  let log = read_file_exn k "/tmp/trace.log" in
  Alcotest.(check bool) "signal delivery traced" true
    (let needle = "signal SIGUSR1" in
     let nl = String.length needle in
     let rec search i =
       i + nl <= String.length log
       && (String.sub log i nl = needle || search (i + 1))
     in
     search 0)

(* the exact strace-style format is part of the agent's contract,
   buffer tokens included *)
let test_trace_golden_format () =
  let k, status =
    boot (fun () ->
      let log_fd =
        check_ok "open log"
          (Libc.Unistd.open_ "/t.log" Flags.Open.(o_wronly lor o_creat) 0o644)
      in
      Toolkit.Loader.install (Agents.Trace.create ~fd:log_fd ()) ~argv:[||];
      ignore (Libc.Unistd.getpid ());
      (match Libc.Unistd.open_ "/etc/motd" Flags.Open.o_rdonly 0 with
       | Ok fd ->
         let buf = Bytes.create 16 in
         ignore (Libc.Unistd.read fd buf 16);
         ignore (Libc.Unistd.close fd)
       | Error _ -> ());
      ignore (Libc.Unistd.unlink "/no/such/file");
      0)
  in
  ignore (exit_code status);
  Alcotest.(check string) "strace-style format"
    "getpid() ...\n\
     ... getpid -> 1\n\
     open(\"/etc/motd\", O_RDONLY, 00) ...\n\
     ... open -> 4\n\
     read(4, 0x1[16], 16) ...\n\
     ... read -> 16\n\
     close(4) ...\n\
     ... close -> 0\n\
     unlink(\"/no/such/file\") ...\n\
     ... unlink -> -1 ENOENT (No such file or directory)\n\
     exit(0) ...\n"
    (read_file_exn k "/t.log")

(* The buffer token reads no contents: a read buffer is uninitialised
   at entry, so hashing it made every traced run differ.  The same
   session twice must trace byte-identically, a reused buffer must
   keep its token, and a fresh one must get the next. *)
let test_trace_deterministic () =
  let session () =
    let k, status =
      boot (fun () ->
        let log_fd =
          check_ok "open log"
            (Libc.Unistd.open_ "/t.log" Flags.Open.(o_wronly lor o_creat) 0o644)
        in
        Toolkit.Loader.install (Agents.Trace.create ~fd:log_fd ()) ~argv:[||];
        let fd = check_ok "open" (Libc.Unistd.open_ "/etc/motd" Flags.Open.o_rdonly 0) in
        let buf = Bytes.create 64 in
        ignore (Libc.Unistd.read fd buf 8);
        ignore (Libc.Unistd.read fd buf 8);
        ignore (Libc.Unistd.read fd (Bytes.create 64) 8);
        ignore (Libc.Unistd.close fd);
        0)
    in
    check_exit "exit" 0 status;
    read_file_exn k "/t.log"
  in
  let first = session () in
  Alcotest.(check string) "byte-identical across runs" first (session ());
  let reads =
    String.split_on_char '\n' first
    |> List.filter (String.starts_with ~prefix:"read(")
  in
  Alcotest.(check (list string)) "tokens follow buffer identity"
    [ "read(4, 0x1[64], 8) ..."; "read(4, 0x1[64], 8) ...";
      "read(4, 0x2[64], 8) ..." ]
    reads

(* each renderer prints exactly what its Printf directive printed *)
let test_render_matches_printf =
  let open QCheck in
  let ints =
    Gen.(oneof [ return 0; return min_int; return max_int; neg_int; int;
                 small_signed_int ])
  in
  let chars =
    Gen.(oneof [ oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\127'; '\128'; '\255' ];
                 char ])
  in
  Test.make ~name:"renderers match Printf" ~count:1000
    (pair (make ~print:string_of_int ints)
       (make ~print:(Printf.sprintf "%S") Gen.(string_size ~gen:chars (0 -- 24))))
    (fun (n, s) ->
      let r f x = Buffer.contents (f x (Buffer.create 8)) in
      let open Agents.Trace.Render in
      r int n = Printf.sprintf "%d" n
      && r octal n = Printf.sprintf "0%o" n
      && r hex n = Printf.sprintf "0x%x" n
      && r str s = Printf.sprintf "%S" s)

(* --- syscount ----------------------------------------------------------------- *)

let test_syscount_counts () =
  let agent = Agents.Syscount.create () in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.getpid ());
      ignore (Libc.Unistd.getpid ());
      ignore (Libc.Unistd.getuid ());
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check int) "getpid twice" 2 (agent#count_of Sysno.sys_getpid);
  Alcotest.(check int) "getuid once" 1 (agent#count_of Sysno.sys_getuid);
  Alcotest.(check int) "exit once" 1 (agent#count_of Sysno.sys_exit)

(* --- union ----------------------------------------------------------------------- *)

let union_fixture () =
  fun () ->
    ignore (check_ok "mkdir src" (Libc.Unistd.mkdir "/src" 0o755));
    ignore (check_ok "mkdir obj" (Libc.Unistd.mkdir "/obj" 0o755));
    ignore (check_ok "a" (Libc.Stdio.write_file "/src/main.c" "int main;"));
    ignore (check_ok "b" (Libc.Stdio.write_file "/src/util.c" "void u;"));
    ignore (check_ok "c" (Libc.Stdio.write_file "/obj/main.o" "OBJ"));
    ignore
      (check_ok "shadow"
         (Libc.Stdio.write_file "/obj/util.c" "stale copy"))

let union_agent () =
  Agents.Union.create
    ~mounts:[ { Agents.Union.point = "/u"; members = [ "/src"; "/obj" ] } ]
    ()

let test_union_merged_listing () =
  let listing = ref [] in
  let _, status =
    boot_under_agent (union_agent ()) (fun () ->
      union_fixture () ();
      listing := check_ok "names" (Libc.Dirstream.names "/u");
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check (list string)) "union contents (deduped)"
    [ "main.c"; "main.o"; "util.c" ]
    !listing

let test_union_first_member_wins () =
  let k, status =
    boot_under_agent (union_agent ()) (fun () ->
      union_fixture () ();
      (* util.c exists in both members; /src must win *)
      Libc.Stdio.print (check_ok "read" (Libc.Stdio.read_file "/u/util.c"));
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "src wins" "void u;" (Kernel.console_output k)

let test_union_fallthrough_to_second () =
  let k, status =
    boot_under_agent (union_agent ()) (fun () ->
      union_fixture () ();
      Libc.Stdio.print (check_ok "read" (Libc.Stdio.read_file "/u/main.o"));
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "obj provides main.o" "OBJ"
    (Kernel.console_output k)

let test_union_creation_in_first () =
  let k, status =
    boot_under_agent (union_agent ()) (fun () ->
      union_fixture () ();
      ignore (check_ok "create" (Libc.Stdio.write_file "/u/new.txt" "n"));
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "created in /src" "n" (read_file_exn k "/src/new.txt");
  Alcotest.(check bool) "not in /obj" false (Kernel.exists k "/obj/new.txt")

let test_union_stat_through () =
  let _, status =
    boot_under_agent (union_agent ()) (fun () ->
      union_fixture () ();
      let st = check_ok "stat" (Libc.Unistd.stat "/u/main.o") in
      if st.Stat.st_size = 3 then 0 else 1)
  in
  check_exit "stat resolves" 0 status

let test_union_outside_untouched () =
  let _, status =
    boot_under_agent (union_agent ()) (fun () ->
      union_fixture () ();
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/plain" "p"));
      match Libc.Stdio.read_file "/tmp/plain" with
      | Ok "p" -> 0
      | Ok _ | Error _ -> 1)
  in
  check_exit "non-union path" 0 status

(* --- dfs_trace -------------------------------------------------------------------- *)

let test_dfs_trace_records () =
  let agent = Agents.Dfs_trace.create () in
  let k, status =
    boot_under_agent agent ~agent_argv:[| "log=/tmp/dfs.log" |] (fun () ->
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/f1" "hello"));
      ignore (check_ok "read" (Libc.Stdio.read_file "/tmp/f1"));
      ignore (check_ok "stat" (Libc.Unistd.stat "/tmp/f1"));
      ignore (Libc.Unistd.unlink "/tmp/f1");
      0)
  in
  check_exit "exit" 0 status;
  let records = Agents.Dfs_record.parse_all (read_file_exn k "/tmp/dfs.log") in
  let ops = List.map (fun r -> Agents.Dfs_record.op_name r.Agents.Dfs_record.op) records in
  Alcotest.(check bool) "has open" true (List.mem "open" ops);
  Alcotest.(check bool) "has close" true (List.mem "close" ops);
  Alcotest.(check bool) "has stat" true (List.mem "stat" ops);
  Alcotest.(check bool) "has unlink" true (List.mem "unlink" ops);
  (* the close record carries byte totals *)
  let close_totals =
    List.filter_map
      (fun r ->
        match r.Agents.Dfs_record.op with
        | Agents.Dfs_record.R_close (rd, wr) -> Some (rd, wr)
        | _ -> None)
      records
  in
  Alcotest.(check bool) "close byte counts" true
    (List.mem (0, 5) close_totals && List.mem (5, 0) close_totals)

let test_dfs_kernel_vs_agent_equivalence () =
  (* both collectors observe the same workload; the pathname streams
     must match op-for-op *)
  let workload () =
    ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/e" "x"));
    ignore (check_ok "s" (Libc.Unistd.stat "/tmp/e"));
    ignore (Libc.Unistd.unlink "/tmp/e");
    0
  in
  let agent = Agents.Dfs_trace.create () in
  let k1, _ =
    boot_under_agent agent ~agent_argv:[| "log=/tmp/dfs.log" |] workload
  in
  let agent_records =
    Agents.Dfs_record.parse_all (read_file_exn k1 "/tmp/dfs.log")
  in
  let k2 = fresh_kernel () in
  let collector = Agents.Dfs_kernel.install k2 in
  let _ = boot_k k2 workload in
  let kernel_records = Agents.Dfs_kernel.records collector in
  let sig_of filter records =
    List.filter_map
      (fun r ->
        let open Agents.Dfs_record in
        let name = op_name r.op in
        if List.mem name filter then Some (name, r.path) else None)
      records
  in
  (* compare on ops both collectors define identically; the agent's log
     open is invisible to itself but visible to the kernel hook, so
     compare only the workload's own paths *)
  let interesting = [ "stat"; "unlink" ] in
  Alcotest.(check (list (pair string string)))
    "same reference stream"
    (sig_of interesting kernel_records)
    (sig_of interesting agent_records)

(* --- sandbox ------------------------------------------------------------------------ *)

let confined_policy =
  { Agents.Sandbox.readable = [ "/tmp"; "/dev"; "/etc" ];
    writable = [ "/tmp/work" ];
    executable = [];
    max_children = 1;
    max_write_bytes = 100;
    allow_kill_outside = false;
    emulate_denied = false }

let test_sandbox_hides_unreadable () =
  let agent = Agents.Sandbox.create confined_policy in
  let _, status =
    boot_under_agent agent (fun () ->
      match Libc.Unistd.stat "/home" with
      | Error Errno.ENOENT -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "hidden" 0 status;
  Alcotest.(check bool) "violation recorded" true
    (List.mem "read /home" agent#violations)

let test_sandbox_write_denied () =
  let agent = Agents.Sandbox.create confined_policy in
  let k, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.mkdir "/tmp/work" 0o755);
      (match Libc.Stdio.write_file "/tmp/work/ok" "fine" with
       | Ok () -> ()
       | Error _ -> Libc.Unistd._exit 1);
      match Libc.Stdio.write_file "/etc/motd" "defaced" with
      | Error Errno.EPERM -> 0
      | Error _ | Ok _ -> 2)
  in
  check_exit "denied" 0 status;
  Alcotest.(check bool) "motd intact" true
    (read_file_exn k "/etc/motd" <> "defaced")

let test_sandbox_emulates_denied () =
  let policy = { confined_policy with emulate_denied = true } in
  let agent = Agents.Sandbox.create policy in
  let k, status =
    boot_under_agent agent (fun () ->
      (* the untrusted binary "deletes" the motd and believes it *)
      match Libc.Unistd.unlink "/etc/motd" with
      | Ok () -> 0
      | Error _ -> 1)
  in
  check_exit "pretended success" 0 status;
  Alcotest.(check bool) "motd survives" true (Kernel.exists k "/etc/motd")

let test_sandbox_write_budget () =
  let agent = Agents.Sandbox.create confined_policy in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.mkdir "/tmp/work" 0o755);
      let fd =
        check_ok "open"
          (Libc.Unistd.open_ "/tmp/work/big"
             Flags.Open.(o_wronly lor o_creat)
             0o644)
      in
      ignore (check_ok "within budget" (Libc.Unistd.write fd (String.make 90 'a')));
      match Libc.Unistd.write fd (String.make 20 'b') with
      | Error Errno.ENOSPC -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "budget enforced" 0 status

let test_sandbox_fork_limit () =
  let agent = Agents.Sandbox.create confined_policy in
  let _, status =
    boot_under_agent agent (fun () ->
      let ok1 = Libc.Unistd.fork ~child:(fun () -> 0) in
      (match ok1 with
       | Ok pid -> ignore (Libc.Unistd.waitpid pid 0)
       | Error _ -> Libc.Unistd._exit 1);
      match Libc.Unistd.fork ~child:(fun () -> 0) with
      | Error Errno.EAGAIN -> 0
      | Error _ | Ok _ -> 2)
  in
  check_exit "one child only" 0 status

let test_sandbox_exec_denied () =
  let agent = Agents.Sandbox.create confined_policy in
  let k = fresh_kernel () in
  Kernel.register_image k "nop" (fun ~argv:_ ~envp:_ () -> 0);
  Kernel.install_image k ~path:"/tmp/nop" ~image:"nop";
  let status =
    Kernel.boot k ~name:"init" (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      match Libc.Unistd.execv "/tmp/nop" [| "nop" |] with
      | Error Errno.EPERM -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "exec denied" 0 status

(* --- txn --------------------------------------------------------------------------- *)

let test_txn_commit_applies () =
  let agent = Agents.Txn.create () in
  let k, status =
    boot_under_agent agent (fun () ->
      ignore (check_ok "pre" (Libc.Stdio.write_file "/tmp/keep" "old"));
      ignore (check_ok "mod" (Libc.Stdio.write_file "/tmp/keep" "new"));
      ignore (check_ok "create" (Libc.Stdio.write_file "/tmp/fresh" "f"));
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "modification committed" "new"
    (read_file_exn k "/tmp/keep");
  Alcotest.(check string) "creation committed" "f"
    (read_file_exn k "/tmp/fresh")

let test_txn_abort_discards () =
  let agent = Agents.Txn.create ~decide:(fun () -> `Abort) () in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/precious" "original";
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      ignore (check_ok "mod" (Libc.Stdio.write_file "/tmp/precious" "clobbered"));
      ignore (Libc.Unistd.unlink "/tmp/precious");
      ignore (check_ok "mk" (Libc.Stdio.write_file "/tmp/ghost" "boo"));
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "original intact" "original"
    (read_file_exn k "/tmp/precious");
  Alcotest.(check bool) "ghost gone" false (Kernel.exists k "/tmp/ghost")

let test_txn_isolation_during_run () =
  (* inside the session: reads see the overlay; the real fs unchanged *)
  let agent = Agents.Txn.create ~decide:(fun () -> `Abort) () in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/file" "base";
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      ignore (check_ok "mod" (Libc.Stdio.write_file "/tmp/file" "changed"));
      let seen = check_ok "read" (Libc.Stdio.read_file "/tmp/file") in
      let raw =
        (* peek under the overlay *)
        match Kernel.Uspace.htg_syscall
                (Call.Open ("/tmp/file", Flags.Open.o_rdonly, 0))
        with
        | Ok { Value.r0 = fd; _ } ->
          let buf = Bytes.create 32 in
          let n =
            match Kernel.Uspace.htg_syscall (Call.Read (fd, buf, 32)) with
            | Ok { Value.r0; _ } -> r0
            | Error _ -> 0
          in
          ignore (Kernel.Uspace.htg_syscall (Call.Close fd));
          Bytes.sub_string buf 0 n
        | Error _ -> "?"
      in
      if seen = "changed" && raw = "base" then 0 else 1)
  in
  check_exit "overlay isolates" 0 status

let test_txn_unlink_hidden () =
  let agent = Agents.Txn.create ~decide:(fun () -> `Abort) () in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/dir/victim" "v";
  write_file k ~path:"/tmp/dir/other" "o";
  let listing = ref [] in
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      ignore (check_ok "rm" (Libc.Unistd.unlink "/tmp/dir/victim"));
      (match Libc.Unistd.stat "/tmp/dir/victim" with
       | Error Errno.ENOENT -> ()
       | Error _ | Ok _ -> Libc.Unistd._exit 1);
      ignore (check_ok "mk" (Libc.Stdio.write_file "/tmp/dir/newbie" "n"));
      listing := check_ok "ls" (Libc.Dirstream.names "/tmp/dir");
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check (list string)) "listing hides whiteout, shows created"
    [ "newbie"; "other" ] !listing;
  Alcotest.(check bool) "victim still on disk" true
    (Kernel.exists k "/tmp/dir/victim")

let test_txn_commit_deletion () =
  let agent = Agents.Txn.create () in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/doomed" "d";
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      ignore (check_ok "rm" (Libc.Unistd.unlink "/tmp/doomed"));
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check bool) "deletion committed" false
    (Kernel.exists k "/tmp/doomed")

let test_txn_nested () =
  (* inner transaction commits into the outer overlay; the outer abort
     then discards everything *)
  let outer = Agents.Txn.create ~decide:(fun () -> `Abort) () in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/n" "0";
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install outer ~argv:[||];
      let inner = Agents.Txn.create () in
      Toolkit.Loader.run_under inner (fun () ->
        ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/n" "inner"));
        inner#commit);
      (* after the inner commit the outer session sees the change *)
      let seen = check_ok "read" (Libc.Stdio.read_file "/tmp/n") in
      if seen = "inner" then 0 else 1)
  in
  check_exit "inner visible to outer" 0 status;
  Alcotest.(check string) "outer abort wins" "0" (read_file_exn k "/tmp/n")

(* --- crypt ------------------------------------------------------------------------- *)

let test_crypt_roundtrip_and_at_rest () =
  let agent = Agents.Crypt.create ~key:1234 ~subtrees:[ "/tmp/vault" ] in
  let k, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.mkdir "/tmp/vault" 0o755);
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/vault/secret" "attack at dawn"));
      let seen = check_ok "r" (Libc.Stdio.read_file "/tmp/vault/secret") in
      if seen = "attack at dawn" then 0 else 1)
  in
  check_exit "plaintext through agent" 0 status;
  Alcotest.(check bool) "ciphertext at rest" true
    (read_file_exn k "/tmp/vault/secret" <> "attack at dawn");
  Alcotest.(check int) "files protected" 2 agent#files_protected

let test_crypt_seek_read () =
  let agent = Agents.Crypt.create ~key:7 ~subtrees:[ "/tmp/vault" ] in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.mkdir "/tmp/vault" 0o755);
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/vault/f" "0123456789"));
      let fd =
        check_ok "open" (Libc.Unistd.open_ "/tmp/vault/f" Flags.Open.o_rdonly 0)
      in
      ignore (check_ok "seek" (Libc.Unistd.lseek fd 4 Flags.Seek.set));
      let buf = Bytes.create 3 in
      let n = check_ok "read" (Libc.Unistd.read fd buf 3) in
      if Bytes.sub_string buf 0 n = "456" then 0 else 1)
  in
  check_exit "positional decipher" 0 status

let test_crypt_keystream_involutive =
  QCheck.Test.make ~name:"crypt transform involutive" ~count:100
    QCheck.(pair small_int (string_of_size Gen.(0 -- 200)))
    (fun (key, s) ->
      let b = Bytes.of_string s in
      Agents.Crypt.transform ~key ~pos:13 b ~off:0 ~len:(Bytes.length b);
      Agents.Crypt.transform ~key ~pos:13 b ~off:0 ~len:(Bytes.length b);
      Bytes.to_string b = s)

(* --- compress ----------------------------------------------------------------------- *)

let test_rle_roundtrip =
  QCheck.Test.make ~name:"rle roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 500))
    (fun s -> Agents.Rle.decode (Agents.Rle.encode s) = Ok s)

let test_rle_compresses_runs () =
  let s = String.make 1000 'x' in
  let e = Agents.Rle.encode s in
  Alcotest.(check bool) "runs shrink" true (String.length e < 20);
  Alcotest.(check (result string string)) "decodes" (Ok s)
    (Agents.Rle.decode e)

let test_compress_roundtrip_and_header () =
  let agent = Agents.Compress.create ~subtrees:[ "/tmp/arch" ] in
  let text = String.concat "" (List.init 50 (fun _ -> "aaaaabbbbb")) in
  let k, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.mkdir "/tmp/arch" 0o755);
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/arch/f" text));
      let seen = check_ok "r" (Libc.Stdio.read_file "/tmp/arch/f") in
      let st = check_ok "fstat logical" (Libc.Unistd.stat "/tmp/arch/f") in
      ignore st;
      if seen = text then 0 else 1)
  in
  check_exit "transparent" 0 status;
  let stored = read_file_exn k "/tmp/arch/f" in
  Alcotest.(check bool) "stored with header" true
    (String.length stored >= 5 && String.sub stored 0 5 = Agents.Compress.header);
  Alcotest.(check bool) "stored smaller" true
    (String.length stored < String.length text)

let test_compress_legacy_plaintext () =
  let agent = Agents.Compress.create ~subtrees:[ "/tmp/arch" ] in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/arch/old" "plain old data";
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      match Libc.Stdio.read_file "/tmp/arch/old" with
      | Ok "plain old data" -> 0
      | Ok _ | Error _ -> 1)
  in
  check_exit "legacy readable" 0 status

let test_compress_logical_fstat () =
  let agent = Agents.Compress.create ~subtrees:[ "/tmp/arch" ] in
  let text = String.make 400 'z' in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (Libc.Unistd.mkdir "/tmp/arch" 0o755);
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/arch/f" text));
      let fd =
        check_ok "open" (Libc.Unistd.open_ "/tmp/arch/f" Flags.Open.o_rdonly 0)
      in
      let st = check_ok "fstat" (Libc.Unistd.fstat fd) in
      if st.Stat.st_size = 400 then 0 else 1)
  in
  check_exit "logical size" 0 status

(* --- remap (foreign OS emulation) ----------------------------------------------------- *)

let test_foreign_fails_without_agent () =
  let _, status =
    boot (fun () ->
      match Agents.Foreign_abi.Stub.getpid () with
      | Error Errno.ENOSYS -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "bare kernel rejects VOS calls" 0 status

let test_foreign_runs_under_remap () =
  let agent = Agents.Remap.create () in
  let k, status =
    boot_under_agent agent (fun () ->
      let module F = Agents.Foreign_abi.Stub in
      (* a little VOS program: create a file and read it back, with the
         VOS argument order for open *)
      (match
         F.open_ ~mode:0o644
           ~flags:Flags.Open.(o_wronly lor o_creat)
           "/tmp/vos"
       with
       | Ok { Value.r0 = fd; _ } ->
         ignore (F.write fd "from VOS");
         ignore (F.close fd)
       | Error _ -> Libc.Unistd._exit 1);
      (match F.open_ ~mode:0 ~flags:Flags.Open.o_rdonly "/tmp/vos" with
       | Ok { Value.r0 = fd; _ } ->
         let buf = Bytes.create 16 in
         let n =
           match F.read fd buf 16 with
           | Ok { Value.r0; _ } -> r0
           | Error _ -> 0
         in
         ignore (F.close fd);
         Libc.Stdio.print (Bytes.sub_string buf 0 n)
       | Error _ -> Libc.Unistd._exit 2);
      0)
  in
  check_exit "VOS program ran" 0 status;
  Alcotest.(check string) "io worked" "from VOS" (Kernel.console_output k);
  Alcotest.(check bool) "calls translated" true (agent#calls_translated >= 6)

(* --- synthfs (logical devices in user space) ---------------------------------------- *)

let test_synthfs_reads_generated () =
  let agent = Agents.Synthfs.create () in
  let k, status =
    boot_under_agent agent (fun () ->
      match Libc.Stdio.read_file "/proc/self" with
      | Ok s -> (match int_of_string_opt (String.trim s) with
        | Some pid when pid > 0 -> 0
        | Some _ | None -> 1)
      | Error _ -> 2)
  in
  ignore k;
  check_exit "reads own pid" 0 status;
  Alcotest.(check bool) "served" true (agent#opens_served >= 1)

let test_synthfs_listing_and_stat () =
  let agent = Agents.Synthfs.create () in
  let listing = ref [] in
  let _, status =
    boot_under_agent agent (fun () ->
      listing := check_ok "ls /proc" (Libc.Dirstream.names "/proc");
      let st = check_ok "stat" (Libc.Unistd.stat "/proc/loadavg") in
      if Flags.Mode.is_reg st.Stat.st_mode && st.Stat.st_size > 0 then 0
      else 1)
  in
  check_exit "stat synthetic" 0 status;
  Alcotest.(check (list string)) "registered files listed"
    [ "agents"; "loadavg"; "self"; "uptime" ]
    !listing

let test_synthfs_readonly () =
  let agent = Agents.Synthfs.create () in
  let _, status =
    boot_under_agent agent (fun () ->
      (match Libc.Stdio.write_file "/proc/loadavg" "hack" with
       | Error Errno.EROFS -> ()
       | Error _ | Ok _ -> Libc.Unistd._exit 1);
      match Libc.Unistd.unlink "/proc/self" with
      | Error Errno.EROFS -> 0
      | Error _ | Ok _ -> 2)
  in
  check_exit "read-only" 0 status

let test_synthfs_custom_generator () =
  let agent = Agents.Synthfs.create ~mount:"/sys" () in
  let hits = ref 0 in
  agent#register_file "counter" (fun () ->
    incr hits;
    Printf.sprintf "%d\n" !hits);
  let _, status =
    boot_under_agent agent (fun () ->
      let a = check_ok "r1" (Libc.Stdio.read_file "/sys/counter") in
      let b = check_ok "r2" (Libc.Stdio.read_file "/sys/counter") in
      (* generated afresh at each open *)
      if String.trim a = "1" && String.trim b = "2" then 0 else 1)
  in
  check_exit "fresh per open" 0 status

let test_synthfs_other_paths_untouched () =
  let agent = Agents.Synthfs.create () in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/x" "normal"));
      match Libc.Stdio.read_file "/tmp/x" with
      | Ok "normal" -> 0
      | Ok _ | Error _ -> 1)
  in
  check_exit "pass-through" 0 status

(* --- transparency under random file access -----------------------------------
   crypt and compress must be invisible to any access pattern: a random
   sequence of seeks/reads/writes/truncates behaves exactly as on a
   plain file (only the bytes at rest differ). *)

type fop =
  | F_seek of int
  | F_read of int
  | F_write of string
  | F_trunc of int
  | F_reopen

let fop_gen =
  let open QCheck.Gen in
  frequency
    [ 2, map (fun n -> F_seek n) (int_bound 200);
      3, map (fun n -> F_read n) (int_bound 64);
      3, map (fun s -> F_write s)
           (string_size ~gen:(char_range 'a' 'z') (1 -- 50));
      1, map (fun n -> F_trunc n) (int_bound 100);
      1, return F_reopen ]

let run_fops ~agent_mk ops =
  let k = fresh_kernel () in
  let observations = Buffer.create 256 in
  let _ =
    boot_k k (fun () ->
      (match agent_mk with
       | Some mk -> Toolkit.Loader.install (mk ()) ~argv:[||]
       | None -> ());
      ignore (Libc.Unistd.mkdir "/tmp/zone" 0o755);
      let reopen () =
        check_ok "open"
          (Libc.Unistd.open_ "/tmp/zone/f" Flags.Open.(o_rdwr lor o_creat)
             0o644)
      in
      let fd = ref (reopen ()) in
      List.iter
        (fun op ->
          match op with
          | F_seek n ->
            (match Libc.Unistd.lseek !fd n Flags.Seek.set with
             | Ok p -> Buffer.add_string observations (Printf.sprintf "s%d;" p)
             | Error e -> Buffer.add_string observations (Errno.name e))
          | F_read n ->
            let buf = Bytes.create (max n 1) in
            (match Libc.Unistd.read !fd buf n with
             | Ok got ->
               Buffer.add_string observations
                 (Printf.sprintf "r%S;" (Bytes.sub_string buf 0 got))
             | Error e -> Buffer.add_string observations (Errno.name e))
          | F_write s ->
            (match Libc.Unistd.write !fd s with
             | Ok n -> Buffer.add_string observations (Printf.sprintf "w%d;" n)
             | Error e -> Buffer.add_string observations (Errno.name e))
          | F_trunc n ->
            (match Libc.Unistd.ftruncate !fd n with
             | Ok () -> Buffer.add_string observations "t;"
             | Error e -> Buffer.add_string observations (Errno.name e))
          | F_reopen ->
            ignore (Libc.Unistd.close !fd);
            fd := reopen ();
            Buffer.add_string observations "o;")
        ops;
      ignore (Libc.Unistd.close !fd);
      (* final logical content, via a fresh open *)
      (match Libc.Stdio.read_file "/tmp/zone/f" with
       | Ok c -> Buffer.add_string observations (Printf.sprintf "F%S" c)
       | Error e -> Buffer.add_string observations (Errno.name e));
      0)
  in
  Buffer.contents observations

let test_crypt_random_access_transparent =
  QCheck.Test.make ~name:"crypt transparent to any access pattern" ~count:40
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (1 -- 20) fop_gen))
    (fun ops ->
      run_fops ~agent_mk:None ops
      = run_fops
          ~agent_mk:
            (Some
               (fun () ->
                 (Agents.Crypt.create ~key:31337 ~subtrees:[ "/tmp/zone" ]
                   :> Toolkit.Numeric.numeric_syscall)))
          ops)

let test_compress_random_access_transparent =
  QCheck.Test.make ~name:"compress transparent to any access pattern"
    ~count:40
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (1 -- 20) fop_gen))
    (fun ops ->
      run_fops ~agent_mk:None ops
      = run_fops
          ~agent_mk:
            (Some
               (fun () ->
                 (Agents.Compress.create ~subtrees:[ "/tmp/zone" ]
                   :> Toolkit.Numeric.numeric_syscall)))
          ops)

(* --- record/replay ----------------------------------------------------------------- *)

(* a program whose output depends on its inputs: file content + time *)
let observing_program () =
  let content =
    match Libc.Stdio.read_file "/tmp/input" with
    | Ok c -> String.trim c
    | Error e -> "err:" ^ Errno.name e
  in
  let sec =
    match Libc.Unistd.gettimeofday () with
    | Ok (sec, _) -> sec
    | Error _ -> -1
  in
  let size =
    match Libc.Unistd.stat "/tmp/input" with
    | Ok st -> st.Stat.st_size
    | Error _ -> -1
  in
  Libc.Stdio.printf "content=%s sec=%d size=%d\n" content sec size;
  0

let test_record_then_replay_pins_inputs () =
  (* record a run against input "A" at time T *)
  let recorder = Agents.Record_replay.create_recorder () in
  let k1 = fresh_kernel () in
  write_file k1 ~path:"/tmp/input" "AAAA\n";
  let _ =
    boot_k k1 (fun () ->
      Toolkit.Loader.install recorder ~argv:[||];
      observing_program ())
  in
  let original = Kernel.console_output k1 in
  Alcotest.(check bool) "journal nonempty" true (recorder#entries > 0);
  (* replay on a machine where the input file CHANGED *)
  let replayer =
    Agents.Record_replay.create_replayer ~journal:recorder#journal
  in
  let k2 = fresh_kernel () in
  write_file k2 ~path:"/tmp/input" "BBBBBBBB\n";
  let _ =
    boot_k k2 (fun () ->
      Toolkit.Loader.install replayer ~argv:[||];
      (* shift the clock too: replay must pin gettimeofday *)
      ignore (Libc.Unistd.sleep_us 5_000_000);
      observing_program ())
  in
  let replayed = Kernel.console_output k2 in
  Alcotest.(check string) "inputs pinned to the recording" original replayed;
  Alcotest.(check int) "no desyncs" 0 replayer#desyncs;
  Alcotest.(check bool) "entries consumed" true (replayer#consumed > 0)

let test_replay_detects_divergence () =
  let recorder = Agents.Record_replay.create_recorder () in
  let k1 = fresh_kernel () in
  write_file k1 ~path:"/tmp/input" "x";
  let _ =
    boot_k k1 (fun () ->
      Toolkit.Loader.install recorder ~argv:[||];
      ignore (Libc.Stdio.read_file "/tmp/input");
      0)
  in
  let replayer =
    Agents.Record_replay.create_replayer ~journal:recorder#journal
  in
  let k2 = fresh_kernel () in
  write_file k2 ~path:"/tmp/input" "x";
  let _ =
    boot_k k2 (fun () ->
      Toolkit.Loader.install replayer ~argv:[||];
      (* a different program: stats where the recording read *)
      ignore (Libc.Unistd.stat "/tmp/input");
      ignore (Libc.Stdio.read_file "/tmp/input");
      0)
  in
  Alcotest.(check bool) "divergence detected" true (replayer#desyncs > 0)

let test_record_replay_multiprocess () =
  let recorder = Agents.Record_replay.create_recorder () in
  let two_readers () =
    let pid =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           (match Libc.Stdio.read_file "/tmp/input" with
            | Ok c -> Libc.Stdio.printf "child:%s" c
            | Error _ -> ());
           0))
    in
    let _ = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    (match Libc.Stdio.read_file "/tmp/input" with
     | Ok c -> Libc.Stdio.printf "parent:%s" c
     | Error _ -> ());
    0
  in
  let k1 = fresh_kernel () in
  write_file k1 ~path:"/tmp/input" "one\n";
  let _ =
    boot_k k1 (fun () ->
      Toolkit.Loader.install recorder ~argv:[||];
      two_readers ())
  in
  let original = Kernel.console_output k1 in
  let replayer =
    Agents.Record_replay.create_replayer ~journal:recorder#journal
  in
  let k2 = fresh_kernel () in
  write_file k2 ~path:"/tmp/input" "two\n";
  let _ =
    boot_k k2 (fun () ->
      Toolkit.Loader.install replayer ~argv:[||];
      two_readers ())
  in
  Alcotest.(check string) "both processes pinned" original
    (Kernel.console_output k2);
  Alcotest.(check int) "no desyncs" 0 replayer#desyncs

let test_record_replay_fork_desync () =
  (* regression: journals are keyed by pid.  A replayed run that forks
     a DIFFERENT number of children must count desyncs for the extra
     process (served EIO), never feed it another pid's journal. *)
  let reader tag =
    (match Libc.Stdio.read_file "/tmp/input" with
     | Ok c -> Libc.Stdio.printf "%s:%s" tag c
     | Error e -> Libc.Stdio.printf "%s:err=%s" tag (Errno.name e));
    0
  in
  let spawn_readers n () =
    let pids =
      List.init n (fun i ->
          check_ok "fork"
            (Libc.Unistd.fork ~child:(fun () ->
                 reader (Printf.sprintf "c%d" i))))
    in
    List.iter
      (fun pid -> ignore (check_ok "wait" (Libc.Unistd.waitpid pid 0)))
      pids;
    0
  in
  let recorder = Agents.Record_replay.create_recorder () in
  let k1 = fresh_kernel () in
  write_file k1 ~path:"/tmp/input" "one\n";
  let _ =
    boot_k k1 (fun () ->
      Toolkit.Loader.install recorder ~argv:[||];
      spawn_readers 1 ())
  in
  let replayer =
    Agents.Record_replay.create_replayer ~journal:recorder#journal
  in
  let k2 = fresh_kernel () in
  write_file k2 ~path:"/tmp/input" "two\n";
  let _ =
    boot_k k2 (fun () ->
      Toolkit.Loader.install replayer ~argv:[||];
      spawn_readers 2 ())
  in
  let console = Kernel.console_output k2 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh
                   && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "first child pinned to the recording" true
    (contains console "c0:one");
  Alcotest.(check bool) "extra child not fed another pid's journal" true
    (not (contains console "c1:one") && not (contains console "c1:two"));
  Alcotest.(check bool) "extra child sees the desync error" true
    (contains console "c1:err=EIO");
  Alcotest.(check bool) "desyncs counted" true (replayer#desyncs > 0)

(* No layer writes a wire's slots.  An outermost agent reads each
   boundary trap's raw vector, as remap does, and after the recorder
   below (which reads the same wire) and the kernel have served the
   trap, finds every slot as it left it: results reach the program
   through the refs and buffers the slots point at, never by a slot
   being replaced. *)
class wire_watch =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val mutable traps = 0
    val mutable written = 0

    method! agent_name = "wire-watch"
    method! init _argv = self#register_interest_all

    method! syscall env =
      let w = Envelope.wire env in
      let before = Array.copy w.Value.args in
      let res = super#syscall env in
      traps <- traps + 1;
      if not (Array.for_all2 ( == ) before w.Value.args) then
        written <- written + 1;
      res

    method traps = traps
    method written = written
  end

let test_wire_slots_never_written () =
  let recorder = Agents.Record_replay.create_recorder () in
  let watch = new wire_watch in
  let k = fresh_kernel () in
  write_file k ~path:"/tmp/input" "AAAA\n";
  let _ =
    boot_k k (fun () ->
      Toolkit.Loader.install recorder ~argv:[||];
      Toolkit.Loader.install watch ~argv:[||];
      observing_program ())
  in
  Alcotest.(check bool) "journal nonempty" true (recorder#entries > 0);
  Alcotest.(check bool) "traps watched" true (watch#traps > 0);
  Alcotest.(check int) "traps whose wire a layer wrote" 0 watch#written

(* --- record codec ----------------------------------------------------------------------- *)

let test_dfs_record_roundtrip =
  QCheck.Test.make ~name:"dfs record roundtrip" ~count:200
    QCheck.(
      quad small_nat small_nat
        (string_of_size Gen.(1 -- 40))
        (oneofl
           [ Agents.Dfs_record.R_stat;
             Agents.Dfs_record.R_open 5;
             Agents.Dfs_record.R_close (10, 20);
             Agents.Dfs_record.R_rename "/other path";
             Agents.Dfs_record.R_symlink "tgt" ]))
    (fun (serial, pid, path, op) ->
      QCheck.assume (not (String.contains path '\000'));
      let r =
        { Agents.Dfs_record.serial; pid; time_us = 17; path; op; result = 0 }
      in
      Agents.Dfs_record.parse (Agents.Dfs_record.encode r) = Some r)

(* --- sockets under an agent stack ---------------------------------------- *)

let test_sock_inherit_under_stack () =
  (* the full socket rendezvous across fork, under a depth-2 stack: a
     child forked before the parent parks in accept inherits the
     listening descriptor's world and connects to it; a second child
     serves the accepted connection it inherited.  The stack must
     actually have run — [intercepted] proves the traps reached the
     installed handlers. *)
  let k, status =
    boot_under_agent (Agents.Timex.create ~offset_seconds:60 ())
      (fun () ->
        Toolkit.Loader.install (Agents.Syscount.create ()) ~argv:[||];
        let lfd = check_ok "socket" (Libc.Unistd.socket ()) in
        check_ok "bind" (Libc.Unistd.bind lfd "stacked.svc");
        check_ok "listen" (Libc.Unistd.listen lfd 2);
        let client =
          check_ok "fork"
            (Libc.Unistd.fork ~child:(fun () ->
               ignore (Libc.Unistd.close lfd);
               let c = check_ok "socket(c)" (Libc.Unistd.socket ()) in
               check_ok "connect" (Libc.Unistd.connect c "stacked.svc");
               check_ok "send" (Libc.Unistd.send_all c "ping");
               let buf = Bytes.create 4 in
               let n = check_ok "recv" (Libc.Unistd.recv c buf 4) in
               ignore (Libc.Unistd.close c);
               if n = 4 && Bytes.to_string buf = "pong" then 0 else 1))
        in
        (* parked in accept until the child's connect arrives *)
        let s = check_ok "accept" (Libc.Unistd.accept lfd) in
        ignore (Libc.Unistd.close lfd);
        let server =
          check_ok "fork2"
            (Libc.Unistd.fork ~child:(fun () ->
               let buf = Bytes.create 4 in
               let n = check_ok "recv(s)" (Libc.Unistd.recv s buf 4) in
               if n <> 4 || Bytes.to_string buf <> "ping" then 2
               else begin
                 check_ok "send(s)" (Libc.Unistd.send_all s "pong");
                 ignore (Libc.Unistd.close s);
                 0
               end))
        in
        ignore (Libc.Unistd.close s);
        let _, st1 = check_ok "wait" (Libc.Unistd.waitpid client 0) in
        let _, st2 = check_ok "wait2" (Libc.Unistd.waitpid server 0) in
        if Flags.Wait.wexitstatus st1 = 0 && Flags.Wait.wexitstatus st2 = 0
        then 0
        else 3)
  in
  check_exit "rendezvous under stack" 0 status;
  let d = Kernel.codec_stats k in
  Alcotest.(check bool) "handlers engaged" true
    (d.Obs.Codec.intercepted > 0);
  Alcotest.(check int) "every trap counted once"
    d.Obs.Codec.traps
    (d.Obs.Codec.fast_path + d.Obs.Codec.intercepted)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "agents"
    [ "timex",
      [ Alcotest.test_case "shifts gettimeofday" `Quick test_timex_shifts_time;
        Alcotest.test_case "other calls untouched" `Quick
          test_timex_leaves_other_calls ];
      "trace",
      [ Alcotest.test_case "two lines per call" `Quick
          test_trace_emits_two_lines_per_call;
        Alcotest.test_case "signals traced" `Quick test_trace_signal_line;
        Alcotest.test_case "golden format" `Quick test_trace_golden_format;
        Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
        qtest test_render_matches_printf ];
      "syscount",
      [ Alcotest.test_case "counts calls" `Quick test_syscount_counts ];
      "union",
      [ Alcotest.test_case "merged listing" `Quick test_union_merged_listing;
        Alcotest.test_case "first member wins" `Quick
          test_union_first_member_wins;
        Alcotest.test_case "fallthrough" `Quick
          test_union_fallthrough_to_second;
        Alcotest.test_case "create in first" `Quick
          test_union_creation_in_first;
        Alcotest.test_case "stat through" `Quick test_union_stat_through;
        Alcotest.test_case "outside untouched" `Quick
          test_union_outside_untouched ];
      "dfs_trace",
      [ Alcotest.test_case "records emitted" `Quick test_dfs_trace_records;
        Alcotest.test_case "kernel vs agent streams" `Quick
          test_dfs_kernel_vs_agent_equivalence;
        qtest test_dfs_record_roundtrip ];
      "sandbox",
      [ Alcotest.test_case "hides unreadable" `Quick
          test_sandbox_hides_unreadable;
        Alcotest.test_case "write denied" `Quick test_sandbox_write_denied;
        Alcotest.test_case "emulates denied" `Quick
          test_sandbox_emulates_denied;
        Alcotest.test_case "write budget" `Quick test_sandbox_write_budget;
        Alcotest.test_case "fork limit" `Quick test_sandbox_fork_limit;
        Alcotest.test_case "exec denied" `Quick test_sandbox_exec_denied ];
      "txn",
      [ Alcotest.test_case "commit applies" `Quick test_txn_commit_applies;
        Alcotest.test_case "abort discards" `Quick test_txn_abort_discards;
        Alcotest.test_case "isolation" `Quick test_txn_isolation_during_run;
        Alcotest.test_case "unlink hidden" `Quick test_txn_unlink_hidden;
        Alcotest.test_case "commit deletion" `Quick test_txn_commit_deletion;
        Alcotest.test_case "nested" `Quick test_txn_nested ];
      "crypt",
      [ Alcotest.test_case "roundtrip + at rest" `Quick
          test_crypt_roundtrip_and_at_rest;
        Alcotest.test_case "seek read" `Quick test_crypt_seek_read;
        qtest test_crypt_keystream_involutive;
        qtest test_crypt_random_access_transparent ];
      "compress",
      [ qtest test_rle_roundtrip;
        Alcotest.test_case "runs shrink" `Quick test_rle_compresses_runs;
        Alcotest.test_case "roundtrip + header" `Quick
          test_compress_roundtrip_and_header;
        Alcotest.test_case "legacy plaintext" `Quick
          test_compress_legacy_plaintext;
        Alcotest.test_case "logical fstat" `Quick test_compress_logical_fstat;
        qtest test_compress_random_access_transparent ];
      "remap",
      [ Alcotest.test_case "ENOSYS bare" `Quick
          test_foreign_fails_without_agent;
        Alcotest.test_case "VOS under remap" `Quick
          test_foreign_runs_under_remap ];
      "record-replay",
      [ Alcotest.test_case "pins inputs" `Quick
          test_record_then_replay_pins_inputs;
        Alcotest.test_case "detects divergence" `Quick
          test_replay_detects_divergence;
        Alcotest.test_case "multi-process" `Quick
          test_record_replay_multiprocess;
        Alcotest.test_case "fork-count desync" `Quick
          test_record_replay_fork_desync;
        Alcotest.test_case "wire slots never written" `Quick
          test_wire_slots_never_written ];
      "synthfs",
      [ Alcotest.test_case "generated content" `Quick
          test_synthfs_reads_generated;
        Alcotest.test_case "listing + stat" `Quick
          test_synthfs_listing_and_stat;
        Alcotest.test_case "read-only" `Quick test_synthfs_readonly;
        Alcotest.test_case "custom generator" `Quick
          test_synthfs_custom_generator;
        Alcotest.test_case "pass-through" `Quick
          test_synthfs_other_paths_untouched ];
      "sockets-under-stack",
      [ Alcotest.test_case "fork inherit + rendezvous" `Quick
          test_sock_inherit_under_stack ] ]
