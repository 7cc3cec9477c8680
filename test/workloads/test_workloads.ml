(* Workload tests: the utility programs, the scribe formatter, the
   make+cc pipeline and the AFS-style benchmark — including the
   syscall-count and virtual-time calibration the paper's tables rest
   on, and cross-checks of workloads running under agents. *)

open Tharness

let setup_utils () =
  let k = fresh_kernel () in
  Workloads.Progs.install_all k;
  k

(* --- utilities ------------------------------------------------------------ *)

let test_echo_cat () =
  let k = setup_utils () in
  let status =
    boot_k k (fun () ->
      let st =
        check_ok "echo" (Libc.Spawn.run "/bin/echo" [| "echo"; "hi"; "there" |])
      in
      ignore st;
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/f" "file body\n"));
      Libc.Spawn.run_exit_code "/bin/cat" [| "cat"; "/tmp/f" |])
  in
  check_exit "cat ok" 0 status;
  Alcotest.(check string) "output" "hi there\nfile body\n"
    (Kernel.console_output k)

let test_cp_wc () =
  let k = setup_utils () in
  let status =
    boot_k k (fun () ->
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/a" "one two\nthree\n"));
      let rc = Libc.Spawn.run_exit_code "/bin/cp" [| "cp"; "/tmp/a"; "/tmp/b" |] in
      if rc <> 0 then rc
      else Libc.Spawn.run_exit_code "/bin/wc" [| "wc"; "/tmp/b" |])
  in
  check_exit "wc ok" 0 status;
  Alcotest.(check string) "wc output" "      2       3      14 /tmp/b\n"
    (Kernel.console_output k)

let test_ls_long () =
  let k = setup_utils () in
  Kernel.write_file k ~path:"/tmp/dir/x" "1234";
  let status =
    boot_k k (fun () ->
      Libc.Spawn.run_exit_code "/bin/ls" [| "ls"; "-l"; "/tmp/dir" |])
  in
  check_exit "ls ok" 0 status;
  let out = Kernel.console_output k in
  Alcotest.(check bool) "mode string" true
    (String.length out > 10 && String.sub out 0 4 = "-rw-")

let test_sh_pipeline () =
  let k = setup_utils () in
  let status =
    boot_k k (fun () ->
      ignore
        (check_ok "w"
           (Libc.Stdio.write_file "/tmp/words" "alpha\nbeta\ngamma\nbeta2\n"));
      Libc.Spawn.run_exit_code "/bin/sh"
        [| "sh"; "-c"; "cat /tmp/words | grep beta | wc" |])
  in
  check_exit "pipeline ok" 0 status;
  Alcotest.(check string) "two matching lines" "      2       2      11\n"
    (Kernel.console_output k)

let test_sh_split () =
  Alcotest.(check (list (list string)))
    "parser"
    [ [ "cat"; "/f" ]; [ "wc" ] ]
    (Workloads.Progs.sh_split "cat /f | wc ")

let test_sh_redirection () =
  let k = setup_utils () in
  Kernel.write_file k ~path:"/tmp/in" "one two three\n";
  let status =
    boot_k k (fun () ->
      Libc.Spawn.run_exit_code "/bin/sh"
        [| "sh"; "-c"; "cat < /tmp/in > /tmp/out ; wc /tmp/out" |])
  in
  check_exit "sh ok" 0 status;
  Alcotest.(check string) "redirected copy" "one two three\n"
    (read_file_exn k "/tmp/out");
  Alcotest.(check string) "wc of the copy" "      1       3      14 /tmp/out\n"
    (Kernel.console_output k)

let test_sh_append () =
  let k = setup_utils () in
  let status =
    boot_k k (fun () ->
      Libc.Spawn.run_exit_code "/bin/sh"
        [| "sh"; "-c"; "echo first > /tmp/log ; echo second >> /tmp/log" |])
  in
  check_exit "sh ok" 0 status;
  Alcotest.(check string) "appended" "first\nsecond\n"
    (read_file_exn k "/tmp/log")

let test_sh_and_short_circuit () =
  let k = setup_utils () in
  let status =
    boot_k k (fun () ->
      let a =
        Libc.Spawn.run_exit_code "/bin/sh"
          [| "sh"; "-c"; "true && echo ran" |]
      in
      let b =
        Libc.Spawn.run_exit_code "/bin/sh"
          [| "sh"; "-c"; "false && echo not-this" |]
      in
      if a = 0 && b = 1 then 0 else 1)
  in
  check_exit "short-circuit" 0 status;
  Alcotest.(check string) "only the first echo" "ran\n"
    (Kernel.console_output k)

let test_sh_pipeline_into_redirect () =
  let k = setup_utils () in
  Kernel.write_file k ~path:"/tmp/words" "apple\nbanana\navocado\n";
  let status =
    boot_k k (fun () ->
      Libc.Spawn.run_exit_code "/bin/sh"
        [| "sh"; "-c"; "cat /tmp/words | grep a | wc > /tmp/count" |])
  in
  check_exit "sh ok" 0 status;
  Alcotest.(check string) "counted into file" "      3       3      21\n"
    (read_file_exn k "/tmp/count")

let test_ed_interactive_session () =
  (* drive the editor through the console's input queue, like a user
     typing at the terminal *)
  let k = setup_utils () in
  Kernel.feed_console k
    "a\nfirst line\nsecond line\nthird line\n.\nd 2\np\nw /tmp/doc\nq\n";
  let status =
    boot_k k (fun () -> Libc.Spawn.run_exit_code "/bin/ed" [| "ed" |])
  in
  check_exit "ed ok" 0 status;
  Alcotest.(check string) "written file" "first line\nthird line\n"
    (read_file_exn k "/tmp/doc");
  let out = Kernel.console_output k in
  Alcotest.(check bool) "printed numbered buffer" true
    (let needle = "   1  first line\n   2  third line\n" in
     let nl = String.length needle in
     let rec search i =
       i + nl <= String.length out
       && (String.sub out i nl = needle || search (i + 1))
     in
     search 0)

let test_ed_loads_existing_file () =
  let k = setup_utils () in
  Kernel.write_file k ~path:"/tmp/notes" "alpha\nbeta\n";
  Kernel.feed_console k "a\ngamma\n.\nw /tmp/notes\nq\n";
  let status =
    boot_k k (fun () ->
      Libc.Spawn.run_exit_code "/bin/ed" [| "ed"; "/tmp/notes" |])
  in
  check_exit "ed ok" 0 status;
  Alcotest.(check string) "appended" "alpha\nbeta\ngamma\n"
    (read_file_exn k "/tmp/notes")

let test_sh_interactive () =
  let k = setup_utils () in
  Kernel.write_file k ~path:"/tmp/data" "hello\nworld\n";
  Kernel.feed_console k "echo starting\ncat /tmp/data | wc\nexit\n";
  let status =
    boot_k k (fun () -> Libc.Spawn.run_exit_code "/bin/sh" [| "sh" |])
  in
  check_exit "sh repl ok" 0 status;
  let out = Kernel.console_output k in
  Alcotest.(check bool) "prompted and ran" true
    (let needle = "$ starting\n" in
     let nl = String.length needle in
     let rec search i =
       i + nl <= String.length out
       && (String.sub out i nl = needle || search (i + 1))
     in
     search 0)

(* --- scribe ------------------------------------------------------------------ *)

let test_scribe_formats () =
  let k = fresh_kernel () in
  Workloads.Scribe.setup ~params:Workloads.Scribe.quick_params k;
  let status =
    boot_k k (fun () ->
      Workloads.Scribe.body ~params:Workloads.Scribe.quick_params ())
  in
  check_exit "scribe ok" 0 status;
  let out = read_file_exn k Workloads.Scribe.output_path in
  Alcotest.(check bool) "has chapter heading" true
    (String.length out > 0
     &&
     let needle = "Chapter 1." in
     let nl = String.length needle in
     let rec search i =
       i + nl <= String.length out
       && (String.sub out i nl = needle || search (i + 1))
     in
     search 0);
  (* filled lines must respect the 72-column page *)
  List.iter
    (fun line ->
      if String.length line > 72 then
        Alcotest.failf "line exceeds page width: %S" line)
    (String.split_on_char '\n' out)

let test_scribe_calibration () =
  (* the default document must land near the paper's baseline: ≈716
     syscalls and ≈129 virtual seconds *)
  let k = fresh_kernel () in
  Workloads.Scribe.setup k;
  let status = boot_k k (fun () -> Workloads.Scribe.body ()) in
  check_exit "scribe ok" 0 status;
  let calls = Kernel.total_syscalls k in
  let secs = Kernel.elapsed_seconds k in
  if calls < 500 || calls > 1000 then
    Alcotest.failf "syscall count %d outside [500, 1000]" calls;
  if secs < 90.0 || secs > 170.0 then
    Alcotest.failf "virtual time %.1fs outside [90, 170]" secs

let test_scribe_deterministic () =
  let run () =
    let k = fresh_kernel () in
    Workloads.Scribe.setup ~params:Workloads.Scribe.quick_params k;
    let _ =
      boot_k k (fun () ->
        Workloads.Scribe.body ~params:Workloads.Scribe.quick_params ())
    in
    read_file_exn k Workloads.Scribe.output_path, Kernel.elapsed_seconds k
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* --- make ---------------------------------------------------------------------- *)

let test_make_builds_quick () =
  let k = fresh_kernel () in
  Workloads.Make_cc.setup ~params:Workloads.Make_cc.quick_params k;
  let status = boot_k k (fun () -> Workloads.Make_cc.body ()) in
  check_exit "make ok" 0 status;
  Alcotest.(check bool) "prog1 linked" true (Kernel.exists k "/proj/prog1");
  Alcotest.(check bool) "prog2 linked" true (Kernel.exists k "/proj/prog2");
  let exe = read_file_exn k "/proj/prog1" in
  Alcotest.(check bool) "executable magic" true
    (String.length exe > 4 && String.sub exe 0 4 = "\007EXE");
  Alcotest.(check bool) "intermediates present" true
    (Kernel.exists k "/proj/prog1_a.o")

let test_make_up_to_date () =
  let k = fresh_kernel () in
  Workloads.Make_cc.setup ~params:Workloads.Make_cc.quick_params k;
  let _ = boot_k k (fun () -> Workloads.Make_cc.body ()) in
  (* a second run in a fresh session must find everything current *)
  let k2_console_start = String.length (Kernel.console_output k) in
  let status =
    Kernel.boot
      (let k' = k in
       k')
      ~name:"make2" (fun () -> Workloads.Make_cc.body ())
  in
  ignore status;
  let out = Kernel.console_output k in
  let tail = String.sub out k2_console_start (String.length out - k2_console_start) in
  Alcotest.(check bool) "reports up to date" true
    (let needle = "up to date" in
     let nl = String.length needle in
     let rec search i =
       i + nl <= String.length tail
       && (String.sub tail i nl = needle || search (i + 1))
     in
     search 0)

let count_forks k = ignore k

let test_make_calibration () =
  (* default tree: 64 fork/exec pairs, tens of thousands of calls,
     ≈16 virtual seconds *)
  let k = fresh_kernel () in
  Workloads.Make_cc.setup k;
  let status = boot_k k (fun () -> Workloads.Make_cc.body ()) in
  check_exit "make ok" 0 status;
  count_forks k;
  let calls = Kernel.total_syscalls k in
  let secs = Kernel.elapsed_seconds k in
  if calls < 15_000 || calls > 60_000 then
    Alcotest.failf "syscall count %d outside [15k, 60k]" calls;
  if secs < 10.0 || secs > 25.0 then
    Alcotest.failf "virtual time %.1fs outside [10, 25]" secs

let test_make_under_union_split_tree () =
  (* the paper's union motivation: sources in /src, objects in /obj,
     make sees one merged tree.  The table's make-split row moves the
     generated /proj sources into /srcdir; objects land in /objdir
     (first member) *)
  let w = Workloads.Table.Paper.make_split in
  let k = Workloads.Table.prepare w.w_setup in
  Alcotest.(check bool) "/proj moved away" false (Kernel.exists k "/proj");
  (* /proj becomes a union of /objdir (creations) over /srcdir *)
  let agent =
    Agents.Union.create
      ~mounts:
        [ { Agents.Union.point = "/proj"; members = [ "/objdir"; "/srcdir" ] } ]
      ()
  in
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      w.w_body ())
  in
  check_exit "make over union ok" 0 status;
  Alcotest.(check bool) "objects in /objdir" true
    (Kernel.exists k "/objdir/prog1_a.o");
  Alcotest.(check bool) "binary in /objdir" true
    (Kernel.exists k "/objdir/prog1");
  Alcotest.(check bool) "sources untouched" true
    (Kernel.exists k "/srcdir/prog1_a.c"
     && not (Kernel.exists k "/srcdir/prog1_a.o"))

(* --- afs bench -------------------------------------------------------------------- *)

let test_afs_bench_runs () =
  let k = fresh_kernel () in
  Workloads.Afs_bench.setup ~params:Workloads.Afs_bench.quick_params k;
  let status =
    boot_k k (fun () ->
      Workloads.Afs_bench.body ~params:Workloads.Afs_bench.quick_params ())
  in
  check_exit "bench ok" 0 status;
  let out = Kernel.console_output k in
  List.iter
    (fun phase ->
      let needle = Printf.sprintf "phase %d" phase in
      let nl = String.length needle in
      let rec search i =
        i + nl <= String.length out
        && (String.sub out i nl = needle || search (i + 1))
      in
      if not (search 0) then Alcotest.failf "missing %s" needle)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "products written" true
    (Kernel.exists k "/afs/work/dir1/file1.c.o")

let test_afs_copy_faithful () =
  let k = fresh_kernel () in
  Workloads.Afs_bench.setup ~params:Workloads.Afs_bench.quick_params k;
  let _ =
    boot_k k (fun () ->
      Workloads.Afs_bench.body ~params:Workloads.Afs_bench.quick_params ())
  in
  Alcotest.(check string) "copy preserved bytes"
    (read_file_exn k "/afs/src/dir1/file1.c")
    (read_file_exn k "/afs/work/dir1/file1.c")

(* --- workloads under agents: end-to-end sanity -------------------------------------- *)

let test_make_under_trace_is_equivalent () =
  let build k agent_opt =
    Workloads.Make_cc.setup ~params:Workloads.Make_cc.quick_params k;
    let status =
      boot_k k (fun () ->
        (match agent_opt with
         | Some agent -> Toolkit.Loader.install agent ~argv:[||]
         | None -> ());
        Workloads.Make_cc.body ())
    in
    exit_code status, read_file_exn k "/proj/prog1"
  in
  let k1 = fresh_kernel () in
  let plain = build k1 None in
  let k2 = fresh_kernel () in
  let traced =
    build k2
      (Some
         (let a = Agents.Trace.create () in
          (* trace into a file, not the console, to keep outputs equal *)
          a#init [||];
          a#set_output 2;
          (a :> Toolkit.Numeric.numeric_syscall)))
  in
  ignore traced;
  (* under trace the build must still succeed with identical products;
     console differs (trace lines), so compare artifacts only *)
  Alcotest.(check string) "identical binaries" (snd plain) (snd traced);
  Alcotest.(check int) "identical exit" (fst plain) (fst traced)

let test_scribe_under_timex_identical_output () =
  let run agent_opt =
    let k = fresh_kernel () in
    Workloads.Scribe.setup ~params:Workloads.Scribe.quick_params k;
    let _ =
      boot_k k (fun () ->
        (match agent_opt with
         | Some agent -> Toolkit.Loader.install agent ~argv:[||]
         | None -> ());
        Workloads.Scribe.body ~params:Workloads.Scribe.quick_params ())
    in
    read_file_exn k Workloads.Scribe.output_path
  in
  Alcotest.(check string) "same document"
    (run None)
    (run (Some (Agents.Timex.create ~offset_seconds:99999 () :> Toolkit.Numeric.numeric_syscall)))

(* --- kvd: the multi-client socket server -------------------------------------- *)

(* kvd under [params] and [mode] on a kernel the workload table
   prepared; the kernel and the run's stats *)
let kvd_run ~params ~mode =
  let k = Workloads.Table.prepare Workloads.Kvd.setup in
  let stats = Workloads.Kvd.fresh_stats () in
  ignore
    (Kernel.boot k
       ~name:("kvd-" ^ Workloads.Kvd.mode_name mode)
       (fun () -> Workloads.Kvd.body ~params ~stats ~mode ()));
  (k, stats)

let check_kvd_clean ~mode p (stats : Workloads.Kvd.stats) k =
  let open Workloads.Kvd in
  Alcotest.(check int) "every client connected" p.clients stats.conns;
  Alcotest.(check int) "no errors" 0 stats.errors;
  Alcotest.(check int) "all ops answered" (p.clients * p.ops_per_client)
    stats.ops;
  (* every request (the mix plus the final Q) lands one latency sample *)
  Alcotest.(check int) "hist count"
    (p.clients * (p.ops_per_client + 1))
    (Obs.Hist.count stats.hist);
  Alcotest.(check string) "summary"
    (Printf.sprintf "mode=%s clients=%d conns=%d ops=%d errors=%d\n"
       (mode_name mode) p.clients stats.conns stats.ops stats.errors)
    (read_file_exn k summary_path)

let test_kvd_fork_quick () =
  let p = Workloads.Kvd.quick_params in
  let k, stats = kvd_run ~params:p ~mode:Workloads.Kvd.Fork_per_conn in
  check_kvd_clean ~mode:Workloads.Kvd.Fork_per_conn p stats k

let test_kvd_prefork_quick () =
  let p = Workloads.Kvd.quick_params in
  let k, stats = kvd_run ~params:p ~mode:Workloads.Kvd.Prefork in
  check_kvd_clean ~mode:Workloads.Kvd.Prefork p stats k

let test_kvd_fork_1000 () =
  let p = Workloads.Kvd.default_params in
  let _, stats = kvd_run ~params:p ~mode:Workloads.Kvd.Fork_per_conn in
  Alcotest.(check int) "1000 clients served" 1000 stats.Workloads.Kvd.conns;
  Alcotest.(check int) "no errors" 0 stats.Workloads.Kvd.errors

let test_kvd_prefork_1000 () =
  let p = Workloads.Kvd.default_params in
  let _, stats = kvd_run ~params:p ~mode:Workloads.Kvd.Prefork in
  Alcotest.(check int) "1000 clients served" 1000 stats.Workloads.Kvd.conns;
  Alcotest.(check int) "no errors" 0 stats.Workloads.Kvd.errors

let test_kvd_causal_deterministic () =
  let edges () =
    Obs.reset ();
    let k = fresh_kernel () in
    Workloads.Kvd.setup k;
    let _ =
      boot_k k (fun () ->
        Obs.enable ();
        let rc =
          Workloads.Kvd.body ~params:Workloads.Kvd.quick_params
            ~mode:Workloads.Kvd.Fork_per_conn ()
        in
        Obs.disable ();
        rc)
    in
    Obs.Span.edges (Kernel.drain_obs k)
  in
  let render es =
    String.concat "\n"
      (List.map (fun e -> Obs.Span.to_line (Obs.Span.Edge e)) es)
  in
  let a = edges () and b = edges () in
  Alcotest.(check bool) "pipe edges present" true
    (List.exists (fun e -> e.Obs.Causal.ed_kind = Obs.Causal.Pipe) a);
  Alcotest.(check string) "edge table byte-identical" (render a) (render b)

let test_kvd_under_trace_equivalent () =
  let summary agent_opt =
    let k = fresh_kernel () in
    Workloads.Kvd.setup k;
    let _ =
      boot_k k (fun () ->
        (match agent_opt with
         | Some agent -> Toolkit.Loader.install agent ~argv:[||]
         | None -> ());
        Workloads.Kvd.body ~params:Workloads.Kvd.quick_params
          ~mode:Workloads.Kvd.Prefork ())
    in
    read_file_exn k Workloads.Kvd.summary_path
  in
  Alcotest.(check string) "same totals under trace"
    (summary None)
    (summary
       (Some
          (let a = Agents.Trace.create () in
           a#init [||];
           a#set_output 2;
           (a :> Toolkit.Numeric.numeric_syscall))))

(* --- the workload table ------------------------------------------------------ *)

(* Every row's kernel holds the standard tree: init starts with
   descriptors 0-2 open on the terminal and finds /dev/null, the sink
   the trace stacks write to. *)
let test_table_rows_standard () =
  List.iter
    (fun (w : Workloads.Table.workload) ->
      let k = Workloads.Table.prepare w.w_setup in
      let fds = ref [] and null = ref false in
      let status =
        Kernel.boot k ~name:w.w_name (fun () ->
          fds :=
            List.filter
              (fun fd -> Result.is_ok (Libc.Unistd.fstat fd))
              [ 0; 1; 2 ];
          null := Result.is_ok (Libc.Unistd.stat "/dev/null");
          0)
      in
      check_exit (w.w_name ^ ": boots") 0 status;
      Alcotest.(check (list int)) (w.w_name ^ ": init's fds 0-2 open")
        [ 0; 1; 2 ] !fds;
      Alcotest.(check bool) (w.w_name ^ ": /dev/null present") true !null)
    (Workloads.Table.quick @ Workloads.Table.paper)

(* kvd under the trace stack, both server shapes: every write, the
   trace agent's lines and kvd's own replies, goes to a descriptor its
   writer holds.  A trace sink other than /dev/null at the top of the
   table would be a descriptor some kvd process lacks (EBADF) or holds
   as a client's connection. *)
let test_table_kvd_trace_owns_its_fds () =
  List.iter
    (fun mode ->
      let what = "kvd " ^ Workloads.Kvd.mode_name mode in
      let k = Workloads.Table.(prepare Quick.kvd.w_setup) in
      let writes = ref 0 and ebadf = ref 0 in
      Kernel.set_trace_hook k ~cost_us:0
        (Some
           (fun _ call res ->
             match (call, res) with
             | Abi.Call.Write _, Error Abi.Errno.EBADF ->
               incr writes;
               incr ebadf
             | Abi.Call.Write _, _ -> incr writes
             | _ -> ()));
      let status =
        Kernel.boot k ~name:what (fun () ->
          List.iter
            (fun a -> Toolkit.Loader.install a ~argv:[||])
            (Conformance.trace.sk_make ());
          Workloads.Kvd.body ~params:Workloads.Kvd.quick_params ~mode ())
      in
      check_exit (what ^ ": every client served") 0 status;
      Alcotest.(check bool) (what ^ ": writes seen") true (!writes > 0);
      Alcotest.(check int) (what ^ ": writes failing EBADF") 0 !ebadf)
    [ Workloads.Kvd.Fork_per_conn; Workloads.Kvd.Prefork ]

(* --- direct major allocation ------------------------------------------------ *)

(* What a session allocates straight into the major heap: [Gc.counters]'s
   major words less those promoted from the minor heap, with the
   session's trap count and its 4,096-byte reads (a trace hook counts
   them, so a gate fails if the session never reaches the code it
   guards).  A block over 256 words skips the minor heap, so a fresh
   4 KB read chunk (513 words) per whole-file read cost kvd about 12
   words a trap; a chunk borrowed from the shard's pool costs nothing
   once the pool is warm.  [Gc.counters] counts such blocks as they are
   made, where [Gc.quick_stat] may read 0. *)
type major = { chunk_reads : int; direct_words : float; traps : int }

let direct_major (stack : Conformance.stack) setup body =
  let k = fresh_kernel () in
  setup k;
  let chunk_reads = ref 0 in
  Kernel.set_trace_hook k
    (Some
       (fun _ c _ ->
         match c with
         | Abi.Call.Read (_, _, 4096) -> incr chunk_reads
         | _ -> ()));
  let _, promoted0, major0 = Gc.counters () in
  let status =
    Kernel.boot k ~name:"major" (fun () ->
        List.iter
          (fun a -> Toolkit.Loader.install a ~argv:[||])
          (stack.Conformance.sk_make ());
        body ())
  in
  let _, promoted1, major1 = Gc.counters () in
  check_exit (stack.Conformance.sk_name ^ " session") 0 status;
  { chunk_reads = !chunk_reads;
    direct_words = major1 -. major0 -. (promoted1 -. promoted0);
    traps = Kernel.total_syscalls k }

let check_under_one what ~reads ~words ~traps =
  if reads <= 0 then Alcotest.failf "%s: no 4,096-byte read to guard" what;
  let per_trap = words /. float_of_int traps in
  if per_trap >= 1.0 then
    Alcotest.failf "%s: %.2f direct-major words/trap (%d chunk reads)" what
      per_trap reads

(* kvd serves every GET with [read_all] (Kvd.do_get): 64 clients make
   enough traps that the shard's fixed tables weigh little *)
let test_kvd_direct_major () =
  let params = { Workloads.Kvd.quick_params with clients = 64 } in
  List.iter
    (fun (stack : Conformance.stack) ->
      let m =
        direct_major stack
          Workloads.Kvd.setup
          (fun () ->
            Workloads.Kvd.body ~params ~mode:Workloads.Kvd.Fork_per_conn ())
      in
      check_under_one ("kvd " ^ stack.sk_name) ~reads:m.chunk_reads
        ~words:m.direct_words ~traps:m.traps)
    [ Conformance.bare; Conformance.stacked ]

(* Under trace every execve is the toolkit's, which loads the program
   file with [Boilerplate.read_program] in 4,096-byte reads; bare, the
   kernel loads it.  The build's own tools make 4 KB buffers of their
   own, the same in both sessions, so the loader's part is what the
   trace session allocates over the bare one. *)
let test_make_direct_major () =
  let make stack =
    direct_major stack
      (fun k ->
        Workloads.Make_cc.setup ~params:Workloads.Make_cc.quick_params k)
      Workloads.Make_cc.body
  in
  let bare = make Conformance.bare and traced = make Conformance.trace in
  check_under_one "make, the trace agent's exec loader"
    ~reads:(traced.chunk_reads - bare.chunk_reads)
    ~words:(traced.direct_words -. bare.direct_words) ~traps:traced.traps

(* --- file storage ------------------------------------------------------------- *)

(* After a default make build, every regular file holds at most its
   size, one block and a few words: later blocks are whole 4 KB blocks,
   only block 0 is a fragment, and no file sits in an array doubled
   past its size (the .s files filled 32 KB arrays while one was). *)
let test_make_file_storage () =
  let k = fresh_kernel () in
  Workloads.Make_cc.setup k;
  check_exit "make" 0 (boot_k k (fun () -> Workloads.Make_cc.body ()));
  let fs = Kernel.fs k in
  let seen = Hashtbl.create 64 and multi_block = ref 0 in
  let rec walk path ino =
    if not (Hashtbl.mem seen ino) then begin
      Hashtbl.add seen ino ();
      let inode = Vfs.Fs.get_exn fs ino in
      match inode.Vfs.Inode.kind with
      | Vfs.Inode.Reg d ->
        let size = Vfs.Filedata.size d in
        if size > Vfs.Filedata.block then incr multi_block;
        let words = Obj.reachable_words (Obj.repr d) in
        let limit = ((size + Vfs.Filedata.block) / (Sys.word_size / 8)) + 16 in
        if words > limit then
          Alcotest.failf "%s: %d bytes held in %d words (at most %d)" path
            size words limit
      | Vfs.Inode.Dir _ ->
        List.iter
          (fun (name, ino) ->
            if name <> "." && name <> ".." then walk (path ^ "/" ^ name) ino)
          (Vfs.Inode.dir_entries inode)
      | Vfs.Inode.Symlink _ | Vfs.Inode.Chardev _ | Vfs.Inode.Fifo _ -> ()
    end
  in
  walk "" (Vfs.Fs.root_ino fs);
  if !multi_block = 0 then Alcotest.fail "no file of more than one block"

let () =
  Alcotest.run "workloads"
    [ "utilities",
      [ Alcotest.test_case "echo+cat" `Quick test_echo_cat;
        Alcotest.test_case "cp+wc" `Quick test_cp_wc;
        Alcotest.test_case "ls -l" `Quick test_ls_long;
        Alcotest.test_case "sh pipeline" `Quick test_sh_pipeline;
        Alcotest.test_case "sh parser" `Quick test_sh_split;
        Alcotest.test_case "sh redirection" `Quick test_sh_redirection;
        Alcotest.test_case "sh append" `Quick test_sh_append;
        Alcotest.test_case "sh &&" `Quick test_sh_and_short_circuit;
        Alcotest.test_case "sh pipe > file" `Quick
          test_sh_pipeline_into_redirect;
        Alcotest.test_case "ed session" `Quick test_ed_interactive_session;
        Alcotest.test_case "ed loads file" `Quick
          test_ed_loads_existing_file;
        Alcotest.test_case "sh interactive" `Quick test_sh_interactive ];
      "scribe",
      [ Alcotest.test_case "formats" `Quick test_scribe_formats;
        Alcotest.test_case "calibration" `Slow test_scribe_calibration;
        Alcotest.test_case "deterministic" `Quick test_scribe_deterministic ];
      "make",
      [ Alcotest.test_case "builds" `Quick test_make_builds_quick;
        Alcotest.test_case "up to date" `Quick test_make_up_to_date;
        Alcotest.test_case "calibration" `Slow test_make_calibration;
        Alcotest.test_case "union split tree" `Quick
          test_make_under_union_split_tree ];
      "afs",
      [ Alcotest.test_case "five phases" `Quick test_afs_bench_runs;
        Alcotest.test_case "copy faithful" `Quick test_afs_copy_faithful ];
      ( "kvd",
        [ Alcotest.test_case "fork-per-conn quick" `Quick test_kvd_fork_quick;
          Alcotest.test_case "prefork quick" `Quick test_kvd_prefork_quick;
          Alcotest.test_case "fork-per-conn 1000 clients" `Slow
            test_kvd_fork_1000;
          Alcotest.test_case "prefork 1000 clients" `Slow
            test_kvd_prefork_1000;
          Alcotest.test_case "causal edges deterministic" `Quick
            test_kvd_causal_deterministic;
          Alcotest.test_case "under trace equivalent" `Quick
            test_kvd_under_trace_equivalent ] );
      "table",
      [ Alcotest.test_case "every row boots on the standard tree" `Quick
          test_table_rows_standard;
        Alcotest.test_case "kvd under trace owns its descriptors" `Quick
          test_table_kvd_trace_owns_its_fds ];
      "direct-major",
      [ Alcotest.test_case "kvd, bare and stacked" `Quick
          test_kvd_direct_major;
        Alcotest.test_case "make under trace" `Quick test_make_direct_major ];
      "file-storage",
      [ Alcotest.test_case "make build's files" `Quick test_make_file_storage ];
      "under-agents",
      [ Alcotest.test_case "make under trace" `Quick
          test_make_under_trace_is_equivalent;
        Alcotest.test_case "scribe under timex" `Quick
          test_scribe_under_timex_identical_output ] ]
