(* The fault-campaign subsystem: the plan spec, the plan-driven
   injector's determinism, the divergence oracles' four-way
   classification, plan shrinking, and repro bundles replaying
   byte-identically. *)

open Abi
open Tharness
module F = Agents.Faultinject

(* --- the plan spec ------------------------------------------------ *)

let test_plan_spec () =
  match Fault.Plan.of_spec "read#3=fail:EIO;2@write=delay:500" with
  | Ok [ a; b ] ->
    Alcotest.(check bool) "first site" true
      (a = F.site ~kth:3 Sysno.sys_read (F.Fail Errno.EIO));
    Alcotest.(check bool) "second site" true
      (b = F.site ~pid:2 Sysno.sys_write (F.Delay 500))
  | Ok l -> Alcotest.failf "expected 2 sites, got %d" (List.length l)
  | Error msg -> Alcotest.failf "spec did not parse: %s" msg

let test_plan_rejects_garbage () =
  List.iter
    (fun spec ->
      match Fault.Plan.of_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec)
    [ ""; "read"; "read=fail:NOTANERRNO"; "nosuchcall#1=fail:EIO";
      "read#x=fail:EIO"; "read=delay:-5" ]

let site_gen =
  QCheck.Gen.(
    let* num = oneofl Call.all in
    let* pid = int_range 0 5 in
    let* kth = int_range 0 9 in
    let* action =
      oneof
        [ map (fun e -> F.Fail e)
            (oneofl
               [ Errno.EIO; Errno.ENOENT; Errno.EINTR; Errno.ENOSPC;
                 Errno.EACCES ]);
          map (fun us -> F.Delay us) (int_range 0 10_000) ]
    in
    return (F.site ~pid ~kth num action))

let test_plan_spec_roundtrip =
  QCheck.Test.make ~name:"spec round-trip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) site_gen))
    (fun sites -> Fault.Plan.of_spec (Fault.Plan.to_spec sites) = Ok sites)

(* a site no spec can carry is refused, never printed *)
let test_to_spec_refuses_unnamed () =
  List.iter
    (fun s ->
      match Fault.Plan.to_spec [ s ] with
      | text -> Alcotest.failf "printed an unreadable site as %S" text
      | exception Invalid_argument _ -> ())
    [ F.site (Call.max_sysno + 1) (F.Fail Errno.EIO);
      F.site ~kth:(-1) Sysno.sys_read (F.Fail Errno.EIO);
      F.site Sysno.sys_read (F.Delay (-5)) ]

(* --- the plan-driven injector ------------------------------------------- *)

(* read [n] times from one descriptor, one syscall per read, and record
   each outcome as a character *)
let read_outcomes fd n =
  String.concat ""
    (List.init n (fun _ ->
         ignore (Libc.Unistd.lseek fd 0 0);
         match Libc.Unistd.read fd (Bytes.create 4) 4 with
         | Ok _ -> "o"
         | Error e -> Errno.name e ^ ";"))

let test_kth_read_exactly () =
  let agent = F.create [ F.site ~kth:3 Sysno.sys_read (F.Fail Errno.EIO) ] in
  let outcomes = ref "" in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/f" "data"));
      let fd = check_ok "open" (Libc.Unistd.open_ "/tmp/f" 0 0) in
      outcomes := read_outcomes fd 5;
      ignore (Libc.Unistd.close fd);
      0)
  in
  check_exit "session survives" 0 status;
  Alcotest.(check string) "only the 3rd read fails" "ooEIO;oo" !outcomes;
  Alcotest.(check int) "one injection" 1 agent#total_injected

(* A listing that needs a second getdirentries buffer is whole or an
   errno: when the second call fails, ls reports the errno and exits 1
   instead of printing the first buffer's names as the directory. *)
let test_ls_second_getdirentries_fails () =
  let plan =
    match Fault.Plan.of_spec "getdirentries#2=fail:EIO" with
    | Ok plan -> plan
    | Error msg -> Alcotest.failf "spec did not parse: %s" msg
  in
  let agent = F.create plan in
  let k = fresh_kernel () in
  Workloads.Progs.install_all k;
  (* 40 sixteen-byte records and "." and ".." overflow one 512-byte
     buffer *)
  for i = 0 to 39 do
    Kernel.write_file k ~path:(Printf.sprintf "/tmp/big/file%02d" i) ""
  done;
  let status =
    boot_k k (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      Libc.Spawn.run_exit_code "/bin/ls" [| "ls"; "/tmp/big" |])
  in
  check_exit "ls fails" 1 status;
  Alcotest.(check string) "the errno, no partial listing"
    "ls: /tmp/big: Input/output error\n" (Kernel.console_output k);
  Alcotest.(check int) "one injection" 1 agent#total_injected

let test_pid_scoped_site () =
  (* pid 2 (the child) sees the fault, pid 1 does not *)
  let agent = F.create [ F.site ~pid:2 ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ] in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/f" "data"));
      let child =
        check_ok "fork"
          (Libc.Unistd.fork ~child:(fun () ->
               match Libc.Stdio.read_file "/tmp/f" with
               | Error Errno.EIO -> 7
               | Ok _ | Error _ -> 1))
      in
      let _, st = check_ok "wait" (Libc.Unistd.waitpid child 0) in
      if Flags.Wait.wexitstatus st <> 7 then 1
      else
        (match Libc.Stdio.read_file "/tmp/f" with
         | Ok "data" -> 0
         | Ok _ | Error _ -> 2))
  in
  check_exit "child faulted, parent clean" 0 status

let test_duplicated_candidates () =
  (* regression: a plan that repeats a call's sites must not skew
     interests or bookkeeping — one bitset is the single truth source,
     and the first matching site alone fires on a trap *)
  let agent =
    F.create
      [ F.site Sysno.sys_read (F.Fail Errno.EIO);
        F.site Sysno.sys_read (F.Fail Errno.EIO);
        F.site Sysno.sys_write (F.Fail Errno.EIO);
        F.site Sysno.sys_read (F.Fail Errno.EIO);
        F.site Sysno.sys_write (F.Fail Errno.EIO) ]
  in
  let failures = ref 0 in
  let _, status =
    boot_under_agent agent (fun () ->
      (match Libc.Stdio.write_file "/tmp/f" "x" with
       | Error _ -> incr failures
       | Ok () -> ());
      (match Libc.Stdio.read_file "/tmp/f" with
       | Error _ -> incr failures
       | Ok _ -> ());
      0)
  in
  check_exit "survives" 0 status;
  let interests = agent#interests in
  Alcotest.(check int) "duplicates absorbed in interests" 2
    (List.length
       (List.filter
          (fun n -> n = Sysno.sys_read || n = Sysno.sys_write)
          interests));
  Alcotest.(check int) "the write and the read failed" 2 !failures;
  Alcotest.(check int) "each failure counted once" !failures
    agent#total_injected

let test_eintr_restart_pair () =
  (* an injected EINTR on read is invisibly restarted (BSD restart
     policy); on sleepus it surfaces, as from a real interruption *)
  let agent = F.create [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EINTR) ] in
  let _, status =
    boot_under_agent agent (fun () ->
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/f" "data"));
      match Libc.Stdio.read_file "/tmp/f" with
      | Ok "data" -> 0
      | Ok _ -> 1
      | Error e -> 10 + Errno.to_int e)
  in
  check_exit "read restarted, app saw data" 0 status;
  Alcotest.(check int) "policy absorbed it" 1 agent#restarted;
  Alcotest.(check int) "nothing surfaced" 0 agent#total_injected;
  let agent = F.create [ F.site ~kth:1 Sysno.sys_sleepus (F.Fail Errno.EINTR) ] in
  let _, status =
    boot_under_agent agent (fun () ->
      match Libc.Unistd.sleep_us 5_000 with
      | Error Errno.EINTR -> 0
      | Ok () -> 1
      | Error _ -> 2)
  in
  check_exit "sleepus surfaced EINTR" 0 status;
  Alcotest.(check int) "sleepus injection surfaced" 1 agent#total_injected;
  Alcotest.(check int) "no restart" 0 agent#restarted

let test_epipe_never_restarted () =
  (* writes restart under injected EINTR, but EPIPE pierces the restart
     policy whatever the call: re-issuing a write that broke the pipe
     can only break it again *)
  Alcotest.(check bool) "EINTR write restarts" true
    (Kernel.Syscalls.restartable ~errno:Errno.EINTR Sysno.sys_write);
  Alcotest.(check bool) "EPIPE write does not" false
    (Kernel.Syscalls.restartable ~errno:Errno.EPIPE Sysno.sys_write);
  Alcotest.(check bool) "EPIPE send does not" false
    (Kernel.Syscalls.restartable ~errno:Errno.EPIPE Sysno.sys_send);
  let agent =
    F.create [ F.site ~kth:1 Sysno.sys_write (F.Fail Errno.EPIPE) ]
  in
  let _, status =
    boot_under_agent agent (fun () ->
      let fd =
        check_ok "open"
          (Libc.Unistd.open_ "/tmp/out"
             Flags.Open.(o_wronly lor o_creat) 0o644)
      in
      match Libc.Unistd.write fd "data" with
      | Error Errno.EPIPE ->
        (match Libc.Unistd.close fd with Ok () -> 0 | Error _ -> 3)
      | Ok _ -> 1
      | Error _ -> 2)
  in
  check_exit "EPIPE surfaced to the caller" 0 status;
  Alcotest.(check int) "surfaced, not absorbed" 1 agent#total_injected;
  Alcotest.(check int) "never restarted" 0 agent#restarted

let elapsed_us k = int_of_float (Kernel.elapsed_seconds k *. 1e6 +. 0.5)

let test_injected_failure_charges_time () =
  (* a faulted read must not be cheaper than the interception it rode
     in on: the injected-error path charges the intercept cost *)
  let session with_read =
    let agent = F.create [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ] in
    let k = fresh_kernel () in
    Kernel.write_file k ~path:"/tmp/f" "data";
    let _ =
      boot_k k (fun () ->
        Toolkit.Loader.install agent ~argv:[||];
        let fd = check_ok "open" (Libc.Unistd.open_ "/tmp/f" 0 0) in
        if with_read then
          (match Libc.Unistd.read fd (Bytes.create 4) 4 with
           | Error Errno.EIO -> ()
           | Ok _ | Error _ -> Libc.Unistd._exit 9);
        ignore (Libc.Unistd.close fd);
        0)
    in
    elapsed_us k
  in
  let faulted_read_us = session true - session false in
  Alcotest.(check bool)
    (Printf.sprintf "faulted read costs >= 2x intercept (got %d us)"
       faulted_read_us)
    true
    (faulted_read_us >= 2 * Cost_model.intercept_us)

let test_delay_charges_latency () =
  let delay = 10_000 in
  let session sites =
    let agent = F.create sites in
    let k = fresh_kernel () in
    Kernel.write_file k ~path:"/tmp/f" "data";
    let _ =
      boot_k k (fun () ->
        Toolkit.Loader.install agent ~argv:[||];
        (match Libc.Stdio.read_file "/tmp/f" with
         | Ok "data" -> ()
         | Ok _ | Error _ -> Libc.Unistd._exit 9);
        0)
    in
    elapsed_us k
  in
  let slow = session [ F.site ~kth:1 Sysno.sys_read (F.Delay delay) ] in
  let fast = session [ F.site ~kth:99 Sysno.sys_read (F.Delay delay) ] in
  Alcotest.(check bool) "delay charged to virtual time" true
    (slow - fast >= delay)

let test_planned_deterministic () =
  let run () =
    let agent =
      F.create
        [ F.site ~kth:2 Sysno.sys_read (F.Fail Errno.EIO);
          F.site ~kth:4 Sysno.sys_read (F.Fail Errno.ENOENT) ]
    in
    let outcomes = ref "" in
    let _ =
      boot (fun () ->
        Toolkit.Loader.install agent ~argv:[||];
        ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/f" "data"));
        let fd = check_ok "open" (Libc.Unistd.open_ "/tmp/f" 0 0) in
        outcomes := read_outcomes fd 6;
        ignore (Libc.Unistd.close fd);
        0)
    in
    !outcomes
  in
  Alcotest.(check string) "same plan, same run" (run ()) (run ());
  Alcotest.(check string) "expected pattern" "oEIO;oENOENT;oo" (run ())

(* --- oracles and classification ----------------------------------------- *)

let wl name ?(output = "") body =
  { Workloads.Table.w_name = name;
    w_setup = (fun k -> Kernel.write_file k ~path:"/tmp/in" "payload");
    w_body = body;
    w_output = output }

let classify_under w sites =
  let clean = (Fault.Campaign.clean_run w).Fault.Campaign.r_report in
  Fault.Campaign.run_plan ~mode:Fault.Campaign.Bare ~clean w sites

let outcome_t =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Fault.Oracle.outcome_name o))
    ( = )

let test_classify_tolerated_absorbed () =
  (* EINTR on read is absorbed by the restart policy: run is
     indistinguishable from fault-free *)
  let w =
    wl "absorb" (fun () ->
        match Libc.Stdio.read_file "/tmp/in" with
        | Ok "payload" -> 0
        | Ok _ | Error _ -> 1)
  in
  let r =
    classify_under w [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EINTR) ]
  in
  Alcotest.check outcome_t "absorbed" Fault.Oracle.Tolerated
    r.Fault.Campaign.r_outcome

let test_classify_tolerated_reported () =
  let w =
    wl "report" (fun () ->
        match Libc.Stdio.read_file "/tmp/in" with
        | Ok _ -> 0
        | Error e ->
          Libc.Stdio.eprintf "report: %s\n" (Errno.name e);
          1)
  in
  let r =
    classify_under w [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ]
  in
  Alcotest.check outcome_t "reported" Fault.Oracle.Tolerated
    r.Fault.Campaign.r_outcome;
  Alcotest.(check bool) "detail says reported" true
    (String.length r.Fault.Campaign.r_detail > 0
     && String.sub r.Fault.Campaign.r_detail 0 7 = "failure")

let test_classify_wrong_result () =
  (* swallows the error and claims success with truncated output *)
  let w =
    wl "silent" ~output:"/tmp/out" (fun () ->
        let content =
          match Libc.Stdio.read_file "/tmp/in" with
          | Ok c -> c
          | Error _ -> ""
        in
        ignore (Libc.Stdio.write_file "/tmp/out" content);
        0)
  in
  let r =
    classify_under w [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ]
  in
  Alcotest.check outcome_t "silent corruption" Fault.Oracle.Wrong_result
    r.Fault.Campaign.r_outcome

let test_classify_hang () =
  let w =
    wl "hang" (fun () ->
        match Libc.Stdio.read_file "/tmp/in" with
        | Ok _ -> 0
        | Error _ ->
          (* "retry loop" that waits on a pipe nobody writes *)
          let r, _w = check_ok "pipe" (Libc.Unistd.pipe ()) in
          ignore (Libc.Unistd.read r (Bytes.create 1) 1);
          1)
  in
  let r =
    classify_under w [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ]
  in
  Alcotest.check outcome_t "deadlocked" Fault.Oracle.Hang
    r.Fault.Campaign.r_outcome

let test_classify_crash () =
  let w =
    wl "crash" (fun () ->
        match Libc.Stdio.read_file "/tmp/in" with
        | Ok _ -> 0
        | Error _ -> failwith "unhandled")
  in
  let r =
    classify_under w [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ]
  in
  Alcotest.check outcome_t "uncaught exception is a crash"
    Fault.Oracle.Crash r.Fault.Campaign.r_outcome

let test_classify_unreaped () =
  let w =
    wl "orphan" (fun () ->
        let child =
          check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 0))
        in
        match Libc.Stdio.read_file "/tmp/in" with
        | Ok _ ->
          let _ = check_ok "wait" (Libc.Unistd.waitpid child 0) in
          0
        | Error _ -> 0 (* "forgets" to reap on the error path *))
  in
  let r =
    classify_under w [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ]
  in
  Alcotest.check outcome_t "unreaped child" Fault.Oracle.Wrong_result
    r.Fault.Campaign.r_outcome;
  Alcotest.(check bool) "detail names the zombie" true
    (r.Fault.Campaign.r_detail = "1 unreaped child process(es)")

(* --- discovery, sweep, shrink -------------------------------------------- *)

let test_baseline_profile () =
  let b = Fault.Campaign.baseline Workloads.Table.Quick.scribe in
  Alcotest.check outcome_t "fault-free run tolerated"
    Fault.Oracle.Tolerated b.Fault.Campaign.b_run.Fault.Campaign.r_outcome;
  let calls n =
    Option.value ~default:0 (List.assoc_opt n b.Fault.Campaign.b_profile)
  in
  Alcotest.(check bool) "reads discovered" true (calls Sysno.sys_read > 0);
  Alcotest.(check bool) "writes discovered" true (calls Sysno.sys_write > 0);
  Alcotest.(check bool) "journal recorded" true
    (String.length b.Fault.Campaign.b_run.Fault.Campaign.r_journal > 0)

let test_sweep_classifies_everything () =
  let _, cases =
    Fault.Campaign.sweep ~errnos:[ Errno.EIO; Errno.ENOENT; Errno.EINTR ]
      Workloads.Table.Quick.scribe
  in
  Alcotest.(check bool) "swept a real site grid" true
    (List.length cases >= 9);
  (* classification is total by construction; the point of record is
     that every case carries a nonempty detail and the counters add
     up *)
  List.iter
    (fun (c : Fault.Campaign.case) ->
      Alcotest.(check bool) "has detail" true
        (String.length c.c_run.Fault.Campaign.r_detail > 0))
    cases;
  let count o =
    List.length
      (List.filter
         (fun (c : Fault.Campaign.case) ->
           c.c_run.Fault.Campaign.r_outcome = o)
         cases)
  in
  Alcotest.(check bool) "some faults tolerated" true
    (count Fault.Oracle.Tolerated > 0);
  Alcotest.(check bool) "some faults break the run silently" true
    (count Fault.Oracle.Wrong_result > 0)

let test_kvd_conn_sweep () =
  (* connection-level sites over the socket workload: discovery must
     find accept/recv/send traffic, and every injected run must come
     back classified with the workload still terminating *)
  let baseline, cases =
    Fault.Campaign.sweep ~candidates:Fault.Campaign.conn_candidates
      ~per_sysno:2 ~errnos:[ Errno.ECONNRESET; Errno.EINTR ]
      Workloads.Table.Quick.kvd
  in
  let calls n =
    Option.value ~default:0
      (List.assoc_opt n baseline.Fault.Campaign.b_profile)
  in
  Alcotest.(check bool) "accepts discovered" true
    (calls Sysno.sys_accept > 0);
  Alcotest.(check bool) "recvs discovered" true (calls Sysno.sys_recv > 0);
  Alcotest.(check bool) "sends discovered" true (calls Sysno.sys_send > 0);
  Alcotest.(check bool) "swept a real grid" true (List.length cases >= 6);
  List.iter
    (fun (c : Fault.Campaign.case) ->
      Alcotest.(check bool) "has detail" true
        (String.length c.c_run.Fault.Campaign.r_detail > 0))
    cases;
  (* an injected EINTR on a restartable call must be absorbable *)
  Alcotest.(check bool) "some faults tolerated" true
    (List.exists
       (fun (c : Fault.Campaign.case) ->
         c.c_run.Fault.Campaign.r_outcome = Fault.Oracle.Tolerated)
       cases)

let test_shrink_to_minimal () =
  let w =
    wl "crash" (fun () ->
        match Libc.Stdio.read_file "/tmp/in" with
        | Ok _ -> 0
        | Error _ -> failwith "unhandled")
  in
  let clean = (Fault.Campaign.clean_run w).Fault.Campaign.r_report in
  let guilty = F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) in
  let sites =
    [ F.site ~kth:1 Sysno.sys_open (F.Delay 100);
      guilty;
      F.site ~kth:50 Sysno.sys_write (F.Fail Errno.ENOSPC) ]
  in
  let full = Fault.Campaign.run_plan ~mode:Fault.Campaign.Bare ~clean w sites in
  Alcotest.check outcome_t "full plan crashes" Fault.Oracle.Crash
    full.Fault.Campaign.r_outcome;
  let minimal =
    Fault.Campaign.shrink w ~clean ~outcome:Fault.Oracle.Crash sites
  in
  Alcotest.(check bool) "shrunk to the one guilty site" true
    (minimal = [ guilty ])

(* --- repro bundles -------------------------------------------------------- *)

let first_failing cases =
  List.find_opt
    (fun (c : Fault.Campaign.case) ->
      match c.c_run.Fault.Campaign.r_outcome with
      | Fault.Oracle.Tolerated -> false
      | _ -> true)
    cases

let test_bundle_roundtrip_and_replay () =
  let _, cases = Fault.Campaign.sweep Workloads.Table.Quick.scribe in
  match first_failing cases with
  | None -> Alcotest.fail "sweep produced no failing case to bundle"
  | Some c ->
    let b = Fault.Bundle.of_run ~workload:"scribe" c.c_run in
    let text = Fault.Bundle.to_string b in
    (match Fault.Bundle.of_string text with
     | Error msg -> Alcotest.failf "bundle did not parse back: %s" msg
     | Ok b' ->
       Alcotest.(check bool) "bundle round-trips" true (b' = b);
       (match Fault.Bundle.replay b' with
        | Error msg -> Alcotest.failf "replay refused: %s" msg
        | Ok replayed ->
          (match Fault.Bundle.verify b' replayed with
           | Ok () -> ()
           | Error msg ->
             Alcotest.failf "replay not byte-identical: %s" msg);
          Alcotest.(check int) "no desyncs during replay" 0
            replayed.Fault.Campaign.r_desyncs))

let test_bundle_rejects_garbage () =
  List.iter
    (fun text ->
      match Fault.Bundle.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bundle %S should not parse" text)
    [ "W scribe\n"; "O wrong-result\nE 0\n"; "W scribe\nO nonsense\nE 0\n";
      "W scribe\nO crash\nE 0\nH output zz\nH console zz\nX what\n";
      (* a v1 plan line: sites are specs since v2 *)
      "W scribe\nO crash\nE 0\nH output zz\nH console zz\n\
       F 0 3 4 fail:EIO\n";
      "W scribe\nO crash\nE 0\nH output zz\nH console zz\n\
       F read=fail:EIO;write=fail:EIO\n" ]

(* --- obs integration ------------------------------------------------------- *)

let test_obs_counts_injections () =
  Obs.reset ();
  Obs.enable ();
  let agent = F.create [ F.site ~kth:1 Sysno.sys_read (F.Fail Errno.EIO) ] in
  let _ =
    boot (fun () ->
      Toolkit.Loader.install agent ~argv:[||];
      ignore (check_ok "w" (Libc.Stdio.write_file "/tmp/f" "x"));
      (match Libc.Stdio.read_file "/tmp/f" with
       | Error Errno.EIO -> ()
       | Ok _ | Error _ -> Libc.Unistd._exit 9);
      0)
  in
  let m = Obs.metrics () in
  let marks =
    List.filter
      (fun (r : Obs.Span.record) ->
        match r with
        | Obs.Span.Mark m -> m.Obs.Span.m_kind = "inject"
        | _ -> false)
      (Obs.records ())
  in
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check int) "metrics count the injection" 1 m.Obs.m_injected;
  Alcotest.(check int) "span carries an inject mark" 1 (List.length marks)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fault"
    [ "plan",
      [ Alcotest.test_case "spec form" `Quick test_plan_spec;
        Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
        Alcotest.test_case "unreadable site refused" `Quick
          test_to_spec_refuses_unnamed;
        qtest test_plan_spec_roundtrip ];
      "injector",
      [ Alcotest.test_case "k-th call exactly" `Quick test_kth_read_exactly;
        Alcotest.test_case "pid-scoped site" `Quick test_pid_scoped_site;
        Alcotest.test_case "ls: failing getdirentries" `Quick
          test_ls_second_getdirentries_fails;
        Alcotest.test_case "duplicated candidates" `Quick
          test_duplicated_candidates;
        Alcotest.test_case "EINTR restart pair" `Quick test_eintr_restart_pair;
        Alcotest.test_case "EPIPE never restarted" `Quick
          test_epipe_never_restarted;
        Alcotest.test_case "failure charges time" `Quick
          test_injected_failure_charges_time;
        Alcotest.test_case "delay charges latency" `Quick
          test_delay_charges_latency;
        Alcotest.test_case "deterministic" `Quick test_planned_deterministic ];
      "oracle",
      [ Alcotest.test_case "tolerated (absorbed)" `Quick
          test_classify_tolerated_absorbed;
        Alcotest.test_case "tolerated (reported)" `Quick
          test_classify_tolerated_reported;
        Alcotest.test_case "wrong-result" `Quick test_classify_wrong_result;
        Alcotest.test_case "hang" `Quick test_classify_hang;
        Alcotest.test_case "crash" `Quick test_classify_crash;
        Alcotest.test_case "unreaped child" `Quick test_classify_unreaped ];
      "campaign",
      [ Alcotest.test_case "baseline profile" `Quick test_baseline_profile;
        Alcotest.test_case "sweep classifies" `Quick
          test_sweep_classifies_everything;
        Alcotest.test_case "kvd connection sweep" `Quick test_kvd_conn_sweep;
        Alcotest.test_case "shrink" `Quick test_shrink_to_minimal ];
      "bundle",
      [ Alcotest.test_case "round-trip + replay" `Quick
          test_bundle_roundtrip_and_replay;
        Alcotest.test_case "rejects garbage" `Quick
          test_bundle_rejects_garbage ];
      "obs",
      [ Alcotest.test_case "injected counter + mark" `Quick
          test_obs_counts_injections ] ]
