(* The conformance subsystem: signature capture and serialization, the
   delta algebra's normalization, the differential checker over real
   agent stacks (including a deliberately buggy one), and the strace
   importer's parse/replay path. *)

open Abi
module Sig = Conformance.Signature

let qtest = QCheck_alcotest.to_alcotest

(* --- generators ---------------------------------------------------------- *)

let some_sysnos =
  [ Sysno.sys_read; Sysno.sys_write; Sysno.sys_open; Sysno.sys_close;
    Sysno.sys_stat; Sysno.sys_getpid; Sysno.sys_gettimeofday;
    Sysno.sys_exit ]

let some_shapes = [ ""; "i3"; "i3,b2^9,i2^9"; "p2.mss,i0,i2^8"; "tv"; "st" ]

(* raw event tuples: errno −1 is a Noreturn outcome, 0 success *)
let gen_raw_events =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (map
         (fun (pid, (sysno_i, (shape_i, errno))) ->
           (pid, List.nth some_sysnos (sysno_i mod List.length some_sysnos),
            List.nth some_shapes (shape_i mod List.length some_shapes),
            errno))
         (pair (int_range 1 9)
            (pair (int_range 0 7) (pair (int_range 0 5) (int_range (-1) 40))))))

let signature_of_raw raw =
  (* x_seq numbered the way the recorder numbers issued traps *)
  Sig.of_events
    (List.mapi
       (fun i (pid, sysno, shape, errno) ->
         { Sig.x_seq = i + 1; x_pid = pid; x_sysno = sysno; x_shape = shape;
           x_outcome =
             (if errno = -1 then Sig.Noreturn
              else if errno = 0 then Sig.Ok_
              else Sig.Err errno) })
       raw)

let arb_signature =
  QCheck.make
    ~print:(fun raw -> Sig.to_string (signature_of_raw raw))
    gen_raw_events

(* realistic deltas only: renumbering tables map a foreign range onto
   the native one (domains disjoint from ranges), which is the
   precondition for idempotence *)
let gen_delta =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (kind, (sysno_i, errno_i)) ->
           let sysno =
             List.nth some_sysnos (sysno_i mod List.length some_sysnos)
           in
           match kind mod 5 with
           | 0 -> Delta.Shifts_results [ sysno ]
           | 1 -> Delta.Rewrites_results [ sysno; Sysno.sys_read ]
           | 2 ->
             Delta.May_fail
               {
                 sysnos = [ sysno; Sysno.sys_write ];
                 errnos =
                   [ List.nth
                       [ Errno.EIO; Errno.ENOENT; Errno.EPERM ]
                       (errno_i mod 3) ];
               }
           | 3 -> Delta.May_delay [ sysno ]
           | _ -> Delta.Renumbers Agents.Foreign_abi.native_pairs)
         (pair (int_range 0 4) (pair (int_range 0 7) (int_range 0 2)))))

let arb_sig_and_delta =
  QCheck.make
    ~print:(fun (raw, d) ->
      Sig.to_string (signature_of_raw raw) ^ " / " ^ Delta.to_string d)
    QCheck.Gen.(pair gen_raw_events gen_delta)

let events_equal a b = Sig.events a = Sig.events b

(* --- serialization round-trip -------------------------------------------- *)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"signature JSON round-trips exactly" ~count:300
    arb_signature (fun raw ->
      let s = signature_of_raw raw in
      match Sig.of_string (Sig.to_string s) with
      | Ok s' -> events_equal s s'
      | Error _ -> false)

let qcheck_roundtrip_masked =
  QCheck.Test.make ~name:"masked outcomes survive serialization" ~count:200
    arb_sig_and_delta (fun (raw, d) ->
      let s = Sig.normalize d (signature_of_raw raw) in
      match Sig.of_string (Sig.to_string s) with
      | Ok s' -> events_equal s s'
      | Error _ -> false)

(* plain substring replace (first occurrence) *)
let replace ~needle ~by hay =
  let nl = String.length needle and hl = String.length hay in
  let rec find i = if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> hay
  | Some i ->
    String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (hl - i - nl)

let test_reject_truncated () =
  let s = signature_of_raw [ (1, Sysno.sys_read, "i3", 0) ] in
  let json = Sig.to_string s in
  (* claim two events but carry one *)
  let lied = replace ~needle:"\"events\":1" ~by:"\"events\":2" json in
  match Sig.of_string lied with
  | Ok _ -> Alcotest.fail "accepted a truncated stream"
  | Error _ -> ()

(* --- diff ----------------------------------------------------------------- *)

let qcheck_diff_identity =
  QCheck.Test.make ~name:"diff s s = None" ~count:300 arb_signature
    (fun raw ->
      let s = signature_of_raw raw in
      Sig.diff ~bare:s ~under:s = None)

let test_diff_pinpoints () =
  let mk errs =
    signature_of_raw
      (List.map (fun e -> (1, Sysno.sys_read, "i3,b2^9,i2^9", e)) errs)
  in
  let bare = mk [ 0; 0; 0 ] in
  let under = mk [ 0; Errno.to_int Errno.EIO; 0 ] in
  match Sig.diff ~bare ~under with
  | Some d ->
    Alcotest.(check int) "index" 1 d.Sig.d_index;
    Alcotest.(check bool) "names the call" true
      (let r = d.Sig.d_reason in
       let has needle hay =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       has "read" r && has "EIO" r)
  | None -> Alcotest.fail "identical?"

let test_diff_length_mismatch () =
  let mk n =
    signature_of_raw (List.init n (fun _ -> (1, Sysno.sys_getpid, "", 0)))
  in
  (match Sig.diff ~bare:(mk 3) ~under:(mk 2) with
   | Some d -> Alcotest.(check int) "ends early at" 2 d.Sig.d_index
   | None -> Alcotest.fail "missed truncation");
  match Sig.diff ~bare:(mk 2) ~under:(mk 3) with
  | Some d ->
    Alcotest.(check bool) "extra flagged" true (d.Sig.d_bare = None)
  | None -> Alcotest.fail "missed extra calls"

(* --- normalization -------------------------------------------------------- *)

let qcheck_normalize_idempotent =
  QCheck.Test.make ~name:"normalization is idempotent" ~count:300
    arb_sig_and_delta (fun (raw, d) ->
      let s = signature_of_raw raw in
      let once = Sig.normalize d s in
      events_equal (Sig.normalize d once) once)

let test_mask_collapses_declared () =
  let bare = signature_of_raw [ (1, Sysno.sys_read, "i3", 0) ] in
  let under =
    signature_of_raw [ (1, Sysno.sys_read, "i3", Errno.to_int Errno.EIO) ]
  in
  let d =
    [ Delta.May_fail { sysnos = [ Sysno.sys_read ]; errnos = [ Errno.EIO ] } ]
  in
  Alcotest.(check bool) "declared failure masks out" true
    (Sig.diff ~bare:(Sig.normalize d bare) ~under:(Sig.normalize d under)
     = None);
  (* an UNdeclared errno stays visible *)
  let under' =
    signature_of_raw [ (1, Sysno.sys_read, "i3", Errno.to_int Errno.ENOSPC) ]
  in
  Alcotest.(check bool) "undeclared errno still diverges" true
    (Sig.diff ~bare:(Sig.normalize d bare) ~under:(Sig.normalize d under')
     <> None)

let test_renumber_normalizes () =
  let vos =
    signature_of_raw [ (1, Agents.Foreign_abi.v_read, "i3,b2^6,i2^6", 0) ]
  in
  let native = signature_of_raw [ (1, Sysno.sys_read, "i3,b2^6,i2^6", 0) ] in
  let d = [ Delta.Renumbers Agents.Foreign_abi.native_pairs ] in
  Alcotest.(check bool) "foreign maps onto native" true
    (Sig.diff ~bare:(Sig.normalize d native) ~under:(Sig.normalize d vos)
     = None)

(* --- shape stability ------------------------------------------------------ *)

let test_shape_view_independent () =
  let calls =
    [ Call.Read (3, Bytes.create 512, 512);
      Call.Open ("/doc/ch1.mss", Flags.Open.o_rdonly, 0);
      Call.Getpid;
      Call.Gettimeofday (ref None);
      Call.Stat ("/etc/motd", ref None) ]
  in
  List.iter
    (fun c ->
      Alcotest.(check string)
        "of_call = of_wire . encode" (Shape.of_call c)
        (Shape.of_wire (Call.encode c));
      Alcotest.(check string)
        "envelope shape view-independent"
        (Envelope.shape (Envelope.of_call c))
        (Envelope.shape (Envelope.of_wire (Call.encode c))))
    calls

let test_shape_classes () =
  Alcotest.(check string) "path class" "p2.mss"
    (Shape.token (Value.Str "/doc/ch1.mss"));
  Alcotest.(check string) "small int exact" "i3" (Shape.token (Value.Int 3));
  Alcotest.(check string) "magnitude class" "i2^10"
    (Shape.token (Value.Int 1024));
  Alcotest.(check string) "buffer class" "b2^9"
    (Shape.token (Value.Buf (Bytes.create 512)))

(* --- the differential checker over real stacks ---------------------------- *)

module Table = Workloads.Table

let scribe = Table.Quick.scribe

(* a workload whose body is [body], for the checks below *)
let workload_of_body ~name ~setup body =
  { Table.w_name = name; w_setup = setup; w_body = body; w_output = "" }

let test_matrix_scribe () =
  let baseline = Conformance.capture scribe Conformance.bare in
  Alcotest.(check bool) "bare run captured calls" true
    (Sig.length baseline.Conformance.cap_sig >= 10);
  List.iter
    (fun stack ->
      let v = Conformance.check ~baseline scribe stack in
      if not (Conformance.conforms v) then
        Alcotest.failf "scribe under %s: %s" stack.Conformance.sk_name
          (Conformance.verdict_to_string v))
    Conformance.stacks

let test_mutant_flagged () =
  let v = Conformance.check scribe Conformance.mutant in
  match v.Conformance.c_violation with
  | None -> Alcotest.fail "undeclared injection escaped the checker"
  | Some d ->
    (* the violation pins the first diverging span: the second read,
       failed EIO where the bare run succeeded *)
    (match d.Sig.d_under with
     | Some ev ->
       Alcotest.(check int) "diverges on read" Sysno.sys_read ev.Sig.x_sysno;
       Alcotest.(check bool) "with the injected errno" true
         (ev.Sig.x_outcome = Sig.Err (Errno.to_int Errno.EIO))
     | None -> Alcotest.fail "no under-stack event in the divergence")

(* A capture under one observation setting, on an engine of its own:
   [None] leaves observation off, [Some n] keeps 1 in n spans.  Also
   returns the traps the capture's engine opened spans for (exact at
   any rate), so an observed capture is seen to have observed. *)
let capture_observed sample w stack =
  Obs.with_engine (Obs.engine ()) (fun () ->
    (match sample with
     | None -> ()
     | Some n ->
       Obs.set_sampling n;
       Obs.enable ());
    let c = Conformance.capture w stack in
    let spans =
      List.fold_left
        (fun n (m : Obs.syscall_metrics) -> n + m.Obs.sm_calls)
        0 (Obs.metrics ()).Obs.m_syscalls
    in
    (c, spans))

let test_capture_exact_under_sampling () =
  List.iter
    (fun (w : Table.workload) ->
      List.iter
        (fun stack ->
          let name =
            Printf.sprintf "%s under %s" w.Table.w_name
              stack.Conformance.sk_name
          in
          let off, off_spans = capture_observed None w stack in
          Alcotest.(check int) (name ^ ": no spans with obs off") 0 off_spans;
          Alcotest.(check bool) (name ^ ": calls captured") true
            (Sig.length off.Conformance.cap_sig > 0);
          List.iter
            (fun n ->
              let c, spans = capture_observed (Some n) w stack in
              Alcotest.(check bool)
                (Printf.sprintf "%s: spans at 1-in-%d" name n) true
                (spans > 0);
              Alcotest.(check string)
                (Printf.sprintf "%s: same bytes at 1-in-%d" name n)
                (Sig.to_string off.Conformance.cap_sig)
                (Sig.to_string c.Conformance.cap_sig);
              Alcotest.(check int)
                (Printf.sprintf "%s: same status at 1-in-%d" name n)
                off.Conformance.cap_status c.Conformance.cap_status)
            [ 1; 256 ])
        Conformance.all_stacks)
    Table.quick

(* Issue order and outcomes the trap path alone decides: a getpid made
   by the SIGALRM handler inside the interrupted sleep comes after the
   sleep (whose EINTR is set only when it returns), a child's exit
   after the wait4 already blocked on it, and exit and a successful
   execve never return. *)
let test_capture_pins () =
  let w =
    workload_of_body ~name:"pins"
      ~setup:Workloads.Progs.install_all (fun () ->
        ignore
          (Libc.Unistd.signal Signal.sigalrm
             (Value.H_fn (fun _ -> ignore (Libc.Unistd.getpid ()))));
        ignore (Libc.Unistd.alarm 1);
        ignore (Libc.Unistd.sleep_us 10_000_000);
        let wait_for child =
          match Libc.Unistd.fork ~child with
          | Ok pid -> ignore (Libc.Unistd.waitpid pid 0)
          | Error _ -> ()
        in
        wait_for (fun () ->
          ignore (Libc.Unistd.execv "/bin/true" [| "true" |]);
          1);
        wait_for (fun () -> Libc.Unistd._exit 3);
        0)
  in
  let c = Conformance.capture w Conformance.bare in
  let line (ev : Sig.event) =
    Printf.sprintf "%d %s %s" ev.Sig.x_pid (Call.name ev.Sig.x_sysno)
      (Sig.outcome_name ev.Sig.x_outcome)
  in
  Alcotest.(check (list string)) "issue order and outcomes"
    [ "1 sigaction ok"; "1 alarm ok"; "1 sleepus EINTR"; "1 getpid ok";
      "1 fork ok"; "2 execve noreturn"; "1 wait4 ok"; "2 exit noreturn";
      "1 fork ok"; "3 exit noreturn"; "1 wait4 ok" ]
    (List.map line (Sig.events c.Conformance.cap_sig))

let test_of_spec () =
  (match Conformance.of_spec "trace,crypt" with
   | Ok s ->
     Alcotest.(check string) "composite name" "trace,crypt"
       s.Conformance.sk_name;
     let v = Conformance.check scribe s in
     Alcotest.(check bool) "composite stack conforms" true
       (Conformance.conforms v)
   | Error e -> Alcotest.fail e);
  match Conformance.of_spec "trace,nosuch" with
  | Ok _ -> Alcotest.fail "accepted an unknown stack"
  | Error _ -> ()

(* --- the buggy remap ------------------------------------------------------ *)

(* a remap that "loses" the stat translation: the foreign trap is
   failed as an unknown call instead of being rewritten — exactly what
   passing it down untranslated would produce *)
class buggy_remap =
  object
    inherit Agents.Remap.agent as super

    method! syscall env =
      if Envelope.number env = Agents.Foreign_abi.v_stat then
        Error Errno.ENOSYS
      else super#syscall env
  end

let vos_setup k = Kernel.write_file k ~path:"/tmp/subject" "twin data\n"

(* the same program twice: once in VOS dialect, once native *)
let vos_body () =
  ignore (Agents.Foreign_abi.Stub.getpid ());
  ignore (Agents.Foreign_abi.Stub.gettimeofday (ref None));
  ignore (Agents.Foreign_abi.Stub.write 1 "hello\n");
  ignore (Agents.Foreign_abi.Stub.stat "/tmp/subject" (ref None));
  0

let native_body () =
  ignore (Libc.Unistd.getpid ());
  ignore (Libc.Unistd.gettimeofday ());
  ignore (Libc.Unistd.write 1 "hello\n");
  ignore (Libc.Unistd.stat "/tmp/subject");
  0

let check_vos_against_native stack =
  let native_w =
    workload_of_body ~name:"twin-native" ~setup:vos_setup
      native_body
  in
  let vos_w =
    workload_of_body ~name:"twin-vos" ~setup:vos_setup vos_body
  in
  let b = Conformance.capture native_w Conformance.bare in
  let u = Conformance.capture vos_w stack in
  let d = u.Conformance.cap_delta in
  Sig.diff
    ~bare:(Sig.normalize d b.Conformance.cap_sig)
    ~under:(Sig.normalize d u.Conformance.cap_sig)

let test_remap_twin_conforms () =
  match check_vos_against_native Conformance.remap with
  | None -> ()
  | Some d ->
    Alcotest.failf "VOS twin diverged under correct remap: %s"
      (Sig.divergence_to_string d)

let test_buggy_remap_flagged () =
  let stack =
    {
      Conformance.sk_name = "remap-buggy";
      sk_make =
        (fun () -> [ (new buggy_remap :> Toolkit.Numeric.numeric_syscall) ]);
    }
  in
  match check_vos_against_native stack with
  | None -> Alcotest.fail "dropped rewrite escaped the checker"
  | Some d -> (
    match d.Sig.d_under with
    | Some ev ->
      (* normalization has renumbered the foreign stat to native *)
      Alcotest.(check int) "diverges on stat" Sysno.sys_stat ev.Sig.x_sysno;
      Alcotest.(check bool) "outcome is the dropped rewrite's ENOSYS" true
        (ev.Sig.x_outcome = Sig.Err (Errno.to_int Errno.ENOSYS))
    | None -> Alcotest.fail "no under-stack event in the divergence")

(* --- strace import -------------------------------------------------------- *)

let sample_trace =
  String.concat "\n"
    [
      {|execve("/usr/bin/cat", ["cat", "/etc/motd"], 0x7ffd4 /* 23 vars */) = 0|};
      {|brk(NULL)                               = 0x55f1c6943000|};
      {|openat(AT_FDCWD, "/etc/motd", O_RDONLY) = 3|};
      {|fstat(3, {st_mode=S_IFREG|0644, st_size=286, ...}) = 0|};
      {|read(3, "Welcome to the machine\n", 131072) = 23|};
      {|read(3, "", 131072)                     = 0|};
      {|write(1, "Welcome to the machine\n", 23) = 23|};
      {|close(3)                                = 0|};
      {|stat("/nonexistent", 0x7ffc) = -1 ENOENT (No such file or directory)|};
      {|getpid()                                = 4242|};
      {|epoll_create1(EPOLL_CLOEXEC)            = 4|};
      {|exit_group(0)                           = ?|};
      {|+++ exited with 0 +++|};
    ]

let test_strace_parse () =
  let tr = Conformance.Strace.parse sample_trace in
  Alcotest.(check int) "mapped entries" 11
    (List.length tr.Conformance.Strace.tr_entries);
  Alcotest.(check int) "unmapped counted, not dropped" 1
    tr.Conformance.Strace.tr_skipped;
  let open_e = List.nth tr.Conformance.Strace.tr_entries 2 in
  Alcotest.(check int) "openat maps to open" Sysno.sys_open
    open_e.Conformance.Strace.t_sysno;
  Alcotest.(check (option string)) "path extracted" (Some "/etc/motd")
    open_e.Conformance.Strace.t_path;
  let stat_e = List.nth tr.Conformance.Strace.tr_entries 8 in
  Alcotest.(check bool) "errno parsed" true
    (stat_e.Conformance.Strace.t_errno = Some Errno.ENOENT)

let test_strace_signature () =
  let tr = Conformance.Strace.parse sample_trace in
  let s = Conformance.Strace.to_signature tr in
  Alcotest.(check int) "one event per mapped call" 11 (Sig.length s);
  (* and it round-trips like any other signature *)
  match Sig.of_string (Sig.to_string s) with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (events_equal s s')
  | Error e -> Alcotest.failf "no round-trip: %s" e

let test_strace_replayable () =
  let open Tharness in
  let tr = Conformance.Strace.parse sample_trace in
  (* the scenario's world: give the trace's paths something to hit *)
  let populate k = Kernel.write_file k ~path:"/etc/motd" "Welcome\n" in
  let recorder = Agents.Record_replay.create_recorder () in
  let k1 = fresh_kernel () in
  populate k1;
  let (_ : int) =
    boot_k k1 (fun () ->
      Toolkit.Loader.install recorder ~argv:[||];
      Conformance.Strace.scenario tr ())
  in
  Alcotest.(check bool) "recorder journaled inputs" true
    (recorder#entries > 0);
  let replayer =
    Agents.Record_replay.create_replayer ~journal:recorder#journal
  in
  let k2 = fresh_kernel () in
  populate k2;
  let (_ : int) =
    boot_k k2 (fun () ->
      Toolkit.Loader.install replayer ~argv:[||];
      Conformance.Strace.scenario tr ())
  in
  Alcotest.(check int) "replay desyncs" 0 replayer#desyncs;
  Alcotest.(check bool) "journal consumed" true (replayer#consumed > 0)

(* --- deltas are live on the shipped agents -------------------------------- *)

let test_agent_deltas_declared () =
  let has_clauses (a : Toolkit.Numeric.numeric_syscall) =
    a#declared_delta <> Delta.none
  in
  Alcotest.(check bool) "timex declares" true
    (has_clauses
       (Agents.Timex.create ~offset_seconds:1 ()
         :> Toolkit.Numeric.numeric_syscall));
  Alcotest.(check bool) "remap declares" true
    (has_clauses (Agents.Remap.create () :> Toolkit.Numeric.numeric_syscall));
  Alcotest.(check bool) "trace declares nothing" false
    (has_clauses (Agents.Trace.create () :> Toolkit.Numeric.numeric_syscall));
  Alcotest.(check bool) "recorder declares nothing" false
    (has_clauses
       (Agents.Record_replay.create_recorder ()
         :> Toolkit.Numeric.numeric_syscall));
  Alcotest.(check bool) "replayer declares" true
    (has_clauses
       (Agents.Record_replay.create_replayer ~journal:""
         :> Toolkit.Numeric.numeric_syscall))

(* --- one stream ------------------------------------------------------------ *)

(* The trace agent's text and the flight recorder's call records are
   two renderings of one stream (trace.mli): under the full stack, on
   a workload whose /vault traffic crypt rewrites, the text log must be
   the ring's [Call] records rendered by [call_line], line for line. *)
let test_trace_text_is_ring () =
  let open Tharness in
  let was = Obs.sampling () in
  Obs.set_sampling 1;
  Obs.configure ~ring_capacity:(1 lsl 16) ();
  Obs.reset ();
  Obs.enable ();
  let text, records, dropped, status =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.set_sampling was;
        Obs.configure ())
      (fun () ->
        let k, status =
          boot (fun () ->
            let agents = Conformance.stacked.Conformance.sk_make () in
            (* the stack's trace sink is the top descriptor: point it at a file *)
            let log =
              check_ok "open log"
                (Libc.Unistd.open_ "/tmp/trace.log" Flags.Open.(o_wronly lor o_creat) 0o644)
            in
            ignore (check_ok "dup2" (Libc.Unistd.dup2 log (Libc.Unistd.getdtablesize () - 1)));
            ignore (Libc.Unistd.close log);
            List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) agents;
            Obs.reset ();
            ignore (check_ok "mkdir" (Libc.Unistd.mkdir "/vault" 0o755));
            ignore (check_ok "write" (Libc.Stdio.write_file "/vault/secret" "attack at dawn"));
            let back = check_ok "read" (Libc.Stdio.read_file "/vault/secret") in
            ignore (Libc.Unistd.stat "/vault/none");
            if back = "attack at dawn" then 0 else 1)
        in
        (read_file_exn k "/tmp/trace.log", Obs.records (), Obs.dropped (), status))
  in
  check_exit "session" 0 status;
  Alcotest.(check int) "ring kept everything" 0 dropped;
  let ring =
    List.filter_map
      (function Obs.Span.Call c -> Some (Obs.Span.call_line c ^ "\n") | _ -> None)
      records
  in
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  Alcotest.(check bool) "crypt rewrites are flagged" true
    (List.exists (String.ends_with ~suffix:" [rewritten]") lines);
  Alcotest.(check (list string)) "text is the ring's call lines"
    (List.map (fun l -> l ^ "\n") lines) ring;
  Alcotest.(check string) "byte for byte" text (String.concat "" ring)

(* --- the agent table --------------------------------------------------------- *)

module Agent_table = Conformance.Agent_table

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The sink rule: an agent logging to a regular file leaves the
   program's descriptors numbered as in the bare run.  A log opened at
   the lowest free descriptor shifts every later one. *)
let file_log_conforms spec () =
  let stack = Conformance.stack "file-log" [ spec ] in
  List.iter
    (fun (w : Table.workload) ->
      let scope = if w.Table.w_name = "kvd" then `Per_process else `Global in
      let v = Conformance.check ~scope w stack in
      if not (Conformance.conforms v) then
        Alcotest.failf "%s on %s: %s" spec w.Table.w_name
          (Conformance.verdict_to_string v))
    Table.quick

let test_trace_file_conforms = file_log_conforms "trace:/trace.log"
let test_dfs_trace_file_conforms = file_log_conforms "dfs_trace:/dfs.log"

(* One session: [spec]'s agent built and installed, a getpid, then its
   report. *)
let run_spec spec =
  match Agent_table.of_spec spec with
  | Error msg -> Alcotest.failf "%s: %s" spec msg
  | Ok b ->
    let k = Table.prepare ignore in
    Kernel.boot k ~name:"agent-table" (fun () ->
      let a, report = Agent_table.start b in
      Toolkit.Loader.install a ~argv:[||];
      ignore (Libc.Unistd.getpid ());
      report ();
      0)

let test_every_row_runs () =
  List.iter
    (fun spec -> Alcotest.(check int) spec 0 (run_spec spec))
    (List.concat_map
       (fun r -> r.Agent_table.name :: r.Agent_table.aliases)
       Agent_table.rows
    @ [ "trace:/trace.log"; "timex:86400"; "crypt:7@/secret";
        "union:/proj=/objdir:/srcdir"; "faultinject:read#3=fail:EIO" ])

let test_bad_specs () =
  List.iter
    (fun spec ->
      match Agent_table.of_spec spec with
      | Ok _ -> Alcotest.failf "accepted %S" spec
      | Error _ -> ())
    [ "nosuch"; "remap:1"; "timex:soon"; "sandbox:lax"; "txn:maybe";
      "crypt:k@/vault"; "union:/proj"; "faultinject:read#3=explode";
      "faultinject:0.5" ];
  (* a trace file that cannot be opened fails the build in the session *)
  match Agent_table.of_spec "trace:/nodir/trace.log" with
  | Error msg -> Alcotest.fail msg
  | Ok b ->
    let k = Table.prepare ignore in
    let status =
      Kernel.boot k ~name:"bad-sink" (fun () ->
        match Agent_table.start b with
        | _ -> 1
        | exception Libc.Unistd.Unix_error (Errno.ENOENT, _) -> 0)
    in
    Alcotest.(check int) "ENOENT raised" 0 status

(* Every agent class in lib/agents is a row, or its module is named in
   the table's header comment with the reason it is not. *)
let test_every_agent_is_a_row () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let header =
    let mli = read "../../lib/conformance/agent_table.mli" in
    let rec close i = if String.sub mli i 2 = "*)" then i else close (i + 1) in
    String.sub mli 0 (close 0)
  in
  let dir = "../../lib/agents" in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".ml" then
        let m = Filename.chop_suffix file ".ml" in
        let has_class =
          List.exists
            (String.starts_with ~prefix:"class ")
            (String.split_on_char '\n' (read (Filename.concat dir file)))
        in
        let is_row =
          List.exists
            (fun r -> r.Agent_table.name = m || List.mem m r.Agent_table.aliases)
            Agent_table.rows
        in
        if has_class && not (is_row || contains ~needle:("[" ^ m ^ "]") header)
        then Alcotest.failf "%s is neither a row nor named in the header" m)
    (Sys.readdir dir)

(* --- the kernel's end state ------------------------------------------------ *)

(* Every registered workload, bare and under the full stack, ends with
   no wait queue (a process sleeps on a channel only while it is
   parked, and nobody is parked once the run is over) and no live
   fibre. *)
let test_workloads_end_clean () =
  List.iter
    (fun (w : Table.workload) ->
      List.iter
        (fun (stack : Conformance.stack) ->
          let what = w.Table.w_name ^ " " ^ stack.Conformance.sk_name in
          let k = Table.prepare w.Table.w_setup in
          let status =
            Kernel.boot k ~name:what (fun () ->
              List.iter
                (fun a -> Toolkit.Loader.install a ~argv:[||])
                (stack.Conformance.sk_make ());
              w.Table.w_body ())
          in
          Alcotest.(check int) (what ^ ": exit status") 0 status;
          Alcotest.(check int) (what ^ ": wait queues") 0
            (Hashtbl.length k.Kernel.Kstate.waitqs);
          Alcotest.(check int) (what ^ ": fibres") 0 k.Kernel.Kstate.fibres)
        [ Conformance.bare; Conformance.stacked ])
    Table.quick

let () =
  Alcotest.run "conformance"
    [
      ( "signature",
        [
          qtest qcheck_roundtrip;
          qtest qcheck_roundtrip_masked;
          Alcotest.test_case "rejects truncation" `Quick
            test_reject_truncated;
          qtest qcheck_diff_identity;
          Alcotest.test_case "diff pinpoints first span" `Quick
            test_diff_pinpoints;
          Alcotest.test_case "diff flags length mismatch" `Quick
            test_diff_length_mismatch;
        ] );
      ( "normalize",
        [
          qtest qcheck_normalize_idempotent;
          Alcotest.test_case "mask collapses declared" `Quick
            test_mask_collapses_declared;
          Alcotest.test_case "renumber normalizes" `Quick
            test_renumber_normalizes;
        ] );
      ( "shape",
        [
          Alcotest.test_case "view-independent" `Quick
            test_shape_view_independent;
          Alcotest.test_case "classes" `Quick test_shape_classes;
        ] );
      ( "checker",
        [
          Alcotest.test_case "scribe conforms under every stack" `Slow
            test_matrix_scribe;
          Alcotest.test_case "undeclared injection flagged" `Quick
            test_mutant_flagged;
          Alcotest.test_case "capture exact under sampling" `Quick
            test_capture_exact_under_sampling;
          Alcotest.test_case "stack specs" `Quick test_of_spec;
          Alcotest.test_case "agents declare their deltas" `Quick
            test_agent_deltas_declared;
          Alcotest.test_case "trace text is the ring" `Quick
            test_trace_text_is_ring;
          Alcotest.test_case "capture pins issue order and noreturn" `Quick
            test_capture_pins;
        ] );
      ( "remap",
        [
          Alcotest.test_case "VOS twin conforms" `Quick
            test_remap_twin_conforms;
          Alcotest.test_case "dropped rewrite flagged" `Quick
            test_buggy_remap_flagged;
        ] );
      ( "agents",
        [
          Alcotest.test_case "trace to a file conforms" `Quick
            test_trace_file_conforms;
          Alcotest.test_case "dfs_trace to a file conforms" `Quick
            test_dfs_trace_file_conforms;
          Alcotest.test_case "every row runs" `Quick test_every_row_runs;
          Alcotest.test_case "bad specs rejected" `Quick test_bad_specs;
          Alcotest.test_case "every agent class is a row" `Quick
            test_every_agent_is_a_row;
        ] );
      ( "end-state",
        [
          Alcotest.test_case "workloads end with no sleeper and no fibre"
            `Quick test_workloads_end_clean;
        ] );
      ( "strace",
        [
          Alcotest.test_case "parses the common form" `Quick
            test_strace_parse;
          Alcotest.test_case "becomes a signature" `Quick
            test_strace_signature;
          Alcotest.test_case "record/replays cleanly" `Quick
            test_strace_replayable;
        ] );
    ]
