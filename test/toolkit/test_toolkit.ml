(* Toolkit-layer tests: installation and stacking, layer routing,
   fork/execve survival, descriptor and pathname object plumbing, and
   pass-throughs handing down the envelope they serve. *)

open Abi
open Tharness

(* --- helper agents ------------------------------------------------------ *)

(* counts interceptions at the numeric layer, tagging them with a name
   so stacking order is observable *)
class tag_agent (name : string) (log : string list ref) =
  object (self)
    inherit Toolkit.numeric_syscall as super
    method! agent_name = name
    method! init _ = self#register_interest Sysno.sys_getpid
    method! syscall env =
      if Envelope.number env = Sysno.sys_getpid then log := name :: !log;
      super#syscall env
  end

(* symbolic agent lying about the pid *)
class fake_pid_agent (pid : int) =
  object (self)
    inherit Toolkit.symbolic_syscall
    method! init _ = self#register_interest Sysno.sys_getpid
    method! sys_getpid () = Value.ret pid
  end

(* pathname_set agent remapping a prefix, a minimal filesystem view *)
class remap_prefix_agent ~(from_prefix : string) ~(to_prefix : string) =
  object (self)
    inherit Toolkit.pathname_set
    method! init _ = self#register_interest_all
    method! getpn path =
      let fl = String.length from_prefix in
      let mapped =
        if
          String.length path >= fl
          && String.sub path 0 fl = from_prefix
        then to_prefix ^ String.sub path fl (String.length path - fl)
        else path
      in
      Ok (self#make_pathname mapped)
  end

(* descriptor_set agent upcasing everything read through it *)
class upcase_object dl =
  object
    inherit Toolkit.open_object dl as super
    method! read ~fd buf cnt =
      match super#read ~fd buf cnt with
      | Ok r as res ->
        for i = 0 to r.Value.r0 - 1 do
          Bytes.set buf i (Char.uppercase_ascii (Bytes.get buf i))
        done;
        res
      | Error _ as res -> res
  end

class upcase_agent =
  object (self)
    inherit Toolkit.Sets.descriptor_set
    method! init _ = self#register_interest_all
    method! make_open_object ~fd:_ ~path:_ ~flags:_ =
      (new upcase_object self#downlink :> Toolkit.Objects.open_object)
  end

(* --- tests ---------------------------------------------------------------- *)

let test_null_agent_transparent () =
  let run body =
    let k, status = body () in
    exit_code status, Kernel.console_output k
  in
  let program () =
    ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/t" "abc"));
    let content = check_ok "read" (Libc.Stdio.read_file "/tmp/t") in
    Libc.Stdio.printf "content=%s pid=%d\n" content (Libc.Unistd.getpid ());
    let pid =
      check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 5))
    in
    let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    Flags.Wait.wexitstatus st
  in
  let bare = run (fun () -> boot program) in
  let under =
    run (fun () -> boot_under_agent (Agents.Time_symbolic.create ()) program)
  in
  Alcotest.(check (pair int string)) "identical behaviour" bare under

let test_stacking_order () =
  let log = ref [] in
  let _, status =
    boot (fun () ->
      Toolkit.Loader.install (new tag_agent "bottom" log) ~argv:[||];
      Toolkit.Loader.install (new tag_agent "top" log) ~argv:[||];
      ignore (Libc.Unistd.getpid ());
      0)
  in
  check_exit "exit" 0 status;
  (* most recently installed agent sees the call first, then passes it
     down to the earlier one *)
  Alcotest.(check (list string)) "order" [ "bottom"; "top" ] !log

let test_decode_once_under_stack () =
  (* the envelope invariant, measured: under a 4-deep stack of null
     symbolic agents, each intercepted trap decodes exactly once (at
     the first symbolic layer), encodes exactly once (at the app
     boundary), and crosses all four layers *)
  let iters = 50 in
  let depth = 4 in
  let stats () = Kernel.codec_stats (Kernel.current_exn ()) in
  let before = ref None in
  let after = ref !before in
  let _, status =
    boot (fun () ->
      for _ = 1 to depth do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      before := Some (stats ());
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      after := Some (stats ());
      0)
  in
  check_exit "exit" 0 status;
  let d =
    Obs.Codec.diff (Option.get !before) (Option.get !after)
  in
  Alcotest.(check int) "traps" iters d.Obs.Codec.traps;
  Alcotest.(check int) "every trap ran its handler" iters
    d.Obs.Codec.intercepted;
  Alcotest.(check int) "decode-count = 1 per trap" iters
    d.Obs.Codec.decodes;
  Alcotest.(check int) "encode-count = 1 per trap" iters
    d.Obs.Codec.encodes;
  Alcotest.(check int) "every layer crossed" (depth * iters)
    d.Obs.Codec.crossings

let test_uninstall_restores () =
  let log = ref [] in
  let _, status =
    boot (fun () ->
      let a = new tag_agent "a" log in
      Toolkit.Loader.run_under a (fun () ->
        ignore (Libc.Unistd.getpid ()));
      ignore (Libc.Unistd.getpid ());  (* not intercepted any more *)
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check (list string)) "one interception" [ "a" ] !log

let test_symbolic_override () =
  let _, status =
    boot_under_agent (new fake_pid_agent 4242) (fun () ->
      Libc.Unistd.getpid ())
  in
  check_exit "fake pid" (4242 land 0xff) status

(* An execve inside [run_under] abandons the old program, whose
   unwinding runs [run_under]'s uninstall with no process to act on:
   the new image must still run and exit normally, whether the kernel
   (the agent ignores execve) or the agent (symbolic, which emulates
   it) loads it. *)
let test_exec_inside_run_under () =
  let exec_under_agent agent =
    let k = fresh_kernel () in
    let ran = ref false in
    Kernel.register_image k "probe" (fun ~argv:_ ~envp:_ () ->
      ran := true;
      0);
    Kernel.install_image k ~path:"/bin/probe" ~image:"probe";
    let status =
      Kernel.boot k ~name:"init" (fun () ->
        Toolkit.Loader.run_under agent (fun () ->
          match Libc.Unistd.execv "/bin/probe" [| "probe" |] with
          | Error _ -> 1
          | Ok _ -> assert false))
    in
    Alcotest.(check bool) "new image ran" true !ran;
    check_exit "new image exited" 0 status
  in
  exec_under_agent (new tag_agent "a" (ref []));
  exec_under_agent
    (object (self)
       inherit Toolkit.symbolic_syscall
       method! init _ = self#register_interest Sysno.sys_execve
     end)

let test_agent_survives_execve () =
  let k = fresh_kernel () in
  Kernel.register_image k "probe" (fun ~argv:_ ~envp:_ () ->
    Libc.Unistd.getpid ());
  Kernel.install_image k ~path:"/bin/probe" ~image:"probe";
  let status =
    Kernel.boot k ~name:"init" (fun () ->
      Toolkit.Loader.install (new fake_pid_agent 99) ~argv:[||];
      match Libc.Unistd.execv "/bin/probe" [| "probe" |] with
      | Error _ -> 1
      | Ok _ -> assert false)
  in
  (* the probe ran in the new image yet still saw the agent's pid *)
  check_exit "execve kept agent" 99 status

let test_init_child_runs_in_fork () =
  let children = ref 0 in
  let agent =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ = self#register_interest_all
      method! init_child = incr children
    end
  in
  let _, status =
    boot_under_agent agent (fun () ->
      let pid = check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 0)) in
      let _ = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check int) "init_child once" 1 !children

let test_unknown_syscall_enosys () =
  let _, status =
    boot_under_agent (Agents.Time_symbolic.create ()) (fun () ->
      match Kernel.Uspace.trap_wire { Value.num = 179; args = [||] } with
      | Error Errno.ENOSYS -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "ENOSYS passes through" 0 status

let test_descriptor_factory_transform () =
  let k, status =
    boot_under_agent (new upcase_agent) (fun () ->
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/lc" "hello"));
      let s = check_ok "read" (Libc.Stdio.read_file "/tmp/lc") in
      Libc.Stdio.print s;
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "reads upcased" "HELLO" (Kernel.console_output k)

let test_descriptor_tracking_dup () =
  (* a dup'd descriptor must route through the same open object *)
  let k, status =
    boot_under_agent (new upcase_agent) (fun () ->
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/d" "xyz"));
      let fd =
        check_ok "open" (Libc.Unistd.open_ "/tmp/d" Flags.Open.o_rdonly 0)
      in
      let fd2 = check_ok "dup" (Libc.Unistd.dup fd) in
      ignore (check_ok "close" (Libc.Unistd.close fd));
      let buf = Bytes.create 8 in
      let n = check_ok "read" (Libc.Unistd.read fd2 buf 8) in
      Libc.Stdio.print (Bytes.sub_string buf 0 n);
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "dup routed" "XYZ" (Kernel.console_output k)

let test_pathname_remap () =
  let k, status =
    boot_under_agent
      (new remap_prefix_agent ~from_prefix:"/virtual" ~to_prefix:"/real")
      (fun () ->
        ignore (check_ok "mkdir" (Libc.Unistd.mkdir "/real" 0o755));
        ignore
          (check_ok "write" (Libc.Stdio.write_file "/virtual/f" "mapped"));
        let st = check_ok "stat" (Libc.Unistd.stat "/virtual/f") in
        if st.Stat.st_size <> 6 then 1
        else begin
          Libc.Stdio.print
            (check_ok "read" (Libc.Stdio.read_file "/virtual/f"));
          0
        end)
  in
  check_exit "exit" 0 status;
  (* the file physically lives under /real *)
  Alcotest.(check string) "stored at /real/f" "mapped"
    (read_file_exn k "/real/f");
  Alcotest.(check string) "read back via /virtual" "mapped"
    (Kernel.console_output k)

let test_directory_object_iteration () =
  (* the toolkit directory object must rebuild getdirentries through
     next_direntry without changing what readdir sees *)
  let dir_agent =
    object (self)
      inherit Toolkit.Sets.descriptor_set
      method! init _ = self#register_interest_all
      method! make_open_object ~fd:_ ~path:_ ~flags:_ =
        (new Toolkit.directory self#downlink :> Toolkit.Objects.open_object)
    end
  in
  let listing = ref [] in
  let _, status =
    boot_under_agent dir_agent (fun () ->
      ignore (check_ok "mkdir" (Libc.Unistd.mkdir "/tmp/z" 0o755));
      List.iter
        (fun n ->
          ignore
            (check_ok n (Libc.Stdio.write_file ("/tmp/z/" ^ n) n)))
        [ "one"; "two"; "three" ];
      listing := check_ok "names" (Libc.Dirstream.names "/tmp/z");
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check (list string)) "iterated" [ "one"; "three"; "two" ]
    !listing

(* The descriptor layer's virtual charges, pinned: under a plain
   descriptor_set agent each descriptor call on a tracked fd pays
   [descriptor_layer_us] once on top of what the same call costs on an
   untracked fd (one opened before the agent), which pays nothing for
   the layer.  The per-call virtual µs were taken before the layer's
   routing was rewritten without closures, so a dropped or doubled
   charge fails against them. *)
let test_descriptor_layer_charges () =
  let module U = Libc.Unistd in
  let k = fresh_kernel () in
  Kernel.write_file k ~path:"/tmp/data" (String.make 256 'd');
  Kernel.mkdir_p k "/tmp/dir";
  Kernel.write_file k ~path:"/tmp/dir/entry" "e";
  let now () = Sim.Clock.elapsed_us (Kernel.clock k) in
  let agent =
    object (self)
      inherit Toolkit.Sets.descriptor_set
      method! init _ = self#register_interest_all
    end
  in
  let rows = ref [] in
  let status =
    boot_k k (fun () ->
      let open_pair () =
        ( check_ok "open data" (U.open_ "/tmp/data" Flags.Open.o_rdwr 0),
          check_ok "open dir" (U.open_ "/tmp/dir" Flags.Open.o_rdonly 0) )
      in
      let untracked = open_pair () in
      Toolkit.Loader.install agent ~argv:[||];
      let tracked = open_pair () in
      let buf = Bytes.create 512 in
      let cost (fd, dir) op =
        let t0 = now () in
        (match op with
         | `Read -> ignore (check_ok "read" (U.read fd buf 64))
         | `Write -> ignore (check_ok "write" (U.write fd "0123456789"))
         | `Lseek -> ignore (check_ok "lseek" (U.lseek fd 0 0))
         | `Fstat -> ignore (check_ok "fstat" (U.fstat fd))
         | `Getdirentries ->
           ignore (check_ok "getdirentries" (U.getdirentries dir buf)));
        now () - t0
      in
      List.iter
        (fun (name, op) ->
          let u = cost untracked op in
          let t = cost tracked op in
          rows := (name, u, t) :: !rows)
        [ ("read", `Read); ("write", `Write); ("lseek", `Lseek);
          ("fstat", `Fstat); ("getdirentries", `Getdirentries) ];
      List.iter
        (fun (fd, dir) ->
          ignore (check_ok "close" (U.close fd));
          ignore (check_ok "close" (U.close dir)))
        [ untracked; tracked ];
      0)
  in
  check_exit "exit" 0 status;
  (* (call, untracked µs, tracked µs) *)
  let pinned =
    [ ("read", 315, 327); ("write", 303, 315); ("lseek", 216, 228);
      ("fstat", 284, 296); ("getdirentries", 382, 394) ]
  in
  List.iter2
    (fun (name, u, t) (_, pu, pt) ->
      Alcotest.(check int) (name ^ " untracked µs") pu u;
      Alcotest.(check int) (name ^ " tracked µs") pt t;
      Alcotest.(check int)
        (name ^ " pays the layer once")
        Cost_model.descriptor_layer_us (t - u))
    (List.rev !rows) pinned

let test_interests_registration () =
  let a = new Toolkit.numeric_syscall in
  a#register_interest Sysno.sys_read;
  a#register_interest Sysno.sys_read;
  a#register_interest_range Sysno.sys_open Sysno.sys_close;
  Alcotest.(check (list int)) "dedup + range"
    [ Sysno.sys_read; Sysno.sys_open; Sysno.sys_close ]
    a#interests

let test_buggy_agent_contained () =
  (* an agent whose handler raises must kill only the process it is
     interposed on, not the machine *)
  let buggy =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ = self#register_interest Sysno.sys_getuid
      method! sys_getuid () = failwith "agent bug"
    end
  in
  let _, status =
    boot (fun () ->
      let pid =
        check_ok "fork"
          (Libc.Unistd.fork ~child:(fun () ->
             Toolkit.Loader.install buggy ~argv:[||];
             ignore (Libc.Unistd.getuid ());
             0))
      in
      let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      (* the parent survives and can keep making calls *)
      ignore (Libc.Unistd.getpid ());
      if Flags.Wait.wifsignaled st
         && Flags.Wait.wtermsig st = Signal.sigabrt
      then 0
      else 1)
  in
  check_exit "buggy agent kills only its client" 0 status

let test_agent_error_return_propagates () =
  (* an agent can veto a call with an errno of its choice *)
  let deny =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ = self#register_interest Sysno.sys_sync
      method! sys_sync () = Error Errno.EROFS
    end
  in
  let _, status =
    boot_under_agent deny (fun () ->
      match Kernel.Uspace.syscall Call.Sync with
      | Error Errno.EROFS -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "agent-made errno" 0 status

let test_exec_under () =
  (* the paper's loader entry point: install the agent, then exec the
     unmodified target under it *)
  let k = fresh_kernel () in
  Kernel.register_image k "target" (fun ~argv ~envp:_ () ->
    Libc.Stdio.printf "pid=%d arg=%s\n" (Libc.Unistd.getpid ())
      (if Array.length argv > 1 then argv.(1) else "-");
    0);
  Kernel.install_image k ~path:"/bin/target" ~image:"target";
  let status =
    Kernel.boot k ~name:"loader" (fun () ->
      Toolkit.Loader.exec_under
        (new fake_pid_agent 321)
        ~path:"/bin/target"
        ~argv:[| "target"; "via-loader" |]
        ())
  in
  ignore (exit_code status);
  Alcotest.(check string) "agent visible in the exec'd image"
    "pid=321 arg=via-loader\n" (Kernel.console_output k)

let test_exec_under_missing_program () =
  let _, status =
    boot (fun () ->
      Toolkit.Loader.exec_under
        (Agents.Time_symbolic.create ())
        ~path:"/bin/nonexistent"
        ~argv:[| "x" |]
        ())
  in
  check_exit "loader reports 127" 127 status

let test_loader_adds_minimum () =
  let a = new Toolkit.numeric_syscall in
  (* no explicit interests: the loader must still see fork/execve/exit *)
  let _, status =
    boot (fun () ->
      Toolkit.Loader.install a ~argv:[||];
      let pid = check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 3)) in
      let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      Flags.Wait.wexitstatus st)
  in
  check_exit "fork under bare numeric agent" 3 status

(* --- the handler table and its fast path ------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

(* Trap-counter window around [traps ()] inside a booted session, with
   [install] run first to set up whatever agent stack the test wants. *)
let counter_window ~install traps =
  let stats () = Kernel.codec_stats (Kernel.current_exn ()) in
  let d = ref None in
  let _, status =
    boot (fun () ->
      install ();
      let before = stats () in
      traps ();
      d := Some (Obs.Codec.diff before (stats ()));
      0)
  in
  check_exit "exit" 0 status;
  Option.get !d

let trap_window ~install iters =
  counter_window ~install (fun () ->
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done)

let open_only () =
  object (self)
    inherit Toolkit.numeric_syscall
    method! init _ = self#register_interest Sysno.sys_open
  end

let test_fast_path_uninterested () =
  (* no agent, or one interested only in open: getpid traps find an
     empty handler slot and go straight to the kernel *)
  let iters = 25 in
  List.iter
    (fun (what, install) ->
      let d = trap_window iters ~install in
      Alcotest.(check int) (what ^ ": one trap per getpid") iters
        d.Obs.Codec.traps;
      Alcotest.(check int) (what ^ ": every trap took the fast path") iters
        d.Obs.Codec.fast_path;
      Alcotest.(check int) (what ^ ": no handler ran") 0
        d.Obs.Codec.intercepted)
    [ ("no agent", ignore);
      ( "open-only agent",
        fun () -> Toolkit.Loader.install (open_only ()) ~argv:[||] ) ]

let install_symbolic depth () =
  for _ = 1 to depth do
    Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
  done

(* rewind + 64-byte read + getpid on a file opened before the window:
   three traps per iteration *)
let mixed_read_window ~depth iters =
  let fd = ref (-1) in
  counter_window
    ~install:(fun () ->
      install_symbolic depth ();
      check_ok "write"
        (Libc.Stdio.write_file "/tmp/mixed" (String.make 256 'h'));
      fd := check_ok "open" (Libc.Unistd.open_ "/tmp/mixed" 0 0))
    (fun () ->
      let buf = Bytes.create 64 in
      for _ = 1 to iters do
        ignore (Libc.Unistd.lseek !fd 0 0);
        ignore (Libc.Unistd.read !fd buf 64);
        ignore (Libc.Unistd.getpid ())
      done)

let test_fast_path_interested () =
  (* full interest at any depth: every trap runs the installed handler *)
  let iters = 25 in
  List.iter
    (fun (what, calls, d) ->
      Alcotest.(check int) (what ^ ": one trap per call") calls
        d.Obs.Codec.traps;
      Alcotest.(check int) (what ^ ": every trap ran its handler") calls
        d.Obs.Codec.intercepted;
      Alcotest.(check int) (what ^ ": fast path never taken") 0
        d.Obs.Codec.fast_path)
    (List.map
       (fun depth ->
         ( Printf.sprintf "getpid, depth %d" depth,
           iters,
           trap_window iters ~install:(install_symbolic depth) ))
       [ 1; 2; 3; 4 ]
    @ [ ("lseek+read+getpid, depth 4", 3 * iters,
         mixed_read_window ~depth:4 iters) ])

let test_counter_identity () =
  (* a window mixing both kinds of trap: each lands in exactly one of
     the two counters *)
  let iters = 10 in
  let d =
    counter_window
      ~install:(fun () -> Toolkit.Loader.install (open_only ()) ~argv:[||])
      (fun () ->
        for _ = 1 to iters do
          ignore (Libc.Unistd.getpid ());
          ignore (Libc.Unistd.open_ "/no/such/file" 0 0)
        done)
  in
  Alcotest.(check int) "getpid took the fast path" iters
    d.Obs.Codec.fast_path;
  Alcotest.(check int) "open ran its handler" iters
    d.Obs.Codec.intercepted;
  Alcotest.(check int) "traps = fast_path + intercepted"
    d.Obs.Codec.traps
    (d.Obs.Codec.fast_path + d.Obs.Codec.intercepted)

let passthrough env = Kernel.Uspace.htg_trap env

let all_numbers = List.init (Call.max_sysno + 1) Fun.id

let test_out_of_range_numbers () =
  (* numbers outside the handler table fail the range check: they go
     to the kernel, which knows no such call, even when every number in
     the table has a handler *)
  let results = ref [] in
  let d =
    counter_window
      ~install:(fun () ->
        Kernel.Uspace.task_set_emulation ~numbers:all_numbers
          (Some passthrough))
      (fun () ->
        results :=
          List.map
            (fun num -> Kernel.Uspace.trap_wire { Value.num; args = [||] })
            [ -1; Call.max_sysno + 1 ])
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "ENOSYS" true (r = Error Errno.ENOSYS))
    !results;
  Alcotest.(check int) "both took the fast path" 2 d.Obs.Codec.fast_path;
  Alcotest.(check int) "no handler ran" 0 d.Obs.Codec.intercepted

(* Model property for the one handler table.  Ops set and clear
   handlers over numbers that run past both ends of the table, capture
   a downlink, fork, and exec with [keep_emulation]; after every op,
   [task_get_emulation n] and [Downlink.captured_handler] agree with a
   model map for every number.  On fork, the parent then flips every
   slot of its own table while the child waits on a pipe: the child's
   table must still match the model as it was at the fork. *)
module Model = Map.Make (Int)

let handlers = Array.init 3 (fun i env -> ignore i; passthrough env)

let same got expect =
  match (got, expect) with
  | None, None -> true
  | Some f, Some i -> f == handlers.(i)
  | Some _, None | None, Some _ -> false

let in_table n = n >= 0 && n <= Call.max_sysno

let table_matches model =
  List.for_all
    (fun n -> same (Kernel.Uspace.task_get_emulation n) (Model.find_opt n model))
    (List.init (Call.max_sysno + 5) (fun i -> i - 2))

let downlink_matches dl model =
  List.for_all
    (fun n ->
      same (Toolkit.Downlink.captured_handler dl n) (Model.find_opt n model))
    (List.init (Call.max_sysno + 5) (fun i -> i - 2))

let set_in model numbers v =
  List.fold_left
    (fun m n ->
      if not (in_table n) then m
      else match v with Some i -> Model.add n i m | None -> Model.remove n m)
    model numbers

(* the parent's post-fork write: every empty slot gets handler 2, every
   filled slot is cleared *)
let flip model =
  let filled, empty = List.partition (fun n -> Model.mem n model) all_numbers in
  Kernel.Uspace.task_set_emulation ~numbers:empty (Some handlers.(2));
  Kernel.Uspace.task_set_emulation ~numbers:filled None;
  set_in Model.empty empty (Some 2)

let fork_keeps_table model =
  let r, w = check_ok "pipe" (Libc.Unistd.pipe ()) in
  let pid =
    check_ok "fork"
      (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.read r (Bytes.create 1) 1);
           if table_matches model then 0 else 1))
  in
  let model' = flip model in
  ignore (Libc.Unistd.write w "x");
  let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
  ignore (Libc.Unistd.close r);
  ignore (Libc.Unistd.close w);
  (Flags.Wait.wexitstatus st = 0, model')

let table_follows_model ops =
  let ok = ref true in
  let dl = Toolkit.Downlink.create () in
  let rec run model captured ops =
    if not (table_matches model && downlink_matches dl captured) then
      ok := false;
    match ops with
    | [] -> 0
    | (kind, h, numbers) :: rest ->
      let model, captured =
        match kind with
        | 0 ->
          Kernel.Uspace.task_set_emulation ~numbers (Some handlers.(h));
          (set_in model numbers (Some h), captured)
        | 1 ->
          Kernel.Uspace.task_set_emulation ~numbers None;
          (set_in model numbers None, captured)
        | 2 ->
          Toolkit.Downlink.capture dl ~numbers;
          ( model,
            List.fold_left
              (fun c n ->
                if not (in_table n) then c
                else match Model.find_opt n model with
                  | Some i -> Model.add n i c
                  | None -> Model.remove n c)
              captured numbers )
        | 3 ->
          let child_ok, model' = fork_keeps_table model in
          if not child_ok then ok := false;
          (model', captured)
        | _ ->
          Kernel.Uspace.exec_load
            { Kernel.Events.exec_name = "model";
              exec_body = (fun () -> run model captured rest);
              keep_emulation = true }
      in
      run model captured rest
  in
  let _, status = boot (fun () -> run Model.empty Model.empty ops) in
  exit_code status = 0 && !ok

let test_table_model =
  QCheck.Test.make ~name:"handler table follows model"
    ~count:30
    QCheck.(
      small_list
        (triple (int_bound 4) (int_bound 2)
           (small_list (int_range (-2) (Call.max_sysno + 2)))))
    table_follows_model

(* --- pass-through: a default hands down the envelope it serves -------- *)

(* Notes every envelope it is handed, with the call it holds then (a
   released envelope holds none), and passes it on unchanged. *)
class noting_layer (seen : (Envelope.t * Call.t) list ref) =
  object (self)
    inherit Toolkit.numeric_syscall as super
    method! init _ = self#register_interest_all
    method! syscall env =
      seen := (env, Envelope.held env) :: !seen;
      super#syscall env
  end

(* The bottom of a stack that answers every call but exit itself, with
   descriptor 7 for open and creat, so any call can cross the stack
   without touching the kernel. *)
class answering_layer (seen : (Envelope.t * Call.t) list ref) =
  object (self)
    inherit Toolkit.numeric_syscall as super
    method! init _ = self#register_interest_all
    method! syscall env =
      let n = Envelope.number env in
      if n = Sysno.sys_exit then super#syscall env
      else begin
        seen := (env, Envelope.held env) :: !seen;
        if n = Sysno.sys_open || n = Sysno.sys_creat then Value.ret 7
        else Value.ok
      end
  end

let serving () = (Kernel.Uspace.self ()).Kernel.Proc.serving

(* Call number [n] with arguments of its slots' kinds, read off the
   table: the first candidate vector its row decodes.  Every integer
   is 7, the descriptor [answering_layer]'s open returns. *)
let sample n =
  let kinds =
    Value.
      [ Int 7; Str "/pt/file"; Buf (Bytes.create 16); Strs [| "a" |];
        Body (fun () -> 0); Stat_ref (ref None); Tv_ref (ref None);
        Handler H_default; Handler_ref (ref None) ]
  in
  let rec vectors k =
    if k = 0 then [ [] ]
    else
      List.concat_map (fun v -> List.map (List.cons v) (vectors (k - 1))) kinds
  in
  List.find_map
    (fun args ->
      Result.to_option
        (Call.decode { Value.num = n; args = Array.of_list args }))
    (vectors 3)

(* Every row but the three the boilerplate rebuilds. *)
let passable =
  List.filter_map
    (fun n ->
      if List.mem n Sysno.[ sys_exit; sys_fork; sys_execve ] then None
      else
        match sample n with
        | Some c -> Some c
        | None -> Alcotest.failf "no sample call for %s" (Call.name n))
    Call.all

(* [c] trapped at the boundary under [noting_layer] over [layer] over
   [answering_layer]: the envelopes the two saw, and the pool records
   the trap took. *)
let cross ~top ~bottom c =
  top := [];
  bottom := [];
  let k = Kernel.current_exn () in
  let p0 = Kernel.env_pool_stats k in
  ignore (Kernel.Uspace.syscall c);
  let d = Obs.Env_pool.diff p0 (Kernel.env_pool_stats k) in
  if serving () != Envelope.none then
    Alcotest.failf "%a: serving not restored" Call.pp c;
  (!top, !bottom, d.Obs.Env_pool.hits + d.Obs.Env_pool.misses)

let passes_through ~top ~bottom c =
  match cross ~top ~bottom c with
  | [ (e, _) ], [ (e', c') ], 1 when e == e' && c' == c -> ()
  | t, b, takes ->
    Alcotest.failf "%a: %d envelope(s) above, %d below, %s, %d pool take(s)"
      Call.pp c (List.length t) (List.length b)
      (match t, b with
       | [ (e, _) ], [ (e', _) ] when e == e' -> "the same one"
       | _ -> "not the same one")
      takes

(* Boot with [layer] between the two probes; [body] gets them. *)
let with_probe_stack (layer : #Toolkit.numeric_syscall) body =
  let top = ref [] and bottom = ref [] in
  let _, status =
    boot (fun () ->
      Toolkit.Loader.install (new answering_layer bottom) ~argv:[||];
      Toolkit.Loader.install layer ~argv:[||];
      Toolkit.Loader.install (new noting_layer top) ~argv:[||];
      body ~top ~bottom;
      0)
  in
  check_exit "session" 0 status

let test_passthrough_every_row () =
  with_probe_stack (Agents.Time_symbolic.create ()) (fun ~top ~bottom ->
    List.iter (passes_through ~top ~bottom) passable)

let descriptor_agent () =
  object (self)
    inherit Toolkit.Sets.descriptor_set
    method! init _ = self#register_interest_all
  end

(* Each descriptor call on a descriptor the layer tracks goes through
   its open object, which hands the envelope down too. *)
let test_passthrough_descriptor_objects () =
  let agent = descriptor_agent () in
  with_probe_stack agent (fun ~top ~bottom ->
    List.iter
      (fun c ->
        if List.mem (Call.number c) Call.descriptor_calls then begin
          ignore (Kernel.Uspace.syscall (Call.Open ("/pt/file", 0, 0)));
          if Call.fd_first (Call.number c) && agent#descriptor_of 7 = None
          then Alcotest.fail "descriptor 7 untracked";
          passes_through ~top ~bottom c
        end)
      passable)

let pathname_agent () =
  object (self)
    inherit Toolkit.Sets.pathname_set
    method! init _ = self#register_interest_all
  end

let test_passthrough_pathname_objects () =
  with_probe_stack (pathname_agent ()) (fun ~top ~bottom ->
    List.iter
      (fun c ->
        if List.mem (Call.number c) Call.pathname_calls then
          passes_through ~top ~bottom c)
      passable)

(* An override that changes an argument before [super]: the call below
   is the changed one, in an envelope of its own. *)
let test_override_changes_call () =
  let agent =
    object (self)
      inherit Toolkit.symbolic_syscall as super
      method! init _ = self#register_interest_all
      method! sys_read fd buf cnt = super#sys_read (fd + 1) buf cnt
      method! sys_write fd data =
        super#sys_write fd (String.init (String.length data) (String.get data))
      method! sys_lseek fd off whence = super#sys_lseek fd off (whence + 1)
    end
  in
  let buf = Bytes.create 8 and data = "payload" in
  with_probe_stack agent (fun ~top ~bottom ->
    List.iter
      (fun (c, expect) ->
        match cross ~top ~bottom c with
        | [ (e, _) ], [ (e', c') ], 2 when e != e' ->
          if not (expect c') then
            Alcotest.failf "%a reached the layer below as %a" Call.pp c Call.pp
              c'
        | _ -> Alcotest.failf "%a: not rebuilt in a pooled envelope" Call.pp c)
      [ ( Call.Read (3, buf, 8),
          function Call.Read (4, b, 8) -> b == buf | _ -> false );
        ( Call.Write (3, data),
          function Call.Write (3, d) -> d = data && d != data | _ -> false );
        ( Call.Lseek (3, 0, 0),
          function Call.Lseek (3, 0, 1) -> true | _ -> false ) ])

(* A nullary default called outside any dispatch: the process serves
   [Envelope.none], whose record holds a nullary call as every record
   without a typed view does, so the call must go down in a record of
   its own, and reach the kernel. *)
let test_nullary_outside_dispatch () =
  let below = ref [] and at_init = ref [] in
  let outside = ref false and res = ref (Error Errno.EINVAL) in
  let agent =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ =
        self#register_interest_all;
        outside := serving () == Envelope.none;
        res := self#sys_sync ();
        at_init := !below
    end
  in
  let _, status =
    boot (fun () ->
      Toolkit.Loader.install (new noting_layer below) ~argv:[||];
      Toolkit.Loader.install agent ~argv:[||];
      0)
  in
  check_exit "session" 0 status;
  Alcotest.(check bool) "init runs outside any dispatch" true !outside;
  Alcotest.(check bool) "sync reached the kernel" true (Result.is_ok !res);
  match !at_init with
  | [ (e, Call.Sync) ] when e != Envelope.none -> ()
  | seen ->
    Alcotest.failf "%d envelope(s) below, Envelope.none among them: %b"
      (List.length seen)
      (List.exists (fun (e, _) -> e == Envelope.none) seen)

(* A getpid under four null layers takes one pool record, the
   boundary's, which goes down through every layer: not one per
   layer. *)
let test_passthrough_stacked_getpid () =
  let takes = ref 0 in
  let _, status =
    boot (fun () ->
      for _ = 1 to 4 do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      let k = Kernel.current_exn () in
      let p0 = Kernel.env_pool_stats k in
      for _ = 1 to 100 do
        ignore (Kernel.Uspace.syscall Call.Getpid)
      done;
      let d = Obs.Env_pool.diff p0 (Kernel.env_pool_stats k) in
      takes := d.Obs.Env_pool.hits + d.Obs.Env_pool.misses;
      0)
  in
  check_exit "session" 0 status;
  Alcotest.(check int) "pool records for 100 traps" 100 !takes

(* [Call.same*] holds exactly for the call's own number and arity with
   every argument physically its field.  Each case is a call, its
   fields, and for each field another value that is equal (a copy) or
   not, never physically the same. *)
type arg = A : 'a -> arg

let same_case =
  let open QCheck.Gen in
  let* fd = small_nat and* s = map (Printf.sprintf "/p/%d") small_nat in
  let buf = Bytes.make 4 'b' and cell = ref None in
  let copy s = String.init (String.length s) (String.get s) in
  (* built at run time: a constant [Some] would be one shared block *)
  let handler () = Some (Sys.opaque_identity Value.H_default) in
  let h = handler () and o = Some (ref None) in
  let* c, fields, others =
    oneofl
      [ (Call.Read (fd, buf, 4), [ A fd; A buf; A 4 ],
         [ A (fd + 1); A (Bytes.copy buf); A 5 ]);
        (Call.Write (fd, s), [ A fd; A s ], [ A (fd + 1); A (copy s) ]);
        (Call.Close fd, [ A fd ], [ A (fd + 1) ]);
        (Call.Stat (s, cell), [ A s; A cell ], [ A (copy s); A (ref None) ]);
        (Call.Sigaction (fd, h, o), [ A fd; A h; A o ],
         [ A (fd + 1); A (handler ()); A (Some (ref None)) ]);
        (Call.Getpid, [], []) ]
  in
  let* keep = list_repeat (List.length fields) bool in
  let* n = oneofl [ Call.number c; Sysno.sys_lseek; Sysno.sys_fstat ] in
  let args = List.map2 (fun k (f, o) -> if k then f else o) keep
      (List.combine fields others) in
  return
    (c, n, args, fields <> [] && n = Call.number c && List.for_all Fun.id keep)

let same c n = function
  | [ A a ] -> Call.same1 c n a
  | [ A a; A b ] -> Call.same2 c n a b
  | [ A a; A b; A d ] -> Call.same3 c n a b d
  | _ -> false

let test_same_exact =
  QCheck.Test.make ~name:"Call.same* holds exactly for physically equal fields"
    ~count:1000
    (QCheck.make
       ~print:(fun (c, n, args, _) ->
         Format.asprintf "%a as %s with %d arg(s)" Call.pp c (Call.name n)
           (List.length args))
       same_case)
    (fun (c, n, args, expect) ->
      (* and never at another arity, whatever is passed *)
      let pad = [ A 0; A 0; A 0 ] in
      let others =
        List.filter (fun k -> k <> List.length args) [ 1; 2; 3 ]
        |> List.map (fun k -> List.filteri (fun i _ -> i < k) (args @ pad))
      in
      same c n args = expect
      && List.for_all (fun a -> not (same c n a)) others)

(* --- pass-through against the process's own stack ------------------------ *)

(* Passes every call down, noting which process made it and the call
   it carried. *)
class witness_layer (seen : (int * Call.t) list ref) =
  object (self)
    inherit Toolkit.numeric_syscall as super
    method! init _ = self#register_interest_all
    method! syscall env =
      seen := ((Kernel.Uspace.self ()).Kernel.Proc.pid, Envelope.held env)
              :: !seen;
      super#syscall env
  end

let install_witnessed seen =
  Toolkit.Loader.install (new witness_layer seen) ~argv:[||];
  Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]

let at_rest what =
  if serving () != Envelope.none then
    Alcotest.failf "%s: serving not restored" what

(* The pids that passed [pick]'s calls down, oldest first. *)
let callers seen pick =
  List.rev
    (List.filter_map (fun (pid, c) -> if pick c then Some pid else None) seen)

(* A read into buffer [b], a write of string [d], each physically. *)
let reads_into b = function Call.Read (_, b', _) -> b' == b | _ -> false
let writes d = function Call.Write (_, d') -> d' == d | _ -> false

(* Two processes share one agent after fork: the child parks in a read
   while the parent traps, then the parent parks while the child
   writes.  Each read and write below carries its own process's
   buffer or string. *)
let test_passthrough_fork_shares_agent () =
  let module U = Libc.Unistd in
  let seen = ref [] in
  let cbuf = Bytes.create 8 and pbuf = Bytes.create 8 in
  let ping = "ping" and pong = "pong" in
  let pids = ref (0, 0) in
  let _, status =
    boot (fun () ->
      let r1, w1 = check_ok "pipe" (U.pipe ()) in
      let r2, w2 = check_ok "pipe" (U.pipe ()) in
      install_witnessed seen;
      let child =
        check_ok "fork"
          (U.fork ~child:(fun () ->
             (* runs first, and parks: the pipe is empty *)
             ignore (check_ok "child read" (U.read r1 cbuf 8));
             at_rest "child after read";
             ignore (check_ok "child write" (U.write w2 pong));
             at_rest "child after write";
             0))
      in
      pids := (U.getpid (), child);
      ignore (check_ok "parent write" (U.write w1 ping));
      ignore (check_ok "parent read" (U.read r2 pbuf 8));
      at_rest "parent after read";
      let _, st = check_ok "wait" (U.waitpid child 0) in
      List.iter (fun fd -> ignore (U.close fd)) [ r1; w1; r2; w2 ];
      exit_code st)
  in
  check_exit "session" 0 status;
  let parent, child = !pids in
  let check what pick pid =
    Alcotest.(check (list int)) what [ pid ] (callers !seen pick)
  in
  check "the child's read" (reads_into cbuf) child;
  check "the parent's read" (reads_into pbuf) parent;
  check "the parent's write" (writes ping) parent;
  check "the child's write" (writes pong) child

(* A handler runs inside a parked read and traps; the read then
   finishes as its own call. *)
let test_passthrough_handler_in_parked_call () =
  let module U = Libc.Unistd in
  let seen = ref [] in
  let buf = Bytes.create 8 and note = "handled" in
  let inside = ref [] and parent = ref 0 in
  let _, status =
    boot (fun () ->
      parent := U.getpid ();
      let r, w = check_ok "pipe" (U.pipe ()) in
      let null = check_ok "open" (U.open_ "/dev/null" Flags.Open.o_wronly 0) in
      install_witnessed seen;
      ignore
        (check_ok "signal"
           (U.signal Signal.sigusr1
              (Value.H_fn
                 (fun _ ->
                   let outer = serving () in
                   ignore (U.write null note);
                   inside :=
                     (Envelope.held outer, serving () == outer) :: !inside))));
      let child =
        check_ok "fork"
          (U.fork ~child:(fun () ->
             ignore (U.sleep_us 1000);
             ignore (check_ok "kill" (U.kill (U.getppid ()) Signal.sigusr1));
             ignore (U.sleep_us 1000);
             ignore (check_ok "write" (U.write w "x"));
             0))
      in
      let rec read () =
        match U.read r buf 8 with
        | Error Errno.EINTR -> read ()
        | res -> check_ok "read" res
      in
      ignore (read ());
      at_rest "after the read";
      let _, st = check_ok "wait" (U.waitpid child 0) in
      List.iter (fun fd -> ignore (U.close fd)) [ r; w; null ];
      exit_code st)
  in
  check_exit "session" 0 status;
  (match !inside with
   | [ (Call.Read (_, b, _), true) ] when b == buf -> ()
   | [ (c, restored) ] ->
     Alcotest.failf "the handler ran serving %a, restored %b" Call.pp c restored
   | l -> Alcotest.failf "the handler ran %d times" (List.length l));
  Alcotest.(check int) "the handler's write went down once" 1
    (List.length (callers !seen (writes note)));
  let readers = callers !seen (reads_into buf) in
  Alcotest.(check bool) "the read went down as the parent's" true
    (readers <> [] && List.for_all (( = ) !parent) readers)

(* The image an exec loads under the stack starts serving nothing, and
   its calls cross as its own. *)
let probe_note = "probe"

let test_passthrough_across_execve () =
  let module U = Libc.Unistd in
  let seen = ref [] in
  let k = fresh_kernel () in
  Kernel.register_image k "pt-probe" (fun ~argv:_ ~envp:_ () ->
    if serving () != Envelope.none then 3
    else
      match U.open_ "/dev/null" Flags.Open.o_wronly 0 with
      | Error _ -> 4
      | Ok fd ->
        ignore (U.write fd probe_note);
        ignore (U.close fd);
        if serving () == Envelope.none then 0 else 5);
  Kernel.install_image k ~path:"/bin/pt-probe" ~image:"pt-probe";
  let status =
    boot_k k (fun () ->
      install_witnessed seen;
      match U.execv "/bin/pt-probe" [| "pt-probe" |] with
      | Error _ -> 1
      | Ok _ -> 2)
  in
  check_exit "the probe ran clean" 0 status;
  Alcotest.(check int) "its write went down once" 1
    (List.length (callers !seen (writes probe_note)))

let () =
  Alcotest.run "toolkit"
    [ "loader",
      [ Alcotest.test_case "null agent transparent" `Quick
          test_null_agent_transparent;
        Alcotest.test_case "stacking order" `Quick test_stacking_order;
        Alcotest.test_case "decode once under stack" `Quick
          test_decode_once_under_stack;
        Alcotest.test_case "uninstall restores" `Quick
          test_uninstall_restores;
        Alcotest.test_case "minimum interests" `Quick
          test_loader_adds_minimum;
        Alcotest.test_case "exec_under" `Quick test_exec_under;
        Alcotest.test_case "exec_under missing" `Quick
          test_exec_under_missing_program;
        Alcotest.test_case "interest registration" `Quick
          test_interests_registration ];
      "symbolic",
      [ Alcotest.test_case "override one call" `Quick test_symbolic_override;
        Alcotest.test_case "survives execve" `Quick
          test_agent_survives_execve;
        Alcotest.test_case "execve inside run_under" `Quick
          test_exec_inside_run_under;
        Alcotest.test_case "init_child on fork" `Quick
          test_init_child_runs_in_fork;
        Alcotest.test_case "unknown syscall" `Quick
          test_unknown_syscall_enosys;
        Alcotest.test_case "buggy agent contained" `Quick
          test_buggy_agent_contained;
        Alcotest.test_case "agent errno" `Quick
          test_agent_error_return_propagates ];
      "objects",
      [ Alcotest.test_case "open-object factory" `Quick
          test_descriptor_factory_transform;
        Alcotest.test_case "dup shares object" `Quick
          test_descriptor_tracking_dup;
        Alcotest.test_case "pathname remap" `Quick test_pathname_remap;
        Alcotest.test_case "directory iteration" `Quick
          test_directory_object_iteration;
        Alcotest.test_case "descriptor layer charges" `Quick
          test_descriptor_layer_charges ];
      "fastpath",
      [ Alcotest.test_case "uninterested traps" `Quick
          test_fast_path_uninterested;
        Alcotest.test_case "interested traps" `Quick
          test_fast_path_interested;
        Alcotest.test_case "counter identity" `Quick test_counter_identity;
        Alcotest.test_case "out-of-range numbers" `Quick
          test_out_of_range_numbers;
        qtest test_table_model ];
      "passthrough",
      [ Alcotest.test_case "every row hands its envelope down" `Quick
          test_passthrough_every_row;
        Alcotest.test_case "descriptor objects hand it down" `Quick
          test_passthrough_descriptor_objects;
        Alcotest.test_case "pathname objects hand it down" `Quick
          test_passthrough_pathname_objects;
        Alcotest.test_case "an override's changed call" `Quick
          test_override_changes_call;
        Alcotest.test_case "forked processes share an agent" `Quick
          test_passthrough_fork_shares_agent;
        Alcotest.test_case "a handler inside a parked call" `Quick
          test_passthrough_handler_in_parked_call;
        Alcotest.test_case "across execve" `Quick
          test_passthrough_across_execve;
        Alcotest.test_case "a nullary call outside any dispatch" `Quick
          test_nullary_outside_dispatch;
        Alcotest.test_case "a stacked getpid takes one record" `Quick
          test_passthrough_stacked_getpid;
        qtest test_same_exact ] ]
