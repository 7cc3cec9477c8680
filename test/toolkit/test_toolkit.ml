(* Toolkit-layer tests: installation and stacking, layer routing,
   fork/execve survival, descriptor and pathname object plumbing. *)

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
        qtest test_table_model ] ]
