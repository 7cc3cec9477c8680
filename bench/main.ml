(* The benchmark harness: regenerates every table of the paper's
   evaluation (Tables 3-1 .. 3-5) and the §3.5.3 DFSTrace comparison
   (the reports), and runs the DESIGN.md ablations and the CI gates
   (the gates).  Each gate checks its bounds and writes
   BENCH_<stem>.json into the current directory.

     dune exec bench/main.exe                   -- every report
     dune exec bench/main.exe gates             -- every gate
     dune exec bench/main.exe table3.2 causal   -- selected sections

   Every figure a gate writes is deterministic: `make check` diffs the
   documents against bench/golden/.  Host time is measured by perf/.
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Abi

(* --- common helpers ------------------------------------------------------- *)

module Table = Workloads.Table

let host_rename k src dst =
  let fs = Kernel.fs k in
  let root = Vfs.Fs.root_ino fs in
  match Vfs.Fs.rename fs Vfs.Fs.root_cred ~cwd:root ~src dst with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "rename %s: %s" src (Errno.name e))

type run_result = {
  seconds : float;
  calls : int;
  status : int;
}

let finish k status =
  { seconds = Kernel.elapsed_seconds k;
    calls = Kernel.total_syscalls k;
    status }

(* Installs [stack]'s agents inside the running session, bottom-most
   first. *)
let install (stack : Conformance.stack) () =
  List.iter
    (fun a -> Toolkit.Loader.install a ~argv:[||])
    (stack.Conformance.sk_make ())

(* The four agent configurations of Tables 3-2/3-3; the union agent
   mounts the workload's split tree. *)
let none = Conformance.stack "none" []
let timex = Conformance.stack "timex" [ "timex" ]
let trace = Conformance.stack "trace" [ "trace:/trace.out" ]
let union mount = Conformance.stack "union" [ "union:" ^ mount ]

let dfs_trace = Conformance.stack "dfs_trace" [ "dfs_trace:/dfs.log" ]

(* One session of the workload row [w], [install] making its agent
   stack. *)
let run_row (w : Table.workload) ~session install =
  let k = Table.prepare w.w_setup in
  finish k
    (Kernel.boot k ~name:session (fun () ->
       install ();
       w.w_body ()))

(* --- Table 3-1: sizes of agents ------------------------------------------- *)

let repo_root = lazy (Option.value ~default:"." (Sim.Loc.find_repo_root ()))

let count_sources files =
  List.fold_left
    (fun acc rel ->
      let path = Filename.concat (Lazy.force repo_root) rel in
      if Sys.file_exists path then Sim.Loc.add acc (Sim.Loc.count_file path)
      else acc)
    Sim.Loc.zero files

let toolkit_lower_sources =
  [ "lib/core/downlink.ml"; "lib/core/boilerplate.ml"; "lib/core/numeric.ml";
    "lib/core/symbolic.ml"; "lib/core/loader.ml"; "lib/core/toolkit.ml" ]

let toolkit_full_sources =
  toolkit_lower_sources @ [ "lib/core/objects.ml"; "lib/core/sets.ml" ]

let table3_1 () =
  Report.print_title
    "Table 3-1: sizes of agents (statements; paper counted semicolons)";
  let lower = count_sources toolkit_lower_sources in
  let full = count_sources toolkit_full_sources in
  let agent_rows =
    [ "timex", [ "lib/agents/timex.ml" ], lower, (2467, 35);
      "trace", [ "lib/agents/trace.ml" ], lower, (2467, 1348);
      "union",
      [ "lib/agents/union.ml"; "lib/agents/merged_dir.ml" ],
      full,
      (3977, 166) ]
  in
  let rows =
    List.map
      (fun (name, files, tk, (paper_tk, paper_agent)) ->
        let a = count_sources files in
        [ name;
          string_of_int tk.Sim.Loc.statements;
          string_of_int a.Sim.Loc.statements;
          string_of_int a.Sim.Loc.lines;
          string_of_int (tk.Sim.Loc.statements + a.Sim.Loc.statements);
          Printf.sprintf "%d / %d" paper_tk paper_agent ])
      agent_rows
  in
  Report.print_table
    ~headers:
      [ "agent"; "toolkit stmts"; "agent stmts"; "agent lines"; "total";
        "paper (toolkit/agent)" ]
    rows;
  Report.print_note
    "The shape to check: agent code stays proportional to new\n\
     functionality (timex tiny, union small); trace alone grows with\n\
     the size of the system interface.";
  let trace = count_sources [ "lib/agents/trace.ml" ] in
  let timex = count_sources [ "lib/agents/timex.ml" ] in
  let union =
    count_sources [ "lib/agents/union.ml"; "lib/agents/merged_dir.ml" ]
  in
  Printf.printf
    "ratios: trace/timex = %.1fx (paper %.1fx), union/timex = %.1fx (paper %.1fx)\n"
    (float_of_int trace.Sim.Loc.statements
     /. float_of_int timex.Sim.Loc.statements)
    (1348.0 /. 35.0)
    (float_of_int union.Sim.Loc.statements
     /. float_of_int timex.Sim.Loc.statements)
    (166.0 /. 35.0)

(* --- Table 3-2: formatting a document -------------------------------------- *)

(* scribe's tree split so the union agent has real work: the chapters
   live in a second member directory *)
let scribe_split k =
  Table.Paper.scribe.w_setup k;
  Kernel.mkdir_p k "/doc.inc";
  List.iter
    (fun i ->
      let name = Printf.sprintf "chapter%d.mss" i in
      if Kernel.exists k ("/doc/" ^ name) then
        host_rename k ("/doc/" ^ name) ("/doc.inc/" ^ name))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  host_rename k "/doc" "/doc.main"

let run_scribe (stack : Conformance.stack) =
  let w = Table.Paper.scribe in
  run_row
    (if stack.sk_name = "union" then { w with w_setup = scribe_split } else w)
    ~session:"scribe-session" (install stack)

(* Tables 3-2/3-3: [run] under each stack beside the paper's seconds,
   whose first row is the paper's unagented time *)
let agent_costs run paper =
  let paper_none = snd (List.hd paper) in
  let base = ref 0.0 in
  Report.print_table
    ~headers:
      [ "agent"; "virtual s"; "slowdown"; "syscalls"; "paper s (slowdown)";
        "status" ]
    (List.map
       (fun ((s : Conformance.stack), paper_secs) ->
         let r = run s in
         if s == none then base := r.seconds;
         [ s.sk_name;
           Report.secs r.seconds;
           Report.pct !base r.seconds;
           string_of_int r.calls;
           Printf.sprintf "%.1f (%s)" paper_secs
             (Report.pct paper_none paper_secs);
           (if r.status = 0 then "ok" else "FAILED") ])
       paper)

let table3_2 () =
  Report.print_title "Table 3-2: time to format the dissertation";
  agent_costs run_scribe
    [ none, 128.9; timex, 129.4; trace, 132.4;
      union "/doc=/doc.main:/doc.inc", 133.9 ]

(* --- Table 3-3: make 8 programs --------------------------------------------- *)

let run_make (stack : Conformance.stack) =
  run_row
    (if stack.sk_name = "union" then Table.Paper.make_split
     else Table.Paper.make)
    ~session:"make-session" (install stack)

let table3_3 () =
  Report.print_title "Table 3-3: time to make 8 programs";
  agent_costs run_make
    [ none, 16.0; timex, 19.0; union "/proj=/objdir:/srcdir", 29.0;
      trace, 33.0 ];
  Report.print_note
    "Ordering to check: none < timex << union < trace, with the\n\
     process-heavy workload amplifying every agent's cost."

(* --- micro-measurement machinery --------------------------------------------- *)

(* Per-operation virtual cost: run a session performing [iters]
   repetitions and an identical session performing none; the
   difference divided by [iters] isolates the call. *)
let measure_virtual ?(iters = 200) ~with_agent ~prepare op =
  let session n =
    let k = Table.prepare ignore in
    Kernel.write_file k ~path:"/m/big" (String.make ((iters + 2) * 1024) 'd');
    Kernel.mkdir_p k "/usr/lib/pkg/deep/sub";
    Kernel.write_file k ~path:"/usr/lib/pkg/deep/sub/leaf" "x";
    Kernel.register_image k "btrue" (fun ~argv:_ ~envp:_ () -> 0);
    Kernel.install_image k ~path:"/bin/btrue" ~image:"btrue";
    let _ =
      Kernel.boot k ~name:"micro" (fun () ->
        if with_agent then
          Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
        let ctx = prepare () in
        for _ = 1 to n do
          op ctx
        done;
        0)
    in
    Kernel.elapsed_seconds k *. 1e6
  in
  let full = session iters in
  let empty = session 0 in
  (full -. empty) /. float_of_int iters

type micro_op = {
  op_name : string;
  prepare : unit -> int;  (* a context descriptor, e.g. an open fd *)
  run : int -> unit;
  paper_without : string;
  paper_with : string;
}

let micro_ops =
  let ignore_res (_ : Value.res) = () in
  [ { op_name = "getpid()";
      prepare = (fun () -> 0);
      run = (fun _ -> ignore (Libc.Unistd.getpid ()));
      paper_without = "25";
      paper_with = "~165-235" };
    { op_name = "gettimeofday()";
      prepare = (fun () -> 0);
      run = (fun _ -> ignore (Libc.Unistd.gettimeofday ()));
      paper_without = "47";
      paper_with = "~187-257" };
    { op_name = "fstat()";
      prepare =
        (fun () ->
          match Libc.Unistd.open_ "/m/big" Flags.Open.o_rdonly 0 with
          | Ok fd -> fd
          | Error _ -> -1);
      run = (fun fd -> ignore (Libc.Unistd.fstat fd));
      paper_without = "(garbled)";
      paper_with = "(garbled)" };
    { op_name = "read() 1K of data";
      prepare =
        (fun () ->
          match Libc.Unistd.open_ "/m/big" Flags.Open.o_rdonly 0 with
          | Ok fd -> fd
          | Error _ -> -1);
      run =
        (let buf = Bytes.create 1024 in
         fun fd -> ignore (Libc.Unistd.read fd buf 1024));
      paper_without = "370";
      paper_with = "~510-580" };
    { op_name = "stat() 6-component";
      prepare = (fun () -> 0);
      run =
        (fun _ -> ignore (Libc.Unistd.stat "/usr/lib/pkg/deep/sub/leaf"));
      paper_without = "892";
      paper_with = "~1030-1100" };
    { op_name = "fork(),wait(),_exit()";
      prepare = (fun () -> 0);
      run =
        (fun _ ->
          match Libc.Unistd.fork ~child:(fun () -> 0) with
          | Ok pid -> ignore (Libc.Unistd.waitpid pid 0)
          | Error _ -> ());
      paper_without = "~10000 (prose)";
      paper_with = "~20000 (prose)" };
    { op_name = "execve() (fork+exec+wait)";
      prepare = (fun () -> 0);
      run =
        (fun _ ->
          ignore_res
            (match
               Libc.Spawn.run "/bin/btrue" [| "btrue" |]
             with
             | Ok _ -> Value.ret 0
             | Error e -> Error e));
      paper_without = "~20000 (prose)";
      paper_with = "~40000 (prose)" } ]

let table3_5 () =
  Report.print_title
    "Table 3-5: per-system-call cost without / with the null symbolic agent (us)";
  let rows =
    List.map
      (fun op ->
        let iters =
          if op.op_name = "fork(),wait(),_exit()"
             || op.op_name = "execve() (fork+exec+wait)"
          then 40
          else 200
        in
        let without =
          measure_virtual ~iters ~with_agent:false ~prepare:op.prepare op.run
        in
        let with_agent =
          measure_virtual ~iters ~with_agent:true ~prepare:op.prepare op.run
        in
        [ op.op_name;
          Report.us without;
          Report.us with_agent;
          Report.us (with_agent -. without);
          op.paper_without;
          op.paper_with ])
      micro_ops
  in
  Report.print_table
    ~headers:
      [ "operation"; "without"; "with agent"; "toolkit overhead";
        "paper w/o"; "paper w/" ]
    rows;
  Report.print_note
    "Check: simple calls pay a flat 140-210us symbolic-layer toll;\n\
     fork/execve roughly double (the from-scratch reimplementation)."

(* --- Table 3-4: low-level operations ------------------------------------------ *)

let wall_us f ~iters =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e6

let table3_4 () =
  Report.print_title "Table 3-4: low-level operations";
  (* virtual-model constants *)
  let model_rows =
    [ [ "intercept and return from syscall";
        string_of_int Cost_model.intercept_us; "30" ];
      [ "htg_unix_syscall() overhead";
        string_of_int Cost_model.htg_overhead_us; "37" ];
      [ "symbolic decode (3 args)";
        string_of_int (Cost_model.symbolic_decode_us ~nargs:3); "(in 140-210 band)" ] ]
  in
  Report.print_table
    ~headers:[ "operation (virtual model)"; "charged us"; "paper us" ]
    model_rows;
  (* wall-clock equivalents of the paper's call-dispatch rows *)
  let f x = x + 1 in
  let f = Sys.opaque_identity f in
  let obj =
    object
      method m x = x + 1
    end
  in
  let obj = Sys.opaque_identity obj in
  let acc = ref 0 in
  let call_us = wall_us ~iters:2_000_000 (fun () -> acc := f !acc) in
  let virt_us = wall_us ~iters:2_000_000 (fun () -> acc := obj#m !acc) in
  Report.print_table
    ~headers:[ "operation (wall clock, this machine)"; "measured us"; "paper us (25MHz 486)" ]
    [ [ "OCaml function call + result";
        Printf.sprintf "%.4f" call_us;
        Printf.sprintf "%.2f (C call)" Cost_model.paper_c_call_us ];
      [ "OCaml method call + result";
        Printf.sprintf "%.4f" virt_us;
        Printf.sprintf "%.2f (C++ virtual)" Cost_model.paper_virtual_call_us ] ]

(* --- DFSTrace comparison (§3.5.3) ----------------------------------------------- *)

let run_afs mode =
  let k = Table.prepare Table.Paper.afs.w_setup in
  (match mode with
   | `Kernel_hook -> ignore (Agents.Dfs_kernel.install k)
   | `Base | `Agent -> ());
  let status =
    Kernel.boot k ~name:"afs" (fun () ->
      if mode = `Agent then install dfs_trace ();
      Table.Paper.afs.w_body ())
  in
  finish k status

let dfstrace () =
  Report.print_title
    "DFSTrace (3.5.3): in-kernel vs agent-based file-reference tracing";
  let base = run_afs `Base in
  let hook = run_afs `Kernel_hook in
  let agent = run_afs `Agent in
  Report.print_table
    ~headers:[ "configuration"; "virtual s"; "slowdown"; "paper slowdown" ]
    [ [ "no tracing"; Report.secs base.seconds; "-"; "-" ];
      [ "kernel-based (hook)"; Report.secs hook.seconds;
        Report.pct base.seconds hook.seconds; "3.0%" ];
      [ "agent-based (dfs_trace)"; Report.secs agent.seconds;
        Report.pct base.seconds agent.seconds; "64%" ] ];
  let agent_impl =
    count_sources [ "lib/agents/dfs_trace.ml"; "lib/agents/dfs_record.ml" ]
  in
  let kernel_impl =
    count_sources [ "lib/agents/dfs_kernel.ml"; "lib/agents/dfs_record.ml" ]
  in
  Printf.printf
    "implementation size: kernel-based %d stmts, agent-based %d stmts\n\
     (paper: 1627 vs 1584 -- the two implementations are the same size class)\n"
    kernel_impl.Sim.Loc.statements agent_impl.Sim.Loc.statements

(* --- stacked-getpid measurements (ablations 3/4) ---------------------------------- *)

let stack_cost depth =
  measure_virtual ~iters:300 ~with_agent:false
    ~prepare:(fun () ->
      for _ = 1 to depth do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      0)
    (fun _ -> ignore (Libc.Unistd.getpid ()))

(* envelope codec counters over the same stacked-getpid loop: the
   decode-once invariant, measured rather than asserted *)
let stack_codec depth =
  let iters = 50 in
  let k = Table.prepare ignore in
  let before = ref (Kernel.codec_stats k) in
  let after = ref !before in
  let _ =
    Kernel.boot k ~name:"codec" (fun () ->
      for _ = 1 to depth do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      before := Kernel.codec_stats k;
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      after := Kernel.codec_stats k;
      0)
  in
  let d = Obs.Codec.diff !before !after in
  (iters, d)

(* The same loop with tracing ON: per-(depth, layer) attribution from
   the Obs engine, plus the global codec diff over the identical window
   so the two accountings can be cross-checked. *)
type attrib = {
  at_iters : int;
  at_metrics : Obs.metrics;
  at_codec : Obs.Codec.t; (* diff over the traced window *)
}

let stack_attrib depth =
  let iters = 50 in
  let k = Table.prepare ignore in
  let before = ref (Kernel.codec_stats k) in
  let after = ref !before in
  Obs.reset ();
  let _ =
    Kernel.boot k ~name:"attrib" (fun () ->
      for _ = 1 to depth do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      Obs.enable ();
      before := Kernel.codec_stats k;
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      after := Kernel.codec_stats k;
      Obs.disable ();
      0)
  in
  let m = Kernel.metrics k in
  { at_iters = iters;
    at_metrics = m;
    at_codec = Obs.Codec.diff !before !after }

(* attribution invariants: per-layer codec totals = global diff, and
   per-layer self times sum to the end-to-end span times *)
let attrib_checks a =
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 a.at_metrics.Obs.m_layers in
  let layer_decodes = sum (fun l -> l.Obs.lm_decodes) in
  let layer_encodes = sum (fun l -> l.Obs.lm_encodes) in
  let layer_self = sum (fun l -> l.Obs.lm_self_us) in
  let span_total =
    List.fold_left
      (fun acc s -> acc + Obs.Hist.sum_us s.Obs.sm_hist)
      0 a.at_metrics.Obs.m_syscalls
  in
  let codec_ok =
    layer_decodes = a.at_codec.Obs.Codec.decodes
    && layer_encodes = a.at_codec.Obs.Codec.encodes
  in
  (layer_decodes, layer_encodes, layer_self, span_total, codec_ok)

let per_trap iters n = Printf.sprintf "%.2f" (float_of_int n /. float_of_int iters)

(* --- uninterested-trap fast path (ablation 6) ----------------------------------- *)

(* A stack of agents interested only in open(): getpid finds an empty
   handler slot, so every trap should take the fast path no matter how
   deep the stack is. *)
let install_uninterested depth =
  for _ = 1 to depth do
    let a = new Toolkit.numeric_syscall in
    a#register_interest Sysno.sys_open;
    Toolkit.Loader.install a ~argv:[||]
  done

let uninterested_cost depth =
  measure_virtual ~iters:300 ~with_agent:false
    ~prepare:(fun () ->
      install_uninterested depth;
      0)
    (fun _ -> ignore (Libc.Unistd.getpid ()))

(* Real-allocation probe over a hot loop under an agent stack: minor
   words per trap (host-side, not virtual, but a pure function of the
   code path), envelope-pool hit/recycle accounting and the fast-path
   counter over the same window.  [prepare] builds the loop's state
   before [install] stacks the agents, so a descriptor it opens is one
   no agent tracks, and [iter] performs [tpi] traps; the pool is warmed
   first so the window sees the steady state. *)
type alloc_report = {
  al_traps : int;
  al_minor_words_per_trap : float;
  al_pool : Obs.Env_pool.t;  (* diff over the window *)
  al_codec : Obs.Codec.t;    (* diff over the window *)
}

let alloc_probe ~install ~tpi ~prepare ~iter =
  let iters = 2000 in
  let k = Table.prepare ignore in
  let report = ref None in
  let _ =
    Kernel.boot k ~name:"alloc" (fun () ->
      let st = prepare () in
      install ();
      for _ = 1 to 64 do
        iter st
      done;
      let p0 = Kernel.env_pool_stats k in
      let c0 = Kernel.codec_stats k in
      let m0 = Gc.minor_words () in
      for _ = 1 to iters do
        iter st
      done;
      let m1 = Gc.minor_words () in
      let traps = iters * tpi in
      report :=
        Some
          { al_traps = traps;
            al_minor_words_per_trap = (m1 -. m0) /. float_of_int traps;
            al_pool = Obs.Env_pool.diff p0 (Kernel.env_pool_stats k);
            al_codec = Obs.Codec.diff c0 (Kernel.codec_stats k) };
      0)
  in
  match !report with
  | Some r -> r
  | None -> failwith "alloc probe session died"

let alloc_getpid () =
  alloc_probe ~install:(fun () -> install_uninterested 4) ~tpi:1
    ~prepare:(fun () -> ())
    ~iter:(fun () -> ignore (Libc.Unistd.getpid ()))

(* rewind + 64-byte read: the descriptor-path counterpart (buffer
   argument on the wire, data copied back per trap) *)
let alloc_read_under install =
  alloc_probe ~install ~tpi:2
    ~prepare:(fun () ->
      (match
         Libc.Unistd.open_ "/tmp/alloc-read"
           Flags.Open.(o_wronly lor o_creat lor o_trunc)
           0o644
       with
       | Ok fd ->
         ignore (Libc.Unistd.write fd (String.make 256 'h'));
         ignore (Libc.Unistd.close fd)
       | Error e -> failwith ("alloc read setup: " ^ Errno.name e));
      match Libc.Unistd.open_ "/tmp/alloc-read" 0 0 with
      | Ok fd -> (fd, Bytes.create 64)
      | Error e -> failwith ("alloc read open: " ^ Errno.name e))
    ~iter:(fun (fd, buf) ->
      ignore (Libc.Unistd.lseek fd 0 0);
      ignore (Libc.Unistd.read fd buf 64))

let alloc_read () = alloc_read_under (fun () -> install_uninterested 4)

(* The same loop through four interested null layers, each a
   [time_symbolic] whose default hands its envelope down: it should
   cost what the uninterested stack does. *)
let interested_read_alloc () =
  alloc_read_under (fun () ->
    for _ = 1 to 4 do
      Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
    done)

(* The interested counterparts, under kvd's sandbox + crypt + trace
   stack: every layer handles the call, and trace writes one line per
   call to its sink, a descriptor sandbox and crypt do not track.  The
   application's own write goes to /dev/null opened before the stack,
   so it too crosses every descriptor layer untracked. *)
let install_stacked = install Conformance.stacked

let stacked_getpid_alloc () =
  alloc_probe ~install:install_stacked ~tpi:1
    ~prepare:(fun () -> ())
    ~iter:(fun () -> ignore (Libc.Unistd.getpid ()))

let stacked_write_alloc () =
  alloc_probe ~install:install_stacked ~tpi:1
    ~prepare:(fun () ->
      match Libc.Unistd.open_ "/dev/null" Flags.Open.o_wronly 0 with
      | Ok fd -> (fd, String.make 64 'w')
      | Error e -> failwith ("alloc write open: " ^ Errno.name e))
    ~iter:(fun (fd, data) -> ignore (Libc.Unistd.write fd data))

(* A warm rewind + getdirentries over a 64-entry directory at depth 0,
   with a buffer that takes the whole listing in one call: the listing
   is encoded from the directory's map straight into the buffer. *)
let alloc_getdirentries () =
  alloc_probe ~install:(fun () -> ()) ~tpi:2
    ~prepare:(fun () ->
      let dir = "/tmp/alloc-dir" in
      (match Libc.Unistd.mkdir dir 0o755 with
       | Ok () -> ()
       | Error e -> failwith ("alloc dir mkdir: " ^ Errno.name e));
      for i = 0 to 63 do
        match Libc.Stdio.write_file (Printf.sprintf "%s/entry%02d" dir i) "" with
        | Ok () -> ()
        | Error e -> failwith ("alloc dir entry: " ^ Errno.name e)
      done;
      match Libc.Unistd.open_ dir 0 0 with
      | Ok fd -> (fd, Bytes.create 2048)
      | Error e -> failwith ("alloc dir open: " ^ Errno.name e))
    ~iter:(fun (fd, buf) ->
      ignore (Libc.Unistd.lseek fd 0 0);
      ignore (Libc.Unistd.getdirentries fd buf))

(* fork + the child's exit + wait4 under kvd's stack: the child shares
   the parent's emulation vector and starts with an empty envelope
   pool. *)
let stacked_fork_alloc () =
  alloc_probe ~install:install_stacked ~tpi:3
    ~prepare:(fun () -> ())
    ~iter:(fun () ->
      ignore (Libc.Unistd.fork ~child:(fun () -> 0));
      ignore (Libc.Unistd.wait ()))

let alloc_json (a : alloc_report) =
  let open Obs.Json in
  Obj
    [ ("traps", Int a.al_traps);
      ("minor_words_per_trap", Float a.al_minor_words_per_trap);
      ("fast_path", Int a.al_codec.Obs.Codec.fast_path);
      ("pool_hits", Int a.al_pool.Obs.Env_pool.hits);
      ("pool_misses", Int a.al_pool.Obs.Env_pool.misses);
      ("pool_recycled", Int a.al_pool.Obs.Env_pool.recycled);
      ("pool_dropped", Int a.al_pool.Obs.Env_pool.dropped) ]

(* --- reaping cost ---------------------------------------------------------------- *)

(* Minor words per wait4 while init reaps [n] exited children with
   wait4(-1).  Fork runs the child first, so all [n] are zombies before
   the window opens, and the window holds only the [n] waits.  A wait
   that scans or sorts the process table allocates in proportion to
   [n]; one that reads the caller's child index does not. *)
let reap_probe n =
  let k = Table.prepare ignore in
  let reaped = ref 0 and words = ref 0.0 in
  let _ =
    Kernel.boot k ~name:"reap" (fun () ->
      for _ = 1 to n do
        ignore (Libc.Unistd.fork ~child:(fun () -> 0))
      done;
      let m0 = Gc.minor_words () in
      for _ = 1 to n do
        match Libc.Unistd.wait () with Ok _ -> incr reaped | Error _ -> ()
      done;
      words := Gc.minor_words () -. m0;
      0)
  in
  if !reaped <> n then
    failwith (Printf.sprintf "reap probe: reaped %d of %d children" !reaped n);
  !words /. float_of_int n

(* --- sampled tracing (ablation 7) ------------------------------------------------ *)

(* The stacked-getpid loop with the observation plane ON at a 1-in-N
   sampling rate: per-trap virtual cost (full-minus-empty session diff,
   as in [measure_virtual]) plus the metrics snapshot taken inside the
   full session, before the exit trap.  Restores the global sampler to
   1-in-1 afterwards so the rest of the run is unaffected. *)
let sampled_run ~n ~iters depth =
  let session count capture =
    let k = Table.prepare ignore in
    let _ =
      Kernel.boot k ~name:"sampled" (fun () ->
        for _ = 1 to depth do
          Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
        done;
        Obs.set_sampling ~seed:1 n;
        Obs.enable ();
        Obs.reset ();
        for _ = 1 to count do
          ignore (Libc.Unistd.getpid ())
        done;
        (match capture with
         | Some cell -> cell := Some (Obs.metrics ())
         | None -> ());
        Obs.disable ();
        0)
    in
    Kernel.elapsed_seconds k *. 1e6
  in
  let cell = ref None in
  let full = session iters (Some cell) in
  let empty = session 0 None in
  Obs.set_sampling 1;
  Obs.reset ();
  match !cell with
  | Some m -> ((full -. empty) /. float_of_int iters, m)
  | None -> failwith "sampled run lost its metrics"

let getpid_metrics m =
  List.find (fun s -> s.Obs.sm_sysno = Sysno.sys_getpid) m.Obs.m_syscalls

let exact_counts m =
  List.map
    (fun s -> (s.Obs.sm_sysno, s.Obs.sm_calls, s.Obs.sm_errors))
    m.Obs.m_syscalls

let sampling_json rows =
  let open Obs.Json in
  Arr
    (List.map
       (fun (n, us, (m : Obs.metrics)) ->
         let g = getpid_metrics m in
         Obj
           [ ("n", Int n);
             ("getpid_us", Float us);
             ("calls", Int g.Obs.sm_calls);
             ("spans", Int (Obs.Hist.count g.Obs.sm_hist));
             ("est_spans", Int (Obs.Hist.count g.Obs.sm_hist * n));
             ("p50_us", Int (Obs.Hist.quantile g.Obs.sm_hist 0.50));
             ("p90_us", Int (Obs.Hist.quantile g.Obs.sm_hist 0.90));
             ("p99_us", Int (Obs.Hist.quantile g.Obs.sm_hist 0.99)) ])
       rows)

(* Traps and minor words per trap of one session, with obs off
   ([obs = None]) or on at 1-in-n.  Observation is configured before
   [Table.prepare] creates the kernel, which copies it into the new
   shard's engine, and switched off again on that engine afterwards.
   Like the other allocation probes, a pure function of the code path. *)
let session_words ~name ~setup ~obs body =
  (match obs with
   | Some n ->
     Obs.set_sampling ~seed:1 n;
     Obs.enable ()
   | None ->
     Obs.disable ();
     Obs.set_sampling 1);
  let k = Table.prepare setup in
  let m0 = Gc.minor_words () in
  let status = Kernel.boot k ~name body in
  let words = Gc.minor_words () -. m0 in
  Obs.disable ();
  Obs.set_sampling 1;
  let r = finish k status in
  if r.status <> 0 then failwith (Printf.sprintf "%s: exit %d" name r.status);
  (r.calls, words /. float_of_int r.calls)

(* Table 3-3's make build under [stack]. *)
let make_words (stack : Conformance.stack) ~obs =
  session_words ~name:("make-words " ^ stack.sk_name)
    ~setup:Table.Paper.make.w_setup ~obs (fun () ->
      install stack ();
      Table.Paper.make.w_body ())

(* kvd fork-per-connection under [Conformance.stacked]: unlike the make
   build, every request makes socket reads and writes, whose causal
   stamps are kept on every trap, sampled or not, and every connection
   a fork origin; an edge is made only into a sampled trap. *)
let kvd_words_params = { Workloads.Kvd.default_params with clients = 200 }

let kvd_words ~obs =
  session_words ~name:"kvd-words" ~setup:Workloads.Kvd.setup ~obs (fun () ->
    install_stacked ();
    Workloads.Kvd.body ~params:kvd_words_params
      ~mode:Workloads.Kvd.Fork_per_conn ())

(* --- ablations: the paper-shape tables and the trap-path gates ----------------- *)

(* Stacked-getpid baseline with tracing off, recorded when decode-once
   envelopes landed; the gate fails on >10% drift (virtual time is
   deterministic, so any drift at all means the cost model or the trap
   path changed — the tolerance only leaves room for intentional
   small calibrations). *)
let getpid_baseline_us = [ (0, 25.0); (1, 165.0); (2, 168.0); (3, 171.0); (4, 174.0) ]

(* Uninterested traps ride the empty-slot fast path: getpid under
   any depth of open-only agents must cost the depth-0 25us, flat. *)
let uninterested_baseline_us = 25.0

(* Real-allocation ceiling for a warm uninterested trap (minor words
   per getpid, pool warm, tracing off).  Measured 13.0 words/trap once
   the kernel half of a trap ran on the calling fibre (DESIGN.md §3.8
   "Direct kernel entry"), and 11.0 once a pooled envelope stored the
   option around its owned wire once per record, and 2.0 once the
   kernel read the memoized call without boxing it and returned its
   small results as shared outcomes; the envelope record is recycled,
   and a boundary trap builds no wire.  It measures 0.0 since the
   envelope holds its call in a field instead of a 2-word box
   (DESIGN.md §3.1).  Every trap through the scheduler's run queue
   cost 56.0, so the ceiling sits at 5 (it was 7): a trap that
   performs an effect again, a pool that stops recycling (+12 words
   for the envelope record alone) or a result built per trap again
   (+7) trips the gate, while 5 words of headroom absorb compiler
   drift. *)
let minor_words_ceiling = 5.0

(* The lseek+read counterpart's ceiling, in minor words per trap at
   depth 4 with the pool warm.  Measured 111.0 with wires pooled but
   each envelope record still allocated, 59.0 once records were pooled,
   and 31.0 once decode matched each argument slot once instead of
   chaining a closure, an option and a result per argument (DESIGN.md
   §3.3), 25.5 once the kernel read the memoized call unboxed and
   lseek's zero offset came back as a shared outcome, and 13.5 once a
   boundary trap kept the application's call instead of encoding a
   wire and decoding a copy back (DESIGN.md §3.1), and 9.5 once the
   envelope held its call in a field and a descriptor lookup stopped
   building a [result].  The ceiling sits at 18 (it was 22): a decoder
   that allocates per argument again (+26 words for each of these
   3-argument calls), or a boundary that builds its wire again (+12),
   trips it, while 8.5 words of headroom absorb compiler drift. *)
let read_words_ceiling = 18.0

(* The interested crossings' ceilings, in minor words per trap under
   sandbox + crypt + trace with the pool warm and obs off.  Measured
   136.0 (getpid) and 197.0 (64-byte write to an untracked descriptor)
   while each descriptor layer routed an untracked call through two
   closures, each symbolic layer boxed the memoized call it read, and
   every success built its result; 53.0 and 95.0 since none of them
   does; 45.0 and 83.0 since a scheduling round trip allocates only its
   continuation and a device write finds its driver without a box
   (DESIGN.md §3.8); 45.0 and 74.0 since a boundary trap builds no
   wire (DESIGN.md §3.1); 25.0 and 48.0 since no envelope boxes its
   call and no descriptor lookup builds a [result]; 13.0 and 27.0
   since a pass-through hands its envelope down instead of rebuilding
   the call in a second one (DESIGN.md §3.8).  Each ceiling leaves 10
   words of headroom for compiler drift, one word short of the 11 that
   one layer's routing closures would add back on a single descriptor
   crossing. *)
let stacked_getpid_words_ceiling = 23.0
let stacked_write_words_ceiling = 37.0

(* Calls that pay only for what they return (DESIGN.md §3.8), in minor
   words per trap with obs off.  A warm rewind + getdirentries over a
   64-entry directory at depth 0 measured 1232.5 while each call folded
   the directory into a sorted list, 36.5 since it encodes from the
   name map in place, 22.5 since a boundary trap builds no wire, and
   18.5 since the envelope holds its call in a field and the lookup
   builds no [result].
   fork + exit + wait4 under sandbox + crypt + trace measured 346.5
   while each child copied the 182-slot emulation vector and a 64-slot
   pool stack, 267.5 since it shares the one and grows the other,
   237.2 since a scheduling round trip allocates only its
   continuation, 236.2 since a woken call restarts on its own fibre,
   225.8 since a boundary trap builds no wire, 205.8 since no
   envelope boxes its call, and 190.8 since a pass-through hands its
   envelope down.  Each ceiling leaves 10 words of headroom
   (rounded up to a whole word), as the interested crossings' do;
   either copy back (61 and 18 words per trap) trips the fork
   ceiling. *)
let getdirentries_words_ceiling = 29.0
let stacked_fork_words_ceiling = 201.0

(* Reaping gate: init reaps N exited children with wait4(-1) at two
   sizes.  Measured 101 minor words/wait at 500 children and 109 at
   2000 once wait4 read the caller's child index (DESIGN.md §3.6
   "Process tree"), 99 and 107 since the pooled boundary envelope stops
   allocating an option per trap, 83 and 91 since decode reads each
   argument slot once, 81 and 89 since the kernel reads the
   decoded call unboxed, 72 and 80 since a boundary trap builds no
   wire, and 70 and 78 since no envelope boxes its call; the table
   scan and sort it replaced cost 8185 and 38441, 4.7x apart.  The
   ceiling leaves ~50% headroom over the larger for compiler drift,
   and the ratio bound catches any per-wait cost that grows with the
   number of children. *)
let reap_children = (500, 2000)
let reap_words_ceiling = 117.0
let reap_max_ratio = 1.5

(* What obs costs the traps its sampler skips (DESIGN.md §3.4): minor
   words/trap at 1-in-256 over obs off, for the make build with no agent
   and under trace, and for kvd under sandbox+crypt+trace.  The sampler
   draws without boxing, the exact counters index a table, the uspace
   span wrapper builds no closure, and trace builds no ring record for
   an unsampled trap, so such a trap allocates nothing for obs; what
   remains is the sampled traps' spans, frames, segments and records,
   amortised over 256, and on kvd the exact pipe and socket stamps and
   the edges they make into sampled traps.  Measured on make +0.53 (no
   agent) and +1.83 (trace) words/trap; before that work, +20.6 and
   +52.9.  kvd measures +4.61 (+7.78 while every fork, signal and pipe
   edge was pushed into the log, its destination sampled or not, and
   each read into an unsampled trap built its detail string; +9.81
   while a pipe read built a closure to walk the stamps and
   consed each writer it linked onto a list; +9.70 while every ring made
   its stamps queue at creation, obs on or off: the 4-word queue left
   the off column, 151.40 -> 151.25, and a 3-word one joined the sampled
   column, 161.10 -> 161.06; +12.56 while the edge detail's digit writer
   allocated a closure per number, +13.05 while an unsampled trap still
   boxed ring slots and hashed its sysno; DESIGN.md §3.4 splits it).  Its
   ceiling sits at 14.6 (it was 17.8, and 19.7 before that), set by the
   allocation probes' rule of 10 words of headroom over +4.61. *)
let obs_unsampled_rate = 256
let obs_unsampled_max_words =
  [ ("make", "none", make_words none, 1.0);
    ("make", "trace", make_words trace, 3.0);
    ("kvd", Conformance.stacked.Conformance.sk_name, kvd_words, 14.6) ]

let ablations_schema =
  let open Report.Schema in
  let alloc =
    Obj
      [ ("traps", Int); ("minor_words_per_trap", Num); ("fast_path", Int);
        ("pool_hits", Int); ("pool_misses", Int); ("pool_recycled", Int);
        ("pool_dropped", Int) ]
  in
  Obj
    [ ("name", Str);
      ("stacked_getpid_us", Numbers 5);
      ("uninterested_getpid_us", Numbers 5);
      ("uninterested_alloc", alloc);
      ( "codec_per_trap",
        Arr
          (Obj
             [ ("depth", Int); ("traps", Int); ("decodes", Int);
               ("encodes", Int); ("crossings", Int) ]) );
      ( "layers",
        Arr
          (Obj
             [ ("depth", Int); ("layer", Str); ("traps", Int);
               ("decodes", Int); ("encodes", Int); ("self_us", Int);
               ("total_us", Int) ]) );
      ( "attribution_checks",
        Arr
          (Obj
             [ ("depth", Int); ("layer_decodes", Int);
               ("layer_encodes", Int); ("self_us", Int); ("span_us", Int) ]) );
      ( "sampling",
        Arr
          (Obj
             [ ("n", Int); ("getpid_us", Num); ("calls", Int);
               ("spans", Int); ("est_spans", Int); ("p50_us", Int);
               ("p90_us", Int); ("p99_us", Int) ]) );
      ("uninterested_read_alloc", alloc);
      ("interested_read_alloc", alloc);
      ("stacked_getpid_alloc", alloc);
      ("stacked_write_alloc", alloc);
      ("getdirentries_alloc", alloc);
      ("stacked_fork_alloc", alloc);
      ( "reap",
        Arr_nonempty (Obj [ ("children", Int); ("minor_words_per_wait", Num) ])
      );
      ( "obs_unsampled_words",
        Arr
          (Obj
             [ ("workload", Str); ("agent", Str); ("traps", Int);
               ("sample_n", Int);
               ("off_words_per_trap", Num); ("sampled_words_per_trap", Num);
               ("added_words_per_trap", Num);
               ("max_added_words_per_trap", Num) ]) ) ]

(* The chrome export of a real traced window parses and carries the
   trace_event essentials: 5 getpids through a depth-1 stack are 4
   complete segments each. *)
let chrome_check fail =
  let fail fmt = Printf.ksprintf fail fmt in
  let records =
    let k = Table.prepare ignore in
    Obs.reset ();
    let _ =
      Kernel.boot k ~name:"chrome" (fun () ->
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
        Obs.enable ();
        Obs.reset ();
        for _ = 1 to 5 do
          ignore (Libc.Unistd.getpid ())
        done;
        Obs.disable ();
        0)
    in
    Obs.records ()
  in
  let open Obs.Json in
  match of_string (Obs.Chrome.to_string ~name:Call.name records) with
  | Error e -> fail "chrome export: not parseable JSON: %s" e
  | Ok (Arr events) ->
    let malformed = ref 0 and completes = ref 0 in
    List.iter
      (fun e ->
        let has k = member k e <> None in
        if not (has "ph" && has "ts" && has "pid" && has "tid") then
          incr malformed;
        match Option.bind (member "ph" e) to_str with
        | Some "X" ->
          incr completes;
          if not (has "dur" && has "name") then incr malformed
        | Some _ -> ()
        | None -> incr malformed)
      events;
    if !malformed > 0 then fail "chrome export: %d malformed events" !malformed;
    if !completes <> 20 then
      fail "chrome export: want 20 complete events, got %d" !completes;
    Printf.printf "chrome export: %d events, %d complete, shape ok\n"
      (List.length events) !completes
  | Ok _ -> fail "chrome export: not a JSON array"

let ablations fail =
  let fail fmt = Printf.ksprintf fail fmt in
  Report.print_title "Ablation 1: selective vs full-vector interception (make)";
  let selective = run_make timex in
  let full =
    run_row Table.Paper.make ~session:"make-full" (fun () ->
      let a = Agents.Timex.create ~offset_seconds:3600 () in
      a#register_interest_all;
      Toolkit.Loader.install a ~argv:[||])
  in
  let base = run_make none in
  Report.print_table
    ~headers:[ "interception"; "virtual s"; "slowdown" ]
    [ [ "none"; Report.secs base.seconds; "-" ];
      [ "selective (gettimeofday + minimum)"; Report.secs selective.seconds;
        Report.pct base.seconds selective.seconds ];
      [ "full vector (every call pays 30us + decode)";
        Report.secs full.seconds; Report.pct base.seconds full.seconds ] ];
  Report.print_note
    "Pay-per-use: calls not intercepted cost nothing (paper 3.4.3).";

  Report.print_title "Ablation 2: cost of handling a call at each layer";
  let layer_session make_agent =
    measure_virtual ~iters:300 ~with_agent:false
      ~prepare:(fun () ->
        (match make_agent with
         | Some mk -> Toolkit.Loader.install (mk ()) ~argv:[||]
         | None -> ());
        0)
      (fun _ -> ignore (Libc.Unistd.getpid ()))
  in
  let numeric_null () =
    let a = new Toolkit.numeric_syscall in
    a#register_interest_all;
    a
  in
  let symbolic_null () =
    (Agents.Time_symbolic.create () :> Toolkit.Numeric.numeric_syscall)
  in
  let pathname_null () =
    let a = new Toolkit.pathname_set in
    a#register_interest_all;
    (a :> Toolkit.Numeric.numeric_syscall)
  in
  Report.print_table
    ~headers:[ "layer"; "getpid() us" ]
    [ [ "no agent"; Report.us (layer_session None) ];
      [ "numeric layer (pass-through)";
        Report.us (layer_session (Some numeric_null)) ];
      [ "symbolic layer (decode + dispatch)";
        Report.us (layer_session (Some symbolic_null)) ];
      [ "pathname/descriptor layers";
        Report.us (layer_session (Some pathname_null)) ] ];

  Report.print_title "Ablation 3: stacked agents (nested interposition)";
  let stacked_us = List.map (fun d -> (d, stack_cost d)) [ 0; 1; 2; 3; 4 ] in
  let codec_rows =
    List.map
      (fun (d, us) ->
        let iters, diff = stack_codec d in
        ((d, us, diff, iters),
         [ string_of_int d; Report.us us;
           per_trap iters diff.Obs.Codec.decodes;
           per_trap iters diff.Obs.Codec.encodes;
           per_trap iters diff.Obs.Codec.crossings ]))
      stacked_us
  in
  Report.print_table
    ~headers:
      [ "stacked null agents"; "getpid() us"; "decodes/trap";
        "encodes/trap"; "layers crossed" ]
    (List.map snd codec_rows);
  Report.print_note
    "Decode-once envelopes: the trap decodes exactly once at any depth;\n\
     added layers ride the memoized typed view (dispatch only), the\n\
     Figure 1-3/1-4 stacking cost without the per-layer codec tax.";
  List.iter
    (fun (d, expect) ->
      let got = List.assoc d stacked_us in
      if abs_float (got -. expect) /. expect > 0.10 then
        fail "depth %d: getpid %.0fus drifted >10%% from baseline %.0fus" d
          got expect)
    getpid_baseline_us;

  Report.print_title
    "Ablation 4: per-layer attribution (stacked getpid, tracing on)";
  let attribs = List.map (fun d -> (d, stack_attrib d)) [ 0; 1; 2; 3; 4 ] in
  (* full layer-by-layer breakdown at the deepest stack *)
  let deep = List.assoc 4 attribs in
  Report.print_table
    ~headers:
      [ "layer (depth 4 stack)"; "span depth"; "traps"; "decodes/trap";
        "encodes/trap"; "self us/trap" ]
    (List.map
       (fun (l : Obs.layer_metrics) ->
         [ l.Obs.lm_layer; string_of_int l.Obs.lm_depth;
           string_of_int l.Obs.lm_traps;
           per_trap l.Obs.lm_traps l.Obs.lm_decodes;
           per_trap l.Obs.lm_traps l.Obs.lm_encodes;
           Printf.sprintf "%.1f"
             (float_of_int l.Obs.lm_self_us /. float_of_int l.Obs.lm_traps) ])
       deep.at_metrics.Obs.m_layers);
  (* cross-check at every depth: layer-attributed codec work vs the
     global counters, layer self times vs end-to-end span times *)
  Report.print_table
    ~headers:
      [ "stacked null agents"; "layer decodes/trap"; "global decodes/trap";
        "layer encodes/trap"; "global encodes/trap"; "self sum = span sum";
        "check" ]
    (List.map
       (fun (d, a) ->
         let ld, le, self, span, codec_ok = attrib_checks a in
         [ string_of_int d;
           per_trap a.at_iters ld;
           per_trap a.at_iters a.at_codec.Obs.Codec.decodes;
           per_trap a.at_iters le;
           per_trap a.at_iters a.at_codec.Obs.Codec.encodes;
           Printf.sprintf "%d = %d" self span;
           (if codec_ok && self = span then "ok" else "MISMATCH") ])
       attribs);
  Report.print_note
    "Two independent accountings agree: the flight recorder's per-layer\n\
     segments carry exactly the decodes/encodes the global counters saw\n\
     (1.00/1.00 per trap at any depth), and per-layer self times sum to\n\
     the end-to-end span time.  Tracing charges no virtual time, so the\n\
     getpid figures match ablation 3's tracing-off column.";
  (let ld, le, self, span, codec_ok = attrib_checks deep in
   if not codec_ok then
     fail "attribution: layer codec totals (%d dec / %d enc) != global (%d / %d)"
       ld le deep.at_codec.Obs.Codec.decodes
       deep.at_codec.Obs.Codec.encodes;
   if ld <> deep.at_iters || le <> deep.at_iters then
     fail "attribution: expected exactly 1.00 decode and encode per trap, got %s/%s"
       (per_trap deep.at_iters ld) (per_trap deep.at_iters le);
   if self <> span then
     fail "attribution: layer self times (%dus) != span end-to-end (%dus)"
       self span);

  Report.print_title
    "Ablation 5: what observation costs (make under observation agents)";
  let observed = run_row Table.Paper.make ~session:"make-obs" in
  let base = run_make none in
  let observed_under spec = observed (install (Conformance.stack spec [ spec ])) in
  let null = observed_under "null" in
  let counting = observed_under "syscount" in
  let recording =
    observed (fun () ->
      Toolkit.Loader.install (Agents.Record_replay.create_recorder ())
        ~argv:[||])
  in
  let dfs = observed (install dfs_trace) in
  Report.print_table
    ~headers:[ "observation agent"; "virtual s"; "slowdown" ]
    [ [ "none"; Report.secs base.seconds; "-" ];
      [ "null (intercept only)"; Report.secs null.seconds;
        Report.pct base.seconds null.seconds ];
      [ "syscount (numeric layer)"; Report.secs counting.seconds;
        Report.pct base.seconds counting.seconds ];
      [ "recorder (journal inputs)"; Report.secs recording.seconds;
        Report.pct base.seconds recording.seconds ];
      [ "dfs_trace (stamped records)"; Report.secs dfs.seconds;
        Report.pct base.seconds dfs.seconds ] ];
  Report.print_note
    "Observation costs what an agent intercepts, and at which layer,\n\
     more than its work per call: journaling only the replayable calls\n\
     < counting every call < decoding every call < stamped records.";

  Report.print_title
    "Ablation 6: uninterested-trap fast path (open-only agents, getpid)";
  let uninterested_us =
    List.map (fun d -> (d, uninterested_cost d)) [ 0; 1; 2; 3; 4 ]
  in
  Report.print_table
    ~headers:
      [ "stacked open-only agents"; "getpid() us";
        "interested stack (abl. 3) us" ]
    (List.map
       (fun (d, us) ->
         [ string_of_int d; Report.us us;
           Report.us (List.assoc d stacked_us) ])
       uninterested_us);
  List.iter
    (fun (d, got) ->
      let expect = uninterested_baseline_us in
      if abs_float (got -. expect) /. expect > 0.10 then
        fail "depth %d: uninterested getpid %.0fus drifted >10%% from flat %.0fus"
          d got expect)
    uninterested_us;
  let al = alloc_getpid () in
  Printf.printf
    "allocation at depth 4 (warm pool, %d traps): %.1f minor words/trap \
     (ceiling %.0f),\n\
     fast_path %s/trap, pool hits %s/trap, recycled %s/trap (%d dropped)\n"
    al.al_traps al.al_minor_words_per_trap minor_words_ceiling
    (per_trap al.al_traps al.al_codec.Obs.Codec.fast_path)
    (per_trap al.al_traps al.al_pool.Obs.Env_pool.hits)
    (per_trap al.al_traps al.al_pool.Obs.Env_pool.recycled)
    al.al_pool.Obs.Env_pool.dropped;
  if al.al_minor_words_per_trap > minor_words_ceiling then
    fail "allocation: %.1f minor words/trap exceeds the %.0f ceiling"
      al.al_minor_words_per_trap minor_words_ceiling;
  if al.al_codec.Obs.Codec.fast_path <> al.al_traps then
    fail "fast path: %d of %d uninterested traps took it"
      al.al_codec.Obs.Codec.fast_path al.al_traps;
  if al.al_codec.Obs.Codec.intercepted <> 0 then
    fail "fast path: %d uninterested traps probed a handler"
      al.al_codec.Obs.Codec.intercepted;
  if al.al_pool.Obs.Env_pool.hits <> al.al_traps
     || al.al_pool.Obs.Env_pool.recycled <> al.al_traps
  then
    fail "env pool: warm loop expected %d hits/recycles, got %d/%d"
      al.al_traps al.al_pool.Obs.Env_pool.hits
      al.al_pool.Obs.Env_pool.recycled;
  let ar = alloc_read () in
  Printf.printf "lseek+read at depth 4: %.1f minor words/trap (ceiling %.0f)\n"
    ar.al_minor_words_per_trap read_words_ceiling;
  if ar.al_minor_words_per_trap > read_words_ceiling then
    fail "lseek+read: %.1f minor words/trap exceeds the %.0f ceiling"
      ar.al_minor_words_per_trap read_words_ceiling;
  let ir = interested_read_alloc () in
  Printf.printf
    "lseek+read through 4 interested null layers: %.1f minor words/trap \
     (ceiling %.1f, the uninterested stack's)\n"
    ir.al_minor_words_per_trap ar.al_minor_words_per_trap;
  if ir.al_minor_words_per_trap > ar.al_minor_words_per_trap then
    fail "lseek+read through 4 null layers: %.1f minor words/trap exceeds \
          the uninterested stack's %.1f"
      ir.al_minor_words_per_trap ar.al_minor_words_per_trap;
  let gd = alloc_getdirentries () in
  Printf.printf
    "rewind+getdirentries of 64 entries at depth 0: %.1f minor words/trap \
     (ceiling %.0f)\n"
    gd.al_minor_words_per_trap getdirentries_words_ceiling;
  if gd.al_minor_words_per_trap > getdirentries_words_ceiling then
    fail "rewind+getdirentries: %.1f minor words/trap exceeds the %.0f ceiling"
      gd.al_minor_words_per_trap getdirentries_words_ceiling;
  let sg = stacked_getpid_alloc () and sw = stacked_write_alloc ()
  and sf = stacked_fork_alloc () in
  List.iter
    (fun (what, (a : alloc_report), ceiling) ->
      Printf.printf
        "%s under sandbox+crypt+trace: %.1f minor words/trap (ceiling %.0f)\n"
        what a.al_minor_words_per_trap ceiling;
      if a.al_minor_words_per_trap > ceiling then
        fail "%s under sandbox+crypt+trace: %.1f minor words/trap exceeds \
              the %.0f ceiling"
          what a.al_minor_words_per_trap ceiling)
    [ ("getpid", sg, stacked_getpid_words_ceiling);
      ("write to an untracked fd", sw, stacked_write_words_ceiling);
      ("fork+exit+wait4", sf, stacked_fork_words_ceiling) ];
  let small, large = reap_children in
  let reap = List.map (fun n -> (n, reap_probe n)) [ small; large ] in
  List.iter
    (fun (n, w) ->
      if w > reap_words_ceiling then
        fail "reaping %d children: %.1f minor words/wait exceeds the %.0f ceiling"
          n w reap_words_ceiling)
    reap;
  let reap_ratio = List.assoc large reap /. List.assoc small reap in
  if reap_ratio > reap_max_ratio then
    fail "reaping: words/wait grew %.2fx from %d to %d children (max %.1fx)"
      reap_ratio small large reap_max_ratio;
  Printf.printf
    "reaping with wait4(-1): %s minor words/wait (ceiling %.0f), %.2fx from \
     %d to %d children (max %.1fx)\n"
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "%.1f at %d" w n) reap))
    reap_words_ceiling reap_ratio small large reap_max_ratio;
  Report.print_note
    "Pay-per-use at trap granularity: an uninterested call costs the\n\
     depth-0 25us whatever is stacked above it (one empty handler\n\
     slot), and the warm envelope pool keeps the boundary encode from\n\
     allocating a fresh record or vector per trap.";

  Report.print_title
    "Ablation 7: sampled always-on tracing (stacked getpid, 1-in-N)";
  let sample_iters = 300 in
  let sample_rates = [ 1; 16; 256 ] in
  let sampled =
    List.map
      (fun d ->
        (d, List.map (fun n -> (n, sampled_run ~n ~iters:sample_iters d)) sample_rates))
      [ 0; 1; 2; 3; 4 ]
  in
  Report.print_table
    ~headers:
      [ "stacked null agents"; "tracing off us"; "N=1 us"; "N=16 us";
        "N=256 us" ]
    (List.map
       (fun (d, row) ->
         string_of_int d
         :: Report.us (List.assoc d stacked_us)
         :: List.map (fun (_, (us, _)) -> Report.us us) row)
       sampled);
  let deep_sampled = List.assoc 4 sampled in
  Report.print_table
    ~headers:
      [ "1-in-N (depth 4)"; "getpid calls (exact)"; "sampled spans";
        "est spans"; "p50 us"; "p90 us"; "p99 us" ]
    (List.map
       (fun (n, (_, m)) ->
         let g = getpid_metrics m in
         [ string_of_int n;
           string_of_int g.Obs.sm_calls;
           string_of_int (Obs.Hist.count g.Obs.sm_hist);
           string_of_int (Obs.Hist.count g.Obs.sm_hist * n);
           string_of_int (Obs.Hist.quantile g.Obs.sm_hist 0.50);
           string_of_int (Obs.Hist.quantile g.Obs.sm_hist 0.90);
           string_of_int (Obs.Hist.quantile g.Obs.sm_hist 0.99) ])
       deep_sampled);
  Report.print_note
    "Sampling the observation plane: per-syscall call counts stay exact\n\
     at any rate, the scaled span estimate recovers the true count\n\
     within sampling noise, and the virtual getpid figures match the\n\
     tracing-off column -- observation charges no virtual time, and the\n\
     percentiles are log2-bucket upper bounds of the same latencies.";
  (* 1-in-256 sits within 5% of the tracing-off baseline at every
     depth, and the per-syscall counts stay exact at every rate *)
  List.iter
    (fun (d, expect) ->
      let got, m = List.assoc 256 (List.assoc d sampled) in
      if abs_float (got -. expect) /. expect > 0.05 then
        fail "depth %d: sampled(256) getpid %.1fus drifted >5%% from %.0fus" d
          got expect;
      let calls = (getpid_metrics m).Obs.sm_calls in
      if calls <> sample_iters then
        fail "depth %d: sampled(256) counted %d getpid calls, want %d" d calls
          sample_iters)
    getpid_baseline_us;
  (let exact n = exact_counts (snd (List.assoc n deep_sampled)) in
   if exact 16 <> exact 1 then
     fail "sampling: 1-in-16 changed the exact per-syscall counts";
   if exact 256 <> exact 1 then
     fail "sampling: 1-in-256 changed the exact per-syscall counts";
   let est16 =
     Obs.Hist.count (getpid_metrics (snd (List.assoc 16 deep_sampled))).Obs.sm_hist
     * 16
   in
   if est16 < sample_iters * 2 / 5 || est16 > sample_iters * 8 / 5 then
     fail "sampling: 1-in-16 estimate %d too far from the true %d" est16
       sample_iters);
  let unsampled =
    List.map
      (fun (workload, name, words, max_added) ->
        let traps, off = words ~obs:None in
        let traps', on = words ~obs:(Some obs_unsampled_rate) in
        Printf.printf
          "%s, %s (%d traps): %.1f minor words/trap with obs off, \
           %.1f at 1-in-%d (+%.2f, max +%.1f)\n"
          workload name traps off on obs_unsampled_rate (on -. off) max_added;
        if traps' <> traps then
          fail "%s, %s: obs at 1-in-%d changed the trap count: %d, want %d"
            workload name obs_unsampled_rate traps' traps;
        if on -. off > max_added then
          fail "%s, %s: obs at 1-in-%d adds %.2f minor words/trap (max %.1f)"
            workload name obs_unsampled_rate (on -. off) max_added;
        (workload, name, traps, off, on, max_added))
      obs_unsampled_max_words
  in
  chrome_check (fail "%s");

  let open Obs.Json in
  Obj
    [ ("name", Str "ablations");
      ( "stacked_getpid_us",
        Arr (List.map (fun (_, us) -> Float us) stacked_us) );
      ( "uninterested_getpid_us",
        Arr (List.map (fun (_, us) -> Float us) uninterested_us) );
      ("uninterested_alloc", alloc_json al);
      ( "codec_per_trap",
        Arr
          (List.map
             (fun ((d, _, diff, iters), _) ->
               Obj
                 [ ("depth", Int d);
                   ("traps", Int iters);
                   ("decodes", Int diff.Obs.Codec.decodes);
                   ("encodes", Int diff.Obs.Codec.encodes);
                   ("crossings", Int diff.Obs.Codec.crossings) ])
             codec_rows) );
      ( "layers",
        Arr
          (List.map
             (fun (l : Obs.layer_metrics) ->
               Obj
                 [ ("depth", Int l.Obs.lm_depth);
                   ("layer", Str l.Obs.lm_layer);
                   ("traps", Int l.Obs.lm_traps);
                   ("decodes", Int l.Obs.lm_decodes);
                   ("encodes", Int l.Obs.lm_encodes);
                   ("self_us", Int l.Obs.lm_self_us);
                   ("total_us", Int l.Obs.lm_total_us) ])
             deep.at_metrics.Obs.m_layers) );
      ( "attribution_checks",
        Arr
          (List.map
             (fun (d, a) ->
               let ld, le, self, span, codec_ok = attrib_checks a in
               Obj
                 [ ("depth", Int d);
                   ("layer_decodes", Int ld);
                   ("layer_encodes", Int le);
                   ("self_us", Int self);
                   ("span_us", Int span);
                   ("codec_ok", Bool codec_ok) ])
             attribs) );
      ( "sampling",
        sampling_json
          (List.map (fun (n, (us, m)) -> (n, us, m)) deep_sampled) );
      ( "observation_make",
        Arr
          (List.map
             (fun (agent, r) ->
               Obj
                 [ ("agent", Str agent);
                   ("virtual_s", Float r.seconds);
                   ("syscalls", Int r.calls) ])
             [ ("none", base); ("null", null); ("syscount", counting);
               ("recorder", recording); ("dfs_trace", dfs) ]) );
      ("uninterested_read_alloc", alloc_json ar);
      ("interested_read_alloc", alloc_json ir);
      ("stacked_getpid_alloc", alloc_json sg);
      ("stacked_write_alloc", alloc_json sw);
      ("getdirentries_alloc", alloc_json gd);
      ("stacked_fork_alloc", alloc_json sf);
      ( "reap",
        Arr
          (List.map
             (fun (n, w) ->
               Obj [ ("children", Int n); ("minor_words_per_wait", Float w) ])
             reap) );
      ( "obs_unsampled_words",
        Arr
          (List.map
             (fun (workload, name, traps, off, on, max_added) ->
               Obj
                 [ ("workload", Str workload);
                   ("agent", Str name);
                   ("traps", Int traps);
                   ("sample_n", Int obs_unsampled_rate);
                   ("off_words_per_trap", Float off);
                   ("sampled_words_per_trap", Float on);
                   ("added_words_per_trap", Float (on -. off));
                   ("max_added_words_per_trap", Float max_added) ])
             unsampled) ) ]

(* --- fault campaigns (ablation 8 and the `make check` gate) ----------------- *)

(* Virtual cost of one injected-failed read, by differencing two
   otherwise identical sessions under the same plan (open+close only
   vs open+failed read+close). *)
let injected_cost_probe () =
  let session with_read =
    let agent =
      Agents.Faultinject.create
        [ Agents.Faultinject.site ~kth:1 Sysno.sys_read
            (Agents.Faultinject.Fail Errno.EIO) ]
    in
    let k = Table.prepare ignore in
    Kernel.write_file k ~path:"/tmp/f" "data";
    let _ =
      Kernel.boot k ~name:"fault-cost" (fun () ->
        Toolkit.Loader.install agent ~argv:[||];
        match Libc.Unistd.open_ "/tmp/f" 0 0 with
        | Error _ -> 1
        | Ok fd ->
          (if with_read then
             ignore (Libc.Unistd.read fd (Bytes.create 4) 4));
          ignore (Libc.Unistd.close fd);
          0)
    in
    Kernel.elapsed_seconds k *. 1e6
  in
  session true -. session false

let outcome_count cases o =
  List.length
    (List.filter
       (fun (c : Fault.Campaign.case) ->
         c.c_run.Fault.Campaign.r_outcome = o)
       cases)

let faults_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str); ("intercept_us", Int);
      ("injected_failed_read_us", Num);
      ( "workloads",
        Arr
          (Obj
             [ ("workload", Str); ("runs", Int); ("tolerated", Int);
               ("wrong_result", Int); ("hang", Int); ("crash", Int);
               ( "cases",
                 Arr
                   (Obj
                      [ ("site", Str); ("outcome", Str); ("detail", Str);
                        ("injected", Int); ("restarted", Int) ]) ) ]) );
      ( "repro",
        Obj
          [ ("workload", Str); ("site", Str); ("outcome", Str);
            ("replay_ok", Bool); ("desyncs", Int) ] ) ]

let faults fail =
  Report.print_title
    "Ablation 8: deterministic fault campaigns (site x errno sweep)";
  let fail fmt = Printf.ksprintf fail fmt in
  (* 1. an injected failure must charge at least the interception it
        rode in on: faults are not a free shortcut through the stack *)
  let injected_us = injected_cost_probe () in
  if injected_us < float_of_int Cost_model.intercept_us then
    fail "injected failure charged %.0fus < intercept %dus" injected_us
      Cost_model.intercept_us;
  Printf.printf
    "one injected-failed read costs %.0fus virtual (intercept %dus + \
     dispatch; never cheaper than interception)\n"
    injected_us Cost_model.intercept_us;
  (* 2. sweep >=2 workloads x >=3 errnos, classify every run *)
  let errnos = Fault.Campaign.default_errnos in
  let results =
    List.map
      (fun w -> (w, Fault.Campaign.sweep ~errnos w))
      [ Table.Quick.scribe; Table.Quick.make ]
  in
  Report.print_table
    ~headers:
      [ "workload"; "runs"; "tolerated"; "wrong-result"; "hang"; "crash" ]
    (List.map
       (fun ((w : Table.workload), (_, cases)) ->
         let n = List.length cases in
         let t = outcome_count cases Fault.Oracle.Tolerated in
         let wr = outcome_count cases Fault.Oracle.Wrong_result in
         let h = outcome_count cases Fault.Oracle.Hang in
         let c = outcome_count cases Fault.Oracle.Crash in
         if t + wr + h + c <> n then
           fail "%s: %d of %d runs unclassified" w.Table.w_name
             (n - t - wr - h - c) n;
         if n < List.length errnos then
           fail "%s: sweep found only %d runs" w.Table.w_name n;
         [ w.Table.w_name; string_of_int n; string_of_int t;
           string_of_int wr; string_of_int h; string_of_int c ])
       results);
  List.iter
    (fun ((w : Table.workload), (_, cases)) ->
      List.iter
        (fun (c : Fault.Campaign.case) ->
          if c.c_run.Fault.Campaign.r_outcome <> Fault.Oracle.Tolerated then
            Printf.printf "  %s: %-30s %s (%s)\n" w.Table.w_name
              (Fault.Plan.to_spec [ c.c_site ])
              (Fault.Oracle.outcome_name c.c_run.Fault.Campaign.r_outcome)
              c.c_run.Fault.Campaign.r_detail)
        cases)
    results;
  (* 3. the seeded failing case: shrink it, bundle it, and replay the
        bundle byte-identically *)
  let repro_json =
    let _, scribe_cases = snd (List.hd results) in
    match
      List.find_opt
        (fun (c : Fault.Campaign.case) ->
          c.c_run.Fault.Campaign.r_outcome <> Fault.Oracle.Tolerated)
        scribe_cases
    with
    | None ->
      fail "scribe sweep produced no failing case to bundle";
      Obs.Json.Null
    | Some c ->
      let w = Table.Quick.scribe in
      let clean =
        (Fault.Campaign.clean_run w).Fault.Campaign.r_report
      in
      let outcome = c.c_run.Fault.Campaign.r_outcome in
      let shrunk =
        Fault.Campaign.shrink w ~clean ~outcome
          c.c_run.Fault.Campaign.r_sites
      in
      if List.length shrunk > List.length c.c_run.Fault.Campaign.r_sites
      then fail "shrink grew the plan";
      let b = Fault.Bundle.of_run ~workload:"scribe" c.c_run in
      let replay_ok, desyncs =
        match Fault.Bundle.of_string (Fault.Bundle.to_string b) with
        | Error msg ->
          fail "bundle did not parse back: %s" msg;
          (false, 0)
        | Ok b' ->
          (match Fault.Bundle.replay b' with
           | Error msg ->
             fail "bundle replay refused: %s" msg;
             (false, 0)
           | Ok r ->
             (match Fault.Bundle.verify b' r with
              | Ok () -> (true, r.Fault.Campaign.r_desyncs)
              | Error msg ->
                fail "bundle replay not byte-identical: %s" msg;
                (false, r.Fault.Campaign.r_desyncs)))
      in
      if replay_ok then
        Printf.printf
          "repro bundle: scribe under [%s] -> %s; replay from the bundle \
           is byte-identical (%d desyncs)\n"
          (Fault.Plan.to_spec [ c.c_site ])
          (Fault.Oracle.outcome_name outcome)
          desyncs;
      Obs.Json.(
        Obj
          [ ("workload", Str "scribe");
            ("site", Str (Fault.Plan.to_spec [ c.c_site ]));
            ("outcome", Str (Fault.Oracle.outcome_name outcome));
            ("replay_ok", Bool replay_ok);
            ("desyncs", Int desyncs) ])
  in
  Report.print_note
    "Deterministic campaigns: injection sites come from an obs-profiled\n\
     fault-free run, every site x errno run is classified by the\n\
     divergence oracles, and each failure ships a repro bundle that\n\
     replays byte-identically (DESIGN.md 3.5).";
  let open Obs.Json in
  Obj
    [ ("name", Str "faults");
      ("intercept_us", Int Cost_model.intercept_us);
      ("injected_failed_read_us", Float injected_us);
      ( "workloads",
        Arr
          (List.map
             (fun ((w : Table.workload), (_, cases)) ->
               Obj
                 [ ("workload", Str w.Table.w_name);
                   ("runs", Int (List.length cases));
                   ( "tolerated",
                     Int (outcome_count cases Fault.Oracle.Tolerated) );
                   ( "wrong_result",
                     Int (outcome_count cases Fault.Oracle.Wrong_result) );
                   ("hang", Int (outcome_count cases Fault.Oracle.Hang));
                   ("crash", Int (outcome_count cases Fault.Oracle.Crash));
                   ( "cases",
                     Arr
                       (List.map
                          (fun (c : Fault.Campaign.case) ->
                            Obj
                              [ ( "site",
                                  Str (Fault.Plan.to_spec [ c.c_site ])
                                );
                                ( "outcome",
                                  Str
                                    (Fault.Oracle.outcome_name
                                       c.c_run.Fault.Campaign.r_outcome)
                                );
                                ( "detail",
                                  Str c.c_run.Fault.Campaign.r_detail );
                                ( "injected",
                                  Int c.c_run.Fault.Campaign.r_injected
                                );
                                ( "restarted",
                                  Int c.c_run.Fault.Campaign.r_restarted
                                ) ])
                          cases) ) ])
             results) );
      ("repro", repro_json) ]

(* --- scale: N deterministic shards (DESIGN.md 3.6 and the `make check` gate) --- *)

(* Total forked processes across the cluster; split evenly, so every
   shard runs the identical workload and the balance check measures the
   sharding itself, not an uneven offered load. *)
let scale_total_procs = 2048

(* One child's mixed-traffic life: create/write/read/stat/unlink a
   private file plus a burst of getpids -- path, descriptor and
   null-trap traffic in one body. *)
let scale_child shard j () =
  let path = Printf.sprintf "/tmp/s%d_p%d" shard j in
  (match
     Libc.Unistd.open_ path
       Flags.Open.(o_wronly lor o_creat lor o_trunc)
       0o644
   with
   | Ok fd ->
     ignore (Libc.Unistd.write fd "mixed traffic");
     ignore (Libc.Unistd.close fd)
   | Error _ -> ());
  (match Libc.Unistd.open_ path 0 0 with
   | Ok fd ->
     let buf = Bytes.create 16 in
     ignore (Libc.Unistd.read fd buf 16);
     ignore (Libc.Unistd.close fd)
   | Error _ -> ());
  ignore (Libc.Unistd.stat path);
  ignore (Libc.Unistd.unlink path);
  for _ = 1 to 8 do
    ignore (Libc.Unistd.getpid ())
  done;
  0

(* The shard's init: fork the children in reap-bounded batches so the
   live process count stays modest even with 2048 procs on one shard. *)
let scale_init shard procs () =
  let batch = 32 in
  let spawned = ref 0 in
  while !spawned < procs do
    let this = min batch (procs - !spawned) in
    for b = 1 to this do
      match Libc.Unistd.fork ~child:(scale_child shard (!spawned + b)) with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "scale fork: %s" (Errno.name e))
    done;
    for _ = 1 to this do
      ignore (Libc.Unistd.wait ())
    done;
    spawned := !spawned + this
  done;
  0

type scale_obs = {
  so_traps : int list;      (* per-shard syscall counts at quiescence *)
  so_virtual_us : int list; (* per-shard virtual clocks at quiescence *)
  so_status : int list;     (* per-shard init wait status *)
}

let scale_once n =
  let per = scale_total_procs / n in
  let c = Kernel.Cluster.create ~shards:n () in
  for i = 0 to n - 1 do
    Table.populate (Kernel.Cluster.shard c i) ignore
  done;
  let inits =
    List.init n (fun i ->
      Kernel.Cluster.boot_shard c i
        ~name:(Printf.sprintf "init%d" i)
        (scale_init i per))
  in
  Kernel.Cluster.run c;
  let shardl = List.init n (Kernel.Cluster.shard c) in
  { so_traps = List.map Kernel.total_syscalls shardl;
    so_virtual_us = List.map (fun k -> Sim.Clock.now_us (Kernel.clock k)) shardl;
    so_status =
      List.map (fun (p : Kernel.Proc.t) -> p.Kernel.Proc.exit_status) inits }

let scale_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str); ("total_procs", Int);
      ( "runs",
        Arr
          (Obj
             [ ("shards", Int); ("traps", Int); ("per_shard_traps", Ints);
               ("per_shard_virtual_us", Ints); ("balance_dev", Num);
               ("reproducible", Bool) ]) ) ]

let scale fail =
  Report.print_title
    "Scale: deterministic shards (1/2/4/8), mixed traffic over 2048 procs";
  let fail fmt = Printf.ksprintf fail fmt in
  let runs =
    List.map
      (fun n ->
        let a = scale_once n in
        let b = scale_once n in
        let reproducible =
          a.so_traps = b.so_traps && a.so_virtual_us = b.so_virtual_us
        in
        if not reproducible then
          fail "%d shards: two identical runs diverged (traps [%s] vs [%s])"
            n
            (String.concat ";" (List.map string_of_int a.so_traps))
            (String.concat ";" (List.map string_of_int b.so_traps));
        List.iteri
          (fun i st ->
            if st <> 0 then fail "%d shards: shard %d init status %d" n i st)
          a.so_status;
        let total = List.fold_left ( + ) 0 a.so_traps in
        let mean = float_of_int total /. float_of_int n in
        let dev =
          List.fold_left
            (fun acc t -> Float.max acc (abs_float (float_of_int t -. mean) /. mean))
            0.0 a.so_traps
        in
        if dev > 0.25 then
          fail "%d shards: trap balance off by %.0f%% (>25%%)" n (100. *. dev);
        (n, a, total, dev, reproducible))
      [ 1; 2; 4; 8 ]
  in
  Report.print_table
    ~headers:
      [ "shards"; "procs"; "traps"; "balance dev"; "reproducible" ]
    (List.map
       (fun (n, _, total, dev, repro) ->
         [ string_of_int n; string_of_int scale_total_procs;
           string_of_int total;
           Printf.sprintf "%.1f%%" (100. *. dev);
           (if repro then "yes" else "NO") ])
       runs);
  Report.print_note
    "Each shard is a kernel handle owning its clock, proc table, registry,\n\
     obs engine and counters (DESIGN.md 3.6); the cluster steps shards\n\
     round-robin over a shared virtual horizon, so the same seed gives\n\
     byte-identical per-shard clocks and trap counts every run.";
  let open Obs.Json in
  Obj
    [ ("name", Str "scale");
      ("total_procs", Int scale_total_procs);
      ( "runs",
        Arr
          (List.map
             (fun (n, a, total, dev, repro) ->
               Obj
                 [ ("shards", Int n);
                   ("traps", Int total);
                   ("per_shard_traps", Arr (List.map (fun t -> Int t) a.so_traps));
                   ( "per_shard_virtual_us",
                     Arr (List.map (fun t -> Int t) a.so_virtual_us) );
                   ("balance_dev", Float dev);
                   ("reproducible", Bool repro) ])
             runs) ) ]

(* --- conformance: signature transparency (ablation 9, `make check` gate) ------- *)

let conformance_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str);
      ( "matrix",
        Arr
          (Obj
             [ ("workload", Str); ("stack", Str); ("delta", Str);
               ("bare_events", Int); ("under_events", Int);
               ("masked", Int); ("conformant", Bool) ]) );
      ( "mutation",
        Obj
          [ ("workload", Str); ("stack", Str); ("conformant", Bool);
            ("violation", Obj [ ("index", Int); ("reason", Str) ]) ] ) ]

let conformance fail =
  Report.print_title
    "Ablation 9: syscall-signature conformance (machine-checked transparency)";
  let fail fmt = Printf.ksprintf fail fmt in
  (* 1. the matrix: every declared stack must leave every workload's
        signature unchanged modulo its declared delta *)
  let stacks = Conformance.bare :: Conformance.stacks in
  let verdicts =
    List.concat_map
      (fun (w : Table.workload) ->
        (* bare is captured once per workload and shared as the baseline *)
        let baseline = Conformance.capture w Conformance.bare in
        if Conformance.Signature.length baseline.Conformance.cap_sig = 0 then
          fail "%s: bare run produced an empty signature"
            w.Table.w_name;
        (* kvd is concurrent: its global interleaving is scheduler
           state, so its cell compares per-process streams instead *)
        let scope =
          if w.Table.w_name = "kvd" then `Per_process else `Global
        in
        List.map
          (fun s ->
            let v = Conformance.check ~baseline ~scope w s in
            if not (Conformance.conforms v) then
              fail "%s under %s: %s" v.Conformance.c_workload
                v.Conformance.c_stack
                (match v.Conformance.c_violation with
                 | Some d -> Conformance.Signature.divergence_to_string d
                 | None -> "?");
            if v.Conformance.c_bare_status <> v.Conformance.c_under_status
            then
              fail "%s under %s: exit status changed (%d vs %d)"
                v.Conformance.c_workload v.Conformance.c_stack
                v.Conformance.c_bare_status v.Conformance.c_under_status;
            v)
          stacks)
      Table.quick
  in
  Report.print_table
    ~headers:[ "workload"; "stack"; "calls"; "masked"; "verdict" ]
    (List.map
       (fun (v : Conformance.verdict) ->
         [ v.Conformance.c_workload; v.Conformance.c_stack;
           string_of_int v.Conformance.c_under_events;
           string_of_int v.Conformance.c_masked;
           (if Conformance.conforms v then "conformant" else "VIOLATION") ])
       verdicts);
  (* 2. the seeded mutation: an undeclared injection must be flagged,
        naming the first diverging call *)
  let mv = Conformance.check Table.Quick.scribe Conformance.mutant in
  (match mv.Conformance.c_violation with
   | None -> fail "undeclared mutant conformed: the checker is blind"
   | Some d ->
     Printf.printf "seeded mutation caught: %s\n"
       (Conformance.Signature.divergence_to_string d));
  Report.print_note
    "Transparency is checked, not assumed: each workload runs bare and\n\
     under each stack, both syscall signatures are normalized by the\n\
     stack's declared delta, and any residual divergence fails the\n\
     build naming the first diverging call (DESIGN.md 3.7).";
  let open Obs.Json in
  Obj
    [ ("name", Str "conformance");
      ("matrix", Arr (List.map Conformance.verdict_to_json verdicts));
      ("mutation", Conformance.verdict_to_json mv) ]

(* --- netbench: the socket server under agent stacks (ablation 12, gate) -------- *)

let net_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str);
      ("clients", Int);
      ( "rows",
        Arr_nonempty
          (Obj
             [ ("stack", Str); ("depth", Int); ("mode", Str);
               ("conns", Int); ("ops", Int); ("errors", Int);
               ("virtual_us", Int); ("ops_per_vsec", Num);
               ("p50_us", Int); ("p90_us", Int); ("p99_us", Int) ]) );
      ("reproducible", Bool) ]

(* One cell: the full kvd run (1000 clients) under one agent stack in
   one server mode, with per-request latency percentiles out of the
   shared histogram and throughput over the run's virtual duration. *)
type net_cell = {
  nc_stack : string;
  nc_depth : int;
  nc_mode : string;
  nc_conns : int;
  nc_ops : int;
  nc_errors : int;
  nc_virtual_us : int;
  nc_p50 : int;
  nc_p90 : int;
  nc_p99 : int;
}

let netbench fail =
  Report.print_title
    "Ablation 12: multi-client socket server under agent stacks (netbench)";
  let fail fmt = Printf.ksprintf fail fmt in
  let params = Workloads.Kvd.default_params in
  let stacks =
    [ Conformance.bare; Conformance.trace; Conformance.crypt;
      Conformance.sandbox; Conformance.faultinject; Conformance.stacked ]
  in
  let cell (stack : Conformance.stack) mode =
    let k = Table.prepare Workloads.Kvd.setup in
    let stats = Workloads.Kvd.fresh_stats () in
    let depth = ref 0 in
    let dur_us = ref 0 in
    let now () =
      match Libc.Unistd.gettimeofday () with
      | Ok (s, u) -> (s * 1_000_000) + u
      | Error _ -> 0
    in
    let status =
      Kernel.boot k ~name:("netbench-" ^ stack.Conformance.sk_name)
        (fun () ->
          let agents = stack.Conformance.sk_make () in
          depth := List.length agents;
          List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) agents;
          let t0 = now () in
          let rc = Workloads.Kvd.body ~params ~stats ~mode () in
          dur_us := now () - t0;
          rc)
    in
    if status <> 0 then
      fail "%s/%s: exit status %d" stack.Conformance.sk_name
        (Workloads.Kvd.mode_name mode) status;
    {
      nc_stack = stack.Conformance.sk_name;
      nc_depth = !depth;
      nc_mode = Workloads.Kvd.mode_name mode;
      nc_conns = stats.Workloads.Kvd.conns;
      nc_ops = stats.Workloads.Kvd.ops;
      nc_errors = stats.Workloads.Kvd.errors;
      nc_virtual_us = !dur_us;
      nc_p50 = Obs.Hist.quantile stats.Workloads.Kvd.hist 0.5;
      nc_p90 = Obs.Hist.quantile stats.Workloads.Kvd.hist 0.9;
      nc_p99 = Obs.Hist.quantile stats.Workloads.Kvd.hist 0.99;
    }
  in
  let throughput c =
    if c.nc_virtual_us = 0 then 0.
    else float_of_int c.nc_ops /. (float_of_int c.nc_virtual_us /. 1e6)
  in
  let sweep () =
    List.concat_map
      (fun s ->
        List.map (cell s) [ Workloads.Kvd.Fork_per_conn; Workloads.Kvd.Prefork ])
      stacks
  in
  let cells_to_json cells =
    let open Obs.Json in
    Arr
      (List.map
         (fun c ->
           Obj
             [ ("stack", Str c.nc_stack); ("depth", Int c.nc_depth);
               ("mode", Str c.nc_mode); ("conns", Int c.nc_conns);
               ("ops", Int c.nc_ops); ("errors", Int c.nc_errors);
               ("virtual_us", Int c.nc_virtual_us);
               ("ops_per_vsec", Float (throughput c));
               ("p50_us", Int c.nc_p50); ("p90_us", Int c.nc_p90);
               ("p99_us", Int c.nc_p99) ])
         cells)
  in
  (* two full sweeps: the gate is not just that the numbers look sane
     but that the entire matrix is byte-reproducible *)
  let cells = sweep () in
  let again = sweep () in
  let reproducible =
    Obs.Json.to_string (cells_to_json cells)
    = Obs.Json.to_string (cells_to_json again)
  in
  if not reproducible then fail "two sweeps differ: virtual run not deterministic";
  (* every cell must have served every client, cleanly *)
  List.iter
    (fun c ->
      if c.nc_conns <> params.Workloads.Kvd.clients then
        fail "%s/%s: served %d of %d clients" c.nc_stack c.nc_mode c.nc_conns
          params.Workloads.Kvd.clients;
      if c.nc_errors <> 0 then
        fail "%s/%s: %d request error(s)" c.nc_stack c.nc_mode c.nc_errors;
      if not (c.nc_p50 <= c.nc_p90 && c.nc_p90 <= c.nc_p99) then
        fail "%s/%s: percentiles not monotone (%d/%d/%d)" c.nc_stack c.nc_mode
          c.nc_p50 c.nc_p90 c.nc_p99)
    cells;
  (* interposition costs virtual time: no agent stack may finish the
     same deterministic run faster than bare *)
  let bare_of m =
    List.find (fun c -> c.nc_stack = "bare" && c.nc_mode = m) cells
  in
  List.iter
    (fun c ->
      if c.nc_stack <> "bare" && c.nc_virtual_us < (bare_of c.nc_mode).nc_virtual_us
      then
        fail "%s/%s: faster than bare (%d < %d virtual us)" c.nc_stack
          c.nc_mode c.nc_virtual_us (bare_of c.nc_mode).nc_virtual_us)
    cells;
  Report.print_table
    ~headers:
      [ "stack"; "depth"; "mode"; "conns"; "ops"; "ops/vsec"; "p50us";
        "p90us"; "p99us" ]
    (List.map
       (fun c ->
         [ c.nc_stack; string_of_int c.nc_depth; c.nc_mode;
           string_of_int c.nc_conns; string_of_int c.nc_ops;
           Printf.sprintf "%.0f" (throughput c); string_of_int c.nc_p50;
           string_of_int c.nc_p90; string_of_int c.nc_p99 ])
       cells);
  Report.print_note
    "1000 simulated clients per cell, fork-per-connection and prefork;\n\
     latency percentiles are per-request virtual round trips, so each\n\
     agent layer's decode/dispatch cost is visible in the tail, and the\n\
     whole matrix must be byte-reproducible run to run.";
  let open Obs.Json in
  Obj
    [ ("name", Str "net");
      ("clients", Int params.Workloads.Kvd.clients);
      ("rows", cells_to_json cells);
      ("reproducible", Bool reproducible) ]

(* --- causal: the cross-process event graph (PR 9, `make check` gate) --------- *)

(* One deterministic session exercising all three edge kinds under a
   depth-4 stack: the parent forks three children, each child pipes a
   message back, and the parent signals each child awake before
   reaping it.  Every fork, kill->delivery and pipe byte-flow becomes
   an edge; two identical runs must produce byte-identical edge tables
   and slices. *)

type causal_run = {
  cz_status : int;
  cz_edges : Obs.Causal.edge list;      (* drained, in table order *)
  cz_records : Obs.Span.record list;    (* drained flight recorder *)
  cz_slice : (int * int) list;          (* reachable from the first fork *)
  cz_streamed : int;                    (* records seen by live polling *)
  cz_streamed_edges : Obs.Causal.edge list; (* the edges among them *)
  cz_lost : int;
  cz_polls : int;
  cz_watchdogs : Obs.Json.t;            (* metrics_json "watchdogs" block *)
}

let causal_msg i = Printf.sprintf "child %d reporting in\n" i

let causal_once () =
  Obs.reset ();
  let k = Table.prepare ignore in
  (* two rules: one that cannot trip, one that must (p99 of any
     running workload exceeds 0µs) — proving the block both passes
     and fails honestly *)
  Kernel.set_watch k
    [ { Obs.Watch.w_name = "no-errors"; w_target = "*";
        w_pred = Obs.Watch.Error_rate (None, 1.0) };
      { Obs.Watch.w_name = "impossible-p99"; w_target = "*";
        w_pred = Obs.Watch.P99_us (None, 0) } ];
  (* live streaming rides the zero-cost trace hook, exactly as
     `agentrun --follow` wires it: every record exactly once *)
  let cursor = Obs.Stream.cursor () in
  let streamed = ref [] and lost = ref 0 and polls = ref 0 in
  let take (fresh, l) =
    streamed := List.rev_append fresh !streamed;
    lost := !lost + l
  in
  Kernel.set_trace_hook k ~cost_us:0
    (Some
       (fun _ _ _ ->
         incr polls;
         take (Obs.poll cursor)));
  let status =
    Kernel.boot k ~name:"causal" (fun () ->
      for _ = 1 to 4 do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      Obs.enable ();
      let r, w = Libc.Unistd.ok_exn "pipe" (Libc.Unistd.pipe ()) in
      let children =
        List.init 3 (fun i ->
          Libc.Unistd.ok_exn "fork"
            (Libc.Unistd.fork ~child:(fun () ->
               ignore
                 (Libc.Unistd.signal Signal.sigusr1
                    (Value.H_fn (fun _ -> ())));
               ignore (Libc.Unistd.write w (causal_msg i));
               ignore (Libc.Unistd.sigsuspend 0);
               0)))
      in
      let want =
        List.fold_left
          (fun acc i -> acc + String.length (causal_msg i))
          0 [ 0; 1; 2 ]
      in
      let buf = Bytes.create 64 in
      let got = ref 0 in
      while !got < want do
        match Libc.Unistd.read r buf 64 with
        | Ok n when n > 0 -> got := !got + n
        | _ -> got := want
      done;
      List.iter
        (fun pid ->
          ignore (Libc.Unistd.kill pid Signal.sigusr1);
          ignore (Libc.Unistd.waitpid pid 0))
        children;
      ignore (Libc.Unistd.close r);
      ignore (Libc.Unistd.close w);
      Obs.disable ();
      0)
  in
  (* flush the live cursor before the drain empties the ring *)
  take (Obs.poll_of (Kernel.obs_engine k) cursor);
  let records = Kernel.drain_obs k in
  let edges = Obs.Span.edges records in
  (* slice roots: every fork trap the parent issued — "all the spans
     this spawn fan-out caused" (edges are span-granular, so each root
     reaches its own child's first span) *)
  let roots =
    List.filter_map
      (fun (e : Obs.Causal.edge) ->
        if e.Obs.Causal.ed_kind = Obs.Causal.Fork then
          Some (e.Obs.Causal.ed_src_shard, e.Obs.Causal.ed_src_span)
        else None)
      edges
  in
  let watchdogs =
    match Obs.Json.member "watchdogs" (Kernel.metrics_json k) with
    | Some j -> j
    | None -> Obs.Json.Null
  in
  { cz_status = status;
    cz_edges = edges;
    cz_records = records;
    cz_slice = Obs.Causal.slice ~roots edges;
    cz_streamed = List.length !streamed;
    cz_streamed_edges = Obs.Span.edges !streamed;
    cz_lost = !lost;
    cz_polls = !polls;
    cz_watchdogs = watchdogs }

(* Cross-shard: a 2-shard ring where each init mails SIGUSR1 to the
   other; the receiving shard records the Signal edge with the
   sender's (shard, span) origin. *)
let causal_cluster_once () =
  Obs.reset ();
  let c = Kernel.Cluster.create ~shards:2 () in
  for i = 0 to 1 do
    Table.populate (Kernel.Cluster.shard c i) ignore
  done;
  let _inits =
    List.init 2 (fun i ->
      Kernel.Cluster.boot_shard c i ~name:(Printf.sprintf "cz%d" i)
        (fun () ->
          Obs.enable ();
          ignore
            (Libc.Unistd.ok_exn "signal"
               (Libc.Unistd.signal Signal.sigusr1 (Value.H_fn (fun _ -> ()))));
          for _ = 1 to 2 + i do
            ignore (Libc.Unistd.getpid ())
          done;
          Kernel.Cluster.send ~dst:(1 - i) ~pid:1 ~signal:Signal.sigusr1;
          ignore (Libc.Unistd.sigsuspend 0);
          Obs.disable ();
          0))
  in
  Kernel.Cluster.run c;
  Obs.Span.edges (Kernel.Cluster.drain_obs c)

let causal_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str);
      ( "edges",
        Obj [ ("fork", Int); ("signal", Int); ("pipe", Int); ("total", Int) ] );
      ( "slice",
        Obj [ ("nodes", Int); ("reproducible", Bool) ] );
      ( "cluster",
        Obj
          [ ("shards", Int); ("cross_shard_signal_edges", Int);
            ("reproducible", Bool) ] );
      ( "flame",
        Obj
          [ ("stacks", Int); ("total_self_us", Int); ("span_self_us", Int);
            ("consistent", Bool) ] );
      ( "stream",
        Obj
          [ ("polls", Int); ("streamed", Int); ("drained", Int);
            ("lost", Int); ("complete", Bool) ] );
      ("watchdogs", Obj [ ("rules", Int); ("tripped", Int) ]) ]

let causal fail =
  Report.print_title
    "Causal: cross-process event graph, flame folds, live stream, watchdogs";
  let fail fmt = Printf.ksprintf fail fmt in
  let a = causal_once () in
  let b = causal_once () in
  if a.cz_status <> 0 then fail "causal session exited %d" a.cz_status;
  (* 1. every edge kind present, and the table byte-identical across
        two identical runs *)
  let count kind =
    List.length
      (List.filter
         (fun (e : Obs.Causal.edge) -> e.Obs.Causal.ed_kind = kind)
         a.cz_edges)
  in
  let forks = count Obs.Causal.Fork in
  let signals = count Obs.Causal.Signal in
  let pipes = count Obs.Causal.Pipe in
  if forks < 3 then fail "want >=3 fork edges, got %d" forks;
  if signals < 3 then fail "want >=3 signal edges, got %d" signals;
  if pipes < 3 then fail "want >=3 pipe edges, got %d" pipes;
  let render es = List.map (fun e -> Obs.Span.to_line (Obs.Span.Edge e)) es in
  let edges_repro = render a.cz_edges = render b.cz_edges in
  if not edges_repro then fail "edge tables differ between identical runs";
  Printf.printf
    "edge table: %d fork, %d signal, %d pipe (%d total); two runs \
     byte-identical: %b\n"
    forks signals pipes (List.length a.cz_edges) edges_repro;
  (* 2. the slice from the fork roots reaches every child's first
        span, deterministically *)
  let slice_repro = a.cz_slice = b.cz_slice in
  if List.length a.cz_slice < 2 * forks then
    fail "slice from %d fork root(s) reaches only %d node(s)" forks
      (List.length a.cz_slice);
  if not slice_repro then fail "slices differ between identical runs";
  Printf.printf "slice from fork roots: %d reachable node(s), reproducible: %b\n"
    (List.length a.cz_slice) slice_repro;
  (* 3. chrome export binds flow events for the recorded edges *)
  let chrome = Obs.Chrome.to_string ~name:Call.name a.cz_records in
  let occurrences needle hay =
    let nl = String.length needle and hl = String.length hay in
    let n = ref 0 in
    for i = 0 to hl - nl do
      if String.sub hay i nl = needle then incr n
    done;
    !n
  in
  let starts = occurrences "\"ph\":\"s\"" chrome in
  let finishes = occurrences "\"ph\":\"f\"" chrome in
  if starts = 0 then fail "chrome export has no flow-start events";
  if starts <> finishes then
    fail "chrome flow events unbalanced: %d starts, %d finishes" starts
      finishes;
  Printf.printf "chrome export: %d flow arrow(s) bound\n" starts;
  (* 4. flame folds conserve self time: fold total = segment self sum *)
  let segments =
    List.filter_map
      (function Obs.Span.Segment s -> Some s | _ -> None)
      a.cz_records
  in
  let folds = Obs.Flame.fold segments in
  let fold_total = Obs.Flame.total folds in
  let seg_total =
    List.fold_left (fun acc (s : Obs.Span.segment) -> acc + s.Obs.Span.self_us)
      0 segments
  in
  let flame_ok = fold_total = seg_total in
  if not flame_ok then
    fail "flame folds total %dus but segments sum %dus" fold_total seg_total;
  Printf.printf "flame: %d stack(s), %dus folded = %dus segment self time\n"
    (List.length folds) fold_total seg_total;
  (* 5. the live stream saw every record exactly once, every causal
        edge of the final drain among them *)
  let drained = List.length a.cz_records in
  let stream_ok = a.cz_streamed = drained && a.cz_lost = 0 in
  if not stream_ok then
    fail "stream: %d streamed + %d lost vs %d drained" a.cz_streamed
      a.cz_lost drained;
  if a.cz_streamed_edges <> a.cz_edges then
    fail "stream: %d edge(s) streamed vs %d drained"
      (List.length a.cz_streamed_edges) (List.length a.cz_edges);
  Printf.printf
    "stream: %d poll(s) delivered %d/%d record(s) (%d/%d edges), %d lost\n"
    a.cz_polls a.cz_streamed drained
    (List.length a.cz_streamed_edges) (List.length a.cz_edges) a.cz_lost;
  (* 6. watchdogs: the impossible rule trips, the lax one does not *)
  let wd_rules, wd_tripped =
    match
      ( Option.bind (Obs.Json.member "rules" a.cz_watchdogs) Obs.Json.to_int,
        Option.bind (Obs.Json.member "tripped" a.cz_watchdogs) Obs.Json.to_int
      )
    with
    | Some r, Some t -> (r, t)
    | _ ->
      fail "metrics_json watchdogs block malformed";
      (0, 0)
  in
  if wd_rules <> 2 || wd_tripped <> 1 then
    fail "watchdogs: want 2 rules / 1 tripped, got %d/%d" wd_rules wd_tripped;
  Printf.printf "watchdogs: %d rule(s), %d tripped\n" wd_rules wd_tripped;
  (* 7. cross-shard: both shards record the other's signal edge, and
        the merged table is byte-stable *)
  let ca = causal_cluster_once () in
  let cb = causal_cluster_once () in
  let cross =
    List.filter
      (fun (e : Obs.Causal.edge) ->
        e.Obs.Causal.ed_kind = Obs.Causal.Signal
        && e.Obs.Causal.ed_src_shard <> e.Obs.Causal.ed_shard)
      ca
  in
  if List.length cross < 2 then
    fail "want >=2 cross-shard signal edges, got %d" (List.length cross);
  let cluster_repro = render ca = render cb in
  if not cluster_repro then
    fail "cluster edge tables differ between identical runs";
  Printf.printf
    "cluster: %d cross-shard signal edge(s) over 2 shards, reproducible: %b\n"
    (List.length cross) cluster_repro;
  Report.print_note
    "Causal edges are records of the one log at zero virtual cost; at\n\
     1-in-N it holds only edges into sampled traps: fork edges resolve\n\
     at the child's first trap, signal edges at delivery (kill-originated,\n\
     incl. cross-shard mail), pipe edges by byte-offset watermark\n\
     (DESIGN.md 3.9).";
  let open Obs.Json in
  Obj
    [ ("name", Str "causal");
      ( "edges",
        Obj
          [ ("fork", Int forks); ("signal", Int signals);
            ("pipe", Int pipes); ("total", Int (List.length a.cz_edges)) ] );
      ( "slice",
        Obj
          [ ("nodes", Int (List.length a.cz_slice));
            ("reproducible", Bool slice_repro) ] );
      ( "cluster",
        Obj
          [ ("shards", Int 2);
            ("cross_shard_signal_edges", Int (List.length cross));
            ("reproducible", Bool cluster_repro) ] );
      ( "flame",
        Obj
          [ ("stacks", Int (List.length folds));
            ("total_self_us", Int fold_total);
            ("span_self_us", Int seg_total);
            ("consistent", Bool flame_ok) ] );
      ( "stream",
        Obj
          [ ("polls", Int a.cz_polls); ("streamed", Int a.cz_streamed);
            ("drained", Int drained); ("lost", Int a.cz_lost);
            ("complete", Bool stream_ok) ] );
      ( "watchdogs",
        Obj [ ("rules", Int wd_rules); ("tripped", Int wd_tripped) ] ) ]

(* --- driver -------------------------------------------------------------------------------- *)

(* A report prints its tables.  A gate prints its tables too, reports
   each bound it checks through [fail], and returns its document; the
   runner writes that to BENCH_<stem>.json, re-reads and validates it
   against [schema], and fails the run if anything failed.  `make check`
   runs every gate and diffs the documents against bench/golden/. *)
type section =
  | Report of string * (unit -> unit)
  | Gate of {
      name : string;
      stem : string;
      schema : Report.Schema.t;
      run : (string -> unit) -> Obs.Json.t;
    }

let sections =
  let gate name ?(stem = name) schema run = Gate { name; stem; schema; run } in
  [ Report ("table3.1", table3_1);
    Report ("table3.2", table3_2);
    Report ("table3.3", table3_3);
    Report ("table3.4", table3_4);
    Report ("table3.5", table3_5);
    Report ("dfstrace", dfstrace);
    gate "ablations" ablations_schema ablations;
    gate "faults" faults_schema faults;
    gate "conformance" conformance_schema conformance;
    gate "netbench" ~stem:"net" net_schema netbench;
    gate "scale" scale_schema scale;
    gate "causal" causal_schema causal ]

let section_name = function Report (name, _) -> name | Gate g -> g.name
let is_gate = function Gate _ -> true | Report _ -> false

let run_section = function
  | Report (_, run) -> run ()
  | Gate { name; stem; schema; run } ->
    let failures = ref [] in
    let fail s = failures := s :: !failures in
    let path = Report.write_json ~stem (run fail) in
    (match Report.validate_file path schema with
     | Ok () -> ()
     | Error e -> fail e);
    (match List.rev !failures with
     | [] -> Printf.printf "[%s] all gates passed\n" name
     | fs ->
       List.iter (Printf.printf "[%s] FAIL: %s\n" name) fs;
       exit 1)

(* Every section, one a line, with whether it is a gate. *)
let print_list oc =
  List.iter
    (fun s ->
      Printf.fprintf oc "%s\t%s\n" (section_name s)
        (if is_gate s then "gate" else "report"))
    sections

(* no argument: every report; `gates`: every gate; `--list`: the
   sections; otherwise the named sections, in order *)
let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.filter (fun s -> not (is_gate s)) sections
    | [ "--list" ] ->
      print_list stdout;
      exit 0
    | names ->
      List.concat_map
        (fun n ->
          if n = "gates" then List.filter is_gate sections
          else
            match List.find_opt (fun s -> section_name s = n) sections with
            | Some s -> [ s ]
            | None ->
              Printf.eprintf "unknown section %S; the sections are:\n" n;
              print_list stderr;
              exit 2)
        names
  in
  Printf.printf
    "Interposition Agents (Jones, SOSP '93) -- benchmark reproduction\n";
  Printf.printf
    "virtual time: deterministic, cost model calibrated to the paper\n";
  List.iter run_section requested
