(* The benchmark harness: regenerates every table of the paper's
   evaluation (Tables 3-1 .. 3-5), the §3.5.3 DFSTrace comparison, and
   the DESIGN.md ablations; finally runs Bechamel wall-clock
   measurements of the implementation itself.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table3.2 ...    -- selected sections

   Virtual-time numbers are deterministic; wall-clock numbers are not.
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Abi
module Itoolkit = Toolkit (* alias: [open Bechamel] below shadows Toolkit *)

(* --- common helpers ------------------------------------------------------- *)

let fresh () =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  k

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

(* The four agent configurations of Tables 3-2/3-3. *)
type variant = V_none | V_timex | V_trace | V_union

let variant_name = function
  | V_none -> "none"
  | V_timex -> "timex"
  | V_trace -> "trace"
  | V_union -> "union"

(* Install the variant's agent inside the running session.  [mounts]
   configures the union agent for the workload's tree. *)
let install_variant variant ~mounts =
  match variant with
  | V_none -> ()
  | V_timex ->
    Itoolkit.Loader.install
      (Agents.Timex.create ~offset_seconds:3600 ())
      ~argv:[||]
  | V_trace ->
    (match
       Libc.Unistd.open_ "/trace.out"
         Flags.Open.(o_wronly lor o_creat lor o_trunc)
         0o644
     with
     | Ok fd -> Itoolkit.Loader.install (Agents.Trace.create ~fd ()) ~argv:[||]
     | Error _ -> Itoolkit.Loader.install (Agents.Trace.create ()) ~argv:[||])
  | V_union ->
    Itoolkit.Loader.install (Agents.Union.create ~mounts ()) ~argv:[||]

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

let run_scribe variant =
  let k = fresh () in
  Workloads.Scribe.setup k;
  let mounts =
    [ { Agents.Union.point = "/doc"; members = [ "/doc.main"; "/doc.inc" ] } ]
  in
  if variant = V_union then begin
    (* split the document tree so the union agent has real work: the
       chapters live in a second member directory *)
    Kernel.mkdir_p k "/doc.inc";
    List.iter
      (fun i ->
        let name = Printf.sprintf "chapter%d.mss" i in
        if Kernel.exists k ("/doc/" ^ name) then
          host_rename k ("/doc/" ^ name) ("/doc.inc/" ^ name))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
    host_rename k "/doc" "/doc.main"
  end;
  let status =
    Kernel.boot k ~name:"scribe-session" (fun () ->
      install_variant variant ~mounts;
      Workloads.Scribe.body ())
  in
  finish k status

let table3_2 () =
  Report.print_title "Table 3-2: time to format the dissertation";
  let paper = [ V_none, 128.9; V_timex, 129.4; V_trace, 132.4; V_union, 133.9 ] in
  let base = ref 0.0 in
  let rows =
    List.map
      (fun (v, paper_secs) ->
        let r = run_scribe v in
        if v = V_none then base := r.seconds;
        [ variant_name v;
          Report.secs r.seconds;
          Report.pct !base r.seconds;
          string_of_int r.calls;
          Printf.sprintf "%.1f (%s)" paper_secs
            (Report.pct 128.9 paper_secs);
          (if r.status = 0 then "ok" else "FAILED") ])
      paper
  in
  Report.print_table
    ~headers:
      [ "agent"; "virtual s"; "slowdown"; "syscalls"; "paper s (slowdown)";
        "status" ]
    rows

(* --- Table 3-3: make 8 programs --------------------------------------------- *)

let run_make variant =
  let k = fresh () in
  Workloads.Make_cc.setup k;
  let mounts =
    [ { Agents.Union.point = "/proj"; members = [ "/objdir"; "/srcdir" ] } ]
  in
  if variant = V_union then begin
    Kernel.mkdir_p k "/objdir";
    host_rename k "/proj" "/srcdir"
  end;
  let status =
    Kernel.boot k ~name:"make-session" (fun () ->
      install_variant variant ~mounts;
      Workloads.Make_cc.body ())
  in
  finish k status

let table3_3 () =
  Report.print_title "Table 3-3: time to make 8 programs";
  let paper = [ V_none, 16.0; V_timex, 19.0; V_union, 29.0; V_trace, 33.0 ] in
  let base = ref 0.0 in
  let rows =
    List.map
      (fun (v, paper_secs) ->
        let r = run_make v in
        if v = V_none then base := r.seconds;
        [ variant_name v;
          Report.secs r.seconds;
          Report.pct !base r.seconds;
          string_of_int r.calls;
          Printf.sprintf "%.1f (%s)" paper_secs (Report.pct 16.0 paper_secs);
          (if r.status = 0 then "ok" else "FAILED") ])
      paper
  in
  Report.print_table
    ~headers:
      [ "agent"; "virtual s"; "slowdown"; "syscalls"; "paper s (slowdown)";
        "status" ]
    rows;
  Report.print_note
    "Ordering to check: none < timex << union < trace, with the\n\
     process-heavy workload amplifying every agent's cost."

(* --- micro-measurement machinery --------------------------------------------- *)

(* Per-operation virtual cost: run a session performing [iters]
   repetitions and an identical session performing none; the
   difference divided by [iters] isolates the call. *)
let measure_virtual ?(iters = 200) ~with_agent ~prepare op =
  let session n =
    let k = fresh () in
    Kernel.write_file k ~path:"/m/big" (String.make ((iters + 2) * 1024) 'd');
    Kernel.mkdir_p k "/usr/lib/pkg/deep/sub";
    Kernel.write_file k ~path:"/usr/lib/pkg/deep/sub/leaf" "x";
    Kernel.register_image k "btrue" (fun ~argv:_ ~envp:_ () -> 0);
    Kernel.install_image k ~path:"/bin/btrue" ~image:"btrue";
    let _ =
      Kernel.boot k ~name:"micro" (fun () ->
        if with_agent then
          Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
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
  (* per-trap wall cost, inside a live simulation *)
  let traps_per_session = 512 in
  let session with_agent =
    let k = fresh () in
    let _ =
      Kernel.boot k ~name:"wall" (fun () ->
        if with_agent then
          Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
        for _ = 1 to traps_per_session do
          ignore (Libc.Unistd.getpid ())
        done;
        0)
    in
    ()
  in
  let direct_us =
    wall_us ~iters:20 (fun () -> session false) /. float_of_int traps_per_session
  in
  let intercepted_us =
    wall_us ~iters:20 (fun () -> session true) /. float_of_int traps_per_session
  in
  Report.print_table
    ~headers:[ "operation (wall clock, this machine)"; "measured us"; "paper us (25MHz 486)" ]
    [ [ "OCaml function call + result";
        Printf.sprintf "%.4f" call_us;
        Printf.sprintf "%.2f (C call)" Cost_model.paper_c_call_us ];
      [ "OCaml method call + result";
        Printf.sprintf "%.4f" virt_us;
        Printf.sprintf "%.2f (C++ virtual)" Cost_model.paper_virtual_call_us ];
      [ "simulated trap, direct"; Printf.sprintf "%.2f" direct_us; "n/a" ];
      [ "simulated trap, intercepted (null agent)";
        Printf.sprintf "%.2f" intercepted_us; "30 + call" ] ]

(* --- DFSTrace comparison (§3.5.3) ----------------------------------------------- *)

let run_afs mode =
  let k = fresh () in
  Workloads.Afs_bench.setup k;
  (match mode with
   | `Kernel_hook -> ignore (Agents.Dfs_kernel.install k)
   | `Base | `Agent -> ());
  let status =
    Kernel.boot k ~name:"afs" (fun () ->
      (match mode with
       | `Agent ->
         let agent = Agents.Dfs_trace.create () in
         Itoolkit.Loader.install agent ~argv:[| "log=/dfs.log" |]
       | `Base | `Kernel_hook -> ());
      Workloads.Afs_bench.body ())
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

(* --- stacked-getpid measurements (ablations 3/4 and `smoke`) ------------------ *)

let stack_cost depth =
  measure_virtual ~iters:300 ~with_agent:false
    ~prepare:(fun () ->
      for _ = 1 to depth do
        Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      0)
    (fun _ -> ignore (Libc.Unistd.getpid ()))

(* envelope codec counters over the same stacked-getpid loop: the
   decode-once invariant, measured rather than asserted *)
let stack_codec depth =
  let iters = 50 in
  let k = fresh () in
  let before = ref (Kernel.codec_stats k) in
  let after = ref !before in
  let _ =
    Kernel.boot k ~name:"codec" (fun () ->
      for _ = 1 to depth do
        Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      before := Kernel.codec_stats k;
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      after := Kernel.codec_stats k;
      0)
  in
  let d = Envelope.Stats.diff !before !after in
  (iters, d)

(* The same loop with tracing ON: per-(depth, layer) attribution from
   the Obs engine, plus the global codec diff over the identical window
   so the two accountings can be cross-checked. *)
type attrib = {
  at_iters : int;
  at_metrics : Obs.metrics;
  at_codec : Envelope.Stats.snapshot; (* diff over the traced window *)
}

let stack_attrib depth =
  let iters = 50 in
  let k = fresh () in
  let before = ref (Kernel.codec_stats k) in
  let after = ref !before in
  Obs.reset ();
  let _ =
    Kernel.boot k ~name:"attrib" (fun () ->
      for _ = 1 to depth do
        Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
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
    at_codec = Envelope.Stats.diff !before !after }

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
    layer_decodes = a.at_codec.Envelope.Stats.decodes
    && layer_encodes = a.at_codec.Envelope.Stats.encodes
  in
  (layer_decodes, layer_encodes, layer_self, span_total, codec_ok)

let per_trap iters n = Printf.sprintf "%.2f" (float_of_int n /. float_of_int iters)

(* --- uninterested-trap fast path (ablation 6 and `smoke`) ---------------------- *)

(* A stack of agents interested only in open(): getpid never matches
   any interest bitmap, so every trap should take the fast path no
   matter how deep the stack is. *)
let install_uninterested depth =
  for _ = 1 to depth do
    let a = new Itoolkit.numeric_syscall in
    a#register_interest Sysno.sys_open;
    Itoolkit.Loader.install a ~argv:[||]
  done

let uninterested_cost depth =
  measure_virtual ~iters:300 ~with_agent:false
    ~prepare:(fun () ->
      install_uninterested depth;
      0)
    (fun _ -> ignore (Libc.Unistd.getpid ()))

(* Real-allocation probe over a hot uninterested-getpid loop: minor
   words per trap (wall-side, not virtual), pool hit/recycle accounting
   and the fast-path counter over the same window.  The pool is warmed
   first so the window sees the steady state. *)
type alloc_report = {
  al_iters : int;
  al_minor_words_per_trap : float;
  al_pool : Value.Pool.Stats.snapshot;   (* diff over the window *)
  al_codec : Envelope.Stats.snapshot;    (* diff over the window *)
}

let alloc_probe depth =
  let iters = 2000 in
  let k = fresh () in
  let report = ref None in
  let _ =
    Kernel.boot k ~name:"alloc" (fun () ->
      install_uninterested depth;
      for _ = 1 to 64 do
        ignore (Libc.Unistd.getpid ())
      done;
      let p0 = Kernel.pool_stats k in
      let c0 = Kernel.codec_stats k in
      let m0 = Gc.minor_words () in
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      let m1 = Gc.minor_words () in
      report :=
        Some
          { al_iters = iters;
            al_minor_words_per_trap = (m1 -. m0) /. float_of_int iters;
            al_pool = Value.Pool.Stats.diff p0 (Kernel.pool_stats k);
            al_codec = Envelope.Stats.diff c0 (Kernel.codec_stats k) };
      0)
  in
  match !report with
  | Some r -> r
  | None -> failwith "alloc probe session died"

let alloc_json (a : alloc_report) =
  let open Obs.Json in
  Obj
    [ ("traps", Int a.al_iters);
      ("minor_words_per_trap", Float a.al_minor_words_per_trap);
      ("fast_path", Int a.al_codec.Envelope.Stats.fast_path);
      ("pool_hits", Int a.al_pool.Value.Pool.Stats.hits);
      ("pool_misses", Int a.al_pool.Value.Pool.Stats.misses);
      ("pool_recycled", Int a.al_pool.Value.Pool.Stats.recycled);
      ("pool_dropped", Int a.al_pool.Value.Pool.Stats.dropped) ]

(* --- reaping cost (`smoke`) ------------------------------------------------------ *)

(* Minor words per wait4 while init reaps [n] exited children with
   wait4(-1).  Fork runs the child first, so all [n] are zombies before
   the window opens, and the window holds only the [n] waits.  A wait
   that scans or sorts the process table allocates in proportion to
   [n]; one that reads the caller's child index does not. *)
let reap_probe n =
  let k = fresh () in
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

(* --- sampled tracing (ablation 7 and `smoke`) ---------------------------------- *)

(* The stacked-getpid loop with the observation plane ON at a 1-in-N
   sampling rate: per-trap virtual cost (full-minus-empty session diff,
   as in [measure_virtual]) plus the metrics snapshot taken inside the
   full session, before the exit trap.  Restores the global sampler to
   1-in-1 afterwards so the rest of the run is unaffected. *)
let sampled_run ~n ~iters depth =
  let session count capture =
    let k = fresh () in
    let _ =
      Kernel.boot k ~name:"sampled" (fun () ->
        for _ = 1 to depth do
          Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
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

(* --- ablations ---------------------------------------------------------------------- *)

let ablations () =
  Report.print_title "Ablation 1: selective vs full-vector interception (make)";
  let selective = run_make V_timex in
  let full =
    let k = fresh () in
    Workloads.Make_cc.setup k;
    let status =
      Kernel.boot k ~name:"make-full" (fun () ->
        let a = Agents.Timex.create ~offset_seconds:3600 () in
        a#register_interest_all;
        Itoolkit.Loader.install a ~argv:[||];
        Workloads.Make_cc.body ())
    in
    finish k status
  in
  let base = run_make V_none in
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
         | Some mk -> Itoolkit.Loader.install (mk ()) ~argv:[||]
         | None -> ());
        0)
      (fun _ -> ignore (Libc.Unistd.getpid ()))
  in
  let numeric_null () =
    let a = new Itoolkit.numeric_syscall in
    a#register_interest_all;
    a
  in
  let symbolic_null () =
    (Agents.Time_symbolic.create () :> Itoolkit.Numeric.numeric_syscall)
  in
  let pathname_null () =
    let a = new Itoolkit.pathname_set in
    a#register_interest_all;
    (a :> Itoolkit.Numeric.numeric_syscall)
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
           per_trap iters diff.Envelope.Stats.decodes;
           per_trap iters diff.Envelope.Stats.encodes;
           per_trap iters diff.Envelope.Stats.crossings ]))
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
           per_trap a.at_iters a.at_codec.Envelope.Stats.decodes;
           per_trap a.at_iters le;
           per_trap a.at_iters a.at_codec.Envelope.Stats.encodes;
           Printf.sprintf "%d = %d" self span;
           (if codec_ok && self = span then "ok" else "MISMATCH") ])
       attribs);
  Report.print_note
    "Two independent accountings agree: the flight recorder's per-layer\n\
     segments carry exactly the decodes/encodes the global counters saw\n\
     (1.00/1.00 per trap at any depth), and per-layer self times sum to\n\
     the end-to-end span time.  Tracing charges no virtual time, so the\n\
     getpid figures match ablation 3's tracing-off column.";

  Report.print_title
    "Ablation 5: what observation costs (make under observation agents)";
  let observed ?(argv = [||]) mk =
    let k = fresh () in
    Workloads.Make_cc.setup k;
    let status =
      Kernel.boot k ~name:"make-obs" (fun () ->
        Itoolkit.Loader.install (mk ()) ~argv;
        Workloads.Make_cc.body ())
    in
    finish k status
  in
  let base = run_make V_none in
  let null =
    observed (fun () ->
      (Agents.Time_symbolic.create () :> Itoolkit.Numeric.numeric_syscall))
  in
  let counting =
    observed (fun () ->
      (Agents.Syscount.create () :> Itoolkit.Numeric.numeric_syscall))
  in
  let recording =
    observed (fun () ->
      (Agents.Record_replay.create_recorder ()
        :> Itoolkit.Numeric.numeric_syscall))
  in
  let dfs =
    observed ~argv:[| "log=/dfs.log" |] (fun () ->
      (Agents.Dfs_trace.create () :> Itoolkit.Numeric.numeric_syscall))
  in
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
    "Observation gets more expensive with the work done per call:\n\
     counting < journaling < per-record timestamps and log writes.";

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
  let al = alloc_probe 4 in
  Printf.printf
    "allocation at depth 4 (warm pool, %d traps): %.1f minor words/trap,\n\
     fast_path %s/trap, pool hits %s/trap, recycled %s/trap (%d dropped)\n"
    al.al_iters al.al_minor_words_per_trap
    (per_trap al.al_iters al.al_codec.Envelope.Stats.fast_path)
    (per_trap al.al_iters al.al_pool.Value.Pool.Stats.hits)
    (per_trap al.al_iters al.al_pool.Value.Pool.Stats.recycled)
    al.al_pool.Value.Pool.Stats.dropped;
  Report.print_note
    "Pay-per-use at trap granularity: an uninterested call costs the\n\
     depth-0 25us whatever is stacked above it (one bitmap test, no\n\
     vector probe), and the warm wire pool keeps the boundary encode\n\
     from allocating a fresh vector per trap.";

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

  (* machine-readable companion for the perf trajectory *)
  let open Obs.Json in
  Report.write_json ~name:"ablations"
    (Obj
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
                      ("decodes", Int diff.Envelope.Stats.decodes);
                      ("encodes", Int diff.Envelope.Stats.encodes);
                      ("crossings", Int diff.Envelope.Stats.crossings) ])
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
                  ("recorder", recording); ("dfs_trace", dfs) ]) ) ])

(* --- smoke: the CI guard ---------------------------------------------------------- *)

(* Stacked-getpid baseline with tracing off, recorded when decode-once
   envelopes landed; the guard fails on >10% drift (virtual time is
   deterministic, so any drift at all means the cost model or the trap
   path changed — the tolerance only leaves room for intentional
   small calibrations). *)
let smoke_baseline_us = [ (0, 25.0); (1, 165.0); (2, 168.0); (3, 171.0); (4, 174.0) ]

(* Uninterested traps ride the interest-bitmap fast path: getpid under
   any depth of open-only agents must cost the depth-0 25us, flat. *)
let smoke_uninterested_baseline_us = 25.0

(* Real-allocation ceiling for a warm uninterested trap (minor words
   per getpid, pool warm, tracing off).  Measured 13.0 words/trap once
   the kernel half of a trap ran on the calling fibre (DESIGN.md §3.8
   "Direct kernel entry"); what remains is the call's result and the
   dispatch outcome around it — the wire and the envelope record are
   recycled.  Every trap through the scheduler's run queue cost 56.0,
   so the ceiling sits at 18: a trap that performs an effect again, or
   a pool that stops recycling (+7 words for the envelope record
   alone), trips the gate, while 5 words of headroom absorb compiler
   drift. *)
let smoke_minor_words_ceiling = 18.0

(* Reaping gate: init reaps N exited children with wait4(-1) at two
   sizes.  Measured 101 minor words/wait at 500 children and 109 at
   2000 once wait4 read the caller's child index (DESIGN.md §3.6
   "Process tree"); the table scan and sort it replaced cost 8185 and
   38441, 4.7x apart.  The ceiling leaves ~50% headroom for compiler
   drift, and the ratio bound catches any per-wait cost that grows with
   the number of children. *)
let smoke_reap_children = (500, 2000)
let smoke_reap_words_ceiling = 160.0
let smoke_reap_max_ratio = 1.5

(* The ablations document shape, stated declaratively — the shared
   [Report.Schema] walker does the checking (one validator for all
   eight BENCH_*.json files; see [causal ()], which re-validates the
   full set).  The smoke document is the same shape plus its reaping
   rows. *)
let ablations_fields =
  let open Report.Schema in
    [ ("name", Str);
      ("stacked_getpid_us", Numbers 5);
      ("uninterested_getpid_us", Numbers 5);
      ( "uninterested_alloc",
        Obj
          [ ("traps", Int); ("minor_words_per_trap", Num);
            ("fast_path", Int); ("pool_hits", Int); ("pool_misses", Int);
            ("pool_recycled", Int); ("pool_dropped", Int) ] );
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
               ("p90_us", Int); ("p99_us", Int) ]) ) ]

let ablations_schema = Report.Schema.Obj ablations_fields

let smoke_schema =
  let open Report.Schema in
  Obj
    (ablations_fields
    @ [ ( "reap",
          Arr_nonempty (Obj [ ("children", Int); ("minor_words_per_wait", Num) ])
        ) ])

let smoke () =
  Report.print_title "Smoke: tracing-off guard + metrics schema validation";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 1. tracing OFF: stacked getpid must sit on the recorded baseline *)
  let off_rows =
    List.map
      (fun (d, expect) ->
        let got = stack_cost d in
        let drift =
          if expect > 0.0 then abs_float (got -. expect) /. expect else 0.0
        in
        if drift > 0.10 then
          fail "depth %d: getpid %.0fus drifted >10%% from baseline %.0fus" d
            got expect;
        (d, expect, got))
      smoke_baseline_us
  in
  Report.print_table
    ~headers:[ "stacked null agents"; "baseline us"; "measured us (tracing off)" ]
    (List.map
       (fun (d, e, g) ->
         [ string_of_int d; Report.us e; Report.us g ])
       off_rows);
  (* 1b. uninterested traps: flat at the depth-0 cost whatever is
         stacked, or the interest-bitmap fast path regressed *)
  let un_rows =
    List.map
      (fun d ->
        let got = uninterested_cost d in
        let expect = smoke_uninterested_baseline_us in
        if abs_float (got -. expect) /. expect > 0.10 then
          fail
            "depth %d: uninterested getpid %.0fus drifted >10%% from flat %.0fus"
            d got expect;
        (d, got))
      [ 0; 1; 2; 3; 4 ]
  in
  Report.print_table
    ~headers:
      [ "stacked open-only agents"; "baseline us";
        "measured us (uninterested)" ]
    (List.map
       (fun (d, g) ->
         [ string_of_int d; Report.us smoke_uninterested_baseline_us;
           Report.us g ])
       un_rows);
  (* 1c. allocation-rate gate over the same fast path, pool warm *)
  let al = alloc_probe 4 in
  if al.al_minor_words_per_trap > smoke_minor_words_ceiling then
    fail "allocation: %.1f minor words/trap exceeds the %.0f ceiling"
      al.al_minor_words_per_trap smoke_minor_words_ceiling;
  if al.al_codec.Envelope.Stats.fast_path <> al.al_iters then
    fail "fast path: %d of %d uninterested traps took it"
      al.al_codec.Envelope.Stats.fast_path al.al_iters;
  if al.al_codec.Envelope.Stats.intercepted <> 0 then
    fail "fast path: %d uninterested traps probed a handler"
      al.al_codec.Envelope.Stats.intercepted;
  if al.al_pool.Value.Pool.Stats.hits <> al.al_iters
     || al.al_pool.Value.Pool.Stats.recycled <> al.al_iters
  then
    fail "wire pool: warm loop expected %d hits/recycles, got %d/%d"
      al.al_iters al.al_pool.Value.Pool.Stats.hits
      al.al_pool.Value.Pool.Stats.recycled;
  Printf.printf
    "fast path at depth 4: %.1f minor words/trap (ceiling %.0f), pool \
     %d/%d hits, %d recycled\n"
    al.al_minor_words_per_trap smoke_minor_words_ceiling
    al.al_pool.Value.Pool.Stats.hits al.al_iters
    al.al_pool.Value.Pool.Stats.recycled;
  (* 1d. reaping: per-wait allocation flat in the number of children *)
  let small, large = smoke_reap_children in
  let reap_rows = List.map (fun n -> (n, reap_probe n)) [ small; large ] in
  List.iter
    (fun (n, w) ->
      if w > smoke_reap_words_ceiling then
        fail "reaping %d children: %.1f minor words/wait exceeds the %.0f ceiling"
          n w smoke_reap_words_ceiling)
    reap_rows;
  let reap_ratio = List.assoc large reap_rows /. List.assoc small reap_rows in
  if reap_ratio > smoke_reap_max_ratio then
    fail "reaping: words/wait grew %.2fx from %d to %d children (max %.1fx)"
      reap_ratio small large smoke_reap_max_ratio;
  Printf.printf
    "reaping with wait4(-1): %s minor words/wait (ceiling %.0f), %.2fx from \
     %d to %d children (max %.1fx)\n"
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "%.1f at %d" w n) reap_rows))
    smoke_reap_words_ceiling reap_ratio small large smoke_reap_max_ratio;
  (* 2. tracing ON at depth 4: attribution must agree with the codec
        counters and with end-to-end span time, at zero virtual cost *)
  let a = stack_attrib 4 in
  let ld, le, self, span, codec_ok = attrib_checks a in
  if not codec_ok then
    fail "attribution: layer codec totals (%d dec / %d enc) != global (%d / %d)"
      ld le a.at_codec.Envelope.Stats.decodes a.at_codec.Envelope.Stats.encodes;
  if ld <> a.at_iters || le <> a.at_iters then
    fail "attribution: expected exactly 1.00 decode and encode per trap, got %s/%s"
      (per_trap a.at_iters ld) (per_trap a.at_iters le);
  if self <> span then
    fail "attribution: layer self times (%dus) != span end-to-end (%dus)" self span;
  let traced_us = stack_cost 4 in
  Printf.printf
    "attribution at depth 4: %s decodes/trap, %s encodes/trap, self sum \
     %dus = span sum %dus, tracing-off getpid %.0fus\n"
    (per_trap a.at_iters ld) (per_trap a.at_iters le) self span traced_us;
  (* 3. sampled tracing at 1-in-256 must sit on the tracing-off
        baseline (observation charges no virtual time; 5% tolerance),
        with per-syscall counts exact at every rate *)
  let smoke_sample_iters = 300 in
  let sampled_rows =
    List.map
      (fun (d, expect) ->
        let got, m = sampled_run ~n:256 ~iters:smoke_sample_iters d in
        if abs_float (got -. expect) /. expect > 0.05 then
          fail
            "depth %d: sampled(256) getpid %.1fus drifted >5%% from %.0fus"
            d got expect;
        let g = getpid_metrics m in
        if g.Obs.sm_calls <> smoke_sample_iters then
          fail "depth %d: sampled(256) counted %d getpid calls, want %d" d
            g.Obs.sm_calls smoke_sample_iters;
        (d, expect, got, m))
      smoke_baseline_us
  in
  Report.print_table
    ~headers:
      [ "stacked null agents"; "baseline us"; "measured us (sampled 1-in-256)" ]
    (List.map
       (fun (d, e, g, _) -> [ string_of_int d; Report.us e; Report.us g ])
       sampled_rows);
  let us1, m1 = sampled_run ~n:1 ~iters:smoke_sample_iters 4 in
  let us16, m16 = sampled_run ~n:16 ~iters:smoke_sample_iters 4 in
  let _, _, _, m256 =
    List.find (fun (d, _, _, _) -> d = 4) sampled_rows
  in
  if exact_counts m16 <> exact_counts m1 then
    fail "sampling: 1-in-16 changed the exact per-syscall counts";
  if exact_counts m256 <> exact_counts m1 then
    fail "sampling: 1-in-256 changed the exact per-syscall counts";
  let est16 = Obs.Hist.count (getpid_metrics m16).Obs.sm_hist * 16 in
  if est16 < smoke_sample_iters * 2 / 5 || est16 > smoke_sample_iters * 8 / 5
  then
    fail "sampling: 1-in-16 estimate %d too far from the true %d" est16
      smoke_sample_iters;
  Printf.printf
    "sampled tracing at depth 4: N=1 %.0fus, N=16 %.0fus (est %d of %d \
     spans), exact counts stable across rates\n"
    us1 us16 est16 smoke_sample_iters;
  (* 4. the chrome export of a real traced window parses and carries
        the trace_event essentials *)
  let chrome_records =
    let k = fresh () in
    Obs.reset ();
    let _ =
      Kernel.boot k ~name:"chrome" (fun () ->
        Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
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
  (match of_string (Obs.Chrome.to_string ~name:Sysno.name chrome_records) with
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
     if !malformed > 0 then
       fail "chrome export: %d malformed events" !malformed;
     (* 5 getpids through a depth-1 stack: 4 segments per trap *)
     if !completes <> 20 then
       fail "chrome export: want 20 complete events, got %d" !completes;
     Printf.printf "chrome export: %d events, %d complete, shape ok\n"
       (List.length events) !completes
   | Ok _ -> fail "chrome export: not a JSON array");
  (* 5. write BENCH_smoke.json, read it back, validate the schema *)
  let open Obs.Json in
  Report.write_json ~name:"smoke"
    (Obj
       [ ("name", Str "smoke");
         ( "stacked_getpid_us",
           Arr (List.map (fun (_, _, g) -> Float g) off_rows) );
         ( "uninterested_getpid_us",
           Arr (List.map (fun (_, g) -> Float g) un_rows) );
         ("uninterested_alloc", alloc_json al);
         ( "codec_per_trap",
           Arr
             [ Obj
                 [ ("depth", Int 4); ("traps", Int a.at_iters);
                   ("decodes", Int a.at_codec.Envelope.Stats.decodes);
                   ("encodes", Int a.at_codec.Envelope.Stats.encodes);
                   ("crossings", Int a.at_codec.Envelope.Stats.crossings) ] ] );
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
                a.at_metrics.Obs.m_layers) );
         ( "attribution_checks",
           Arr
             [ Obj
                 [ ("depth", Int 4); ("layer_decodes", Int ld);
                   ("layer_encodes", Int le); ("self_us", Int self);
                   ("span_us", Int span); ("codec_ok", Bool codec_ok) ] ] );
         ( "sampling",
           sampling_json
             [ (1, us1, m1); (16, us16, m16);
               (let _, _, us, m =
                  List.find (fun (d, _, _, _) -> d = 4) sampled_rows
                in
                (256, us, m)) ] );
         ( "reap",
           Arr
             (List.map
                (fun (n, w) ->
                  Obj [ ("children", Int n); ("minor_words_per_wait", Float w) ])
                reap_rows) ) ]);
  let vfail s = fail "%s" s in
  Report.validate_file ~tag:"smoke" ~fail:vfail "BENCH_smoke.json"
    smoke_schema;
  Report.validate_file ~tag:"smoke" ~fail:vfail "BENCH_ablations.json"
    ablations_schema;
  match !failures with
  | [] -> Printf.printf "[smoke] all checks passed\n"
  | fs ->
    List.iter (fun f -> Printf.printf "[smoke] FAIL: %s\n" f) (List.rev fs);
    exit 1

(* --- fault campaigns (ablation 8 and the `make check` gate) ----------------- *)

(* Virtual cost of one injected-failed read, by differencing two
   otherwise identical sessions under the same plan (open+close only
   vs open+failed read+close). *)
let injected_cost_probe () =
  let session with_read =
    let agent =
      Agents.Faultinject.create_planned
        [ Agents.Faultinject.site ~kth:1 Sysno.sys_read
            (Agents.Faultinject.Fail Errno.EIO) ]
    in
    let k = fresh () in
    Kernel.write_file k ~path:"/tmp/f" "data";
    let _ =
      Kernel.boot k ~name:"fault-cost" (fun () ->
        Itoolkit.Loader.install agent ~argv:[||];
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

let faults () =
  Report.print_title
    "Ablation 8: deterministic fault campaigns (site x errno sweep)";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
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
      [ Fault.Campaign.scribe; Fault.Campaign.make ]
  in
  Report.print_table
    ~headers:
      [ "workload"; "runs"; "tolerated"; "wrong-result"; "hang"; "crash" ]
    (List.map
       (fun ((w : Fault.Campaign.workload), (_, cases)) ->
         let n = List.length cases in
         let t = outcome_count cases Fault.Oracle.Tolerated in
         let wr = outcome_count cases Fault.Oracle.Wrong_result in
         let h = outcome_count cases Fault.Oracle.Hang in
         let c = outcome_count cases Fault.Oracle.Crash in
         if t + wr + h + c <> n then
           fail "%s: %d of %d runs unclassified" w.Fault.Campaign.w_name
             (n - t - wr - h - c) n;
         if n < List.length errnos then
           fail "%s: sweep found only %d runs" w.Fault.Campaign.w_name n;
         [ w.Fault.Campaign.w_name; string_of_int n; string_of_int t;
           string_of_int wr; string_of_int h; string_of_int c ])
       results);
  List.iter
    (fun ((w : Fault.Campaign.workload), (_, cases)) ->
      List.iter
        (fun (c : Fault.Campaign.case) ->
          if c.c_run.Fault.Campaign.r_outcome <> Fault.Oracle.Tolerated then
            Printf.printf "  %s: %-30s %s (%s)\n" w.Fault.Campaign.w_name
              (Fault.Plan.describe_site c.c_site)
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
      let w = Fault.Campaign.scribe in
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
          (Fault.Plan.describe_site c.c_site)
          (Fault.Oracle.outcome_name outcome)
          desyncs;
      Obs.Json.(
        Obj
          [ ("workload", Str "scribe");
            ("site", Str (Fault.Plan.describe_site c.c_site));
            ("outcome", Str (Fault.Oracle.outcome_name outcome));
            ("replay_ok", Bool replay_ok);
            ("desyncs", Int desyncs) ])
  in
  (* 4. machine-readable companion, schema-validated on the spot *)
  let open Obs.Json in
  Report.write_json ~name:"faults"
    (Obj
       [ ("name", Str "faults");
         ("intercept_us", Int Cost_model.intercept_us);
         ("injected_failed_read_us", Float injected_us);
         ( "workloads",
           Arr
             (List.map
                (fun ((w : Fault.Campaign.workload), (_, cases)) ->
                  Obj
                    [ ("workload", Str w.Fault.Campaign.w_name);
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
                                     Str (Fault.Plan.describe_site c.c_site)
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
         ("repro", repro_json) ]);
  (let path = "BENCH_faults.json" in
   if not (Sys.file_exists path) then fail "%s: not written" path
   else
     Report.validate_file ~tag:"faults" ~fail:(fun s -> fail "%s" s) path
       faults_schema);
  Report.print_note
    "Deterministic campaigns: injection sites come from an obs-profiled\n\
     fault-free run, every site x errno run is classified by the\n\
     divergence oracles, and each failure ships a repro bundle that\n\
     replays byte-identically (DESIGN.md 3.5).";
  match !failures with
  | [] -> Printf.printf "[faults] all gates passed\n"
  | fs ->
    List.iter (fun f -> Printf.printf "[faults] FAIL: %s\n" f) (List.rev fs);
    exit 1

(* --- Bechamel wall-clock groups -------------------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let quick_session body =
    Staged.stage (fun () ->
      let k = fresh () in
      let _ = Kernel.boot k ~name:"bench" body in
      ())
  in
  let t31 =
    Test.make ~name:"table3.1/statement-count"
      (Staged.stage (fun () ->
         ignore (count_sources toolkit_full_sources)))
  in
  let t32 =
    Test.make ~name:"table3.2/scribe-quick-session"
      (Staged.stage (fun () ->
         let k = fresh () in
         Workloads.Scribe.setup ~params:Workloads.Scribe.quick_params k;
         let _ =
           Kernel.boot k ~name:"bench" (fun () ->
             Workloads.Scribe.body ~params:Workloads.Scribe.quick_params ())
         in
         ()))
  in
  let t33 =
    Test.make ~name:"table3.3/make-quick-session"
      (Staged.stage (fun () ->
         let k = fresh () in
         Workloads.Make_cc.setup ~params:Workloads.Make_cc.quick_params k;
         let _ =
           Kernel.boot k ~name:"bench" (fun () -> Workloads.Make_cc.body ())
         in
         ()))
  in
  let t34 =
    Test.make ~name:"table3.4/trap-roundtrip"
      (quick_session (fun () ->
         for _ = 1 to 64 do
           ignore (Libc.Unistd.getpid ())
         done;
         0))
  in
  let t35 =
    Test.make ~name:"table3.5/intercepted-trap"
      (quick_session (fun () ->
         Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
         for _ = 1 to 64 do
           ignore (Libc.Unistd.getpid ())
         done;
         0))
  in
  let tdfs =
    Test.make ~name:"dfstrace/afs-quick-under-agent"
      (Staged.stage (fun () ->
         let k = fresh () in
         Workloads.Afs_bench.setup ~params:Workloads.Afs_bench.quick_params k;
         let _ =
           Kernel.boot k ~name:"bench" (fun () ->
             Itoolkit.Loader.install (Agents.Dfs_trace.create ())
               ~argv:[| "log=/dfs.log" |];
             Workloads.Afs_bench.body ~params:Workloads.Afs_bench.quick_params ())
         in
         ()))
  in
  Test.make_grouped ~name:"interpose"
    [ t31; t32; t33; t34; t35; tdfs ]

let wallclock () =
  Report.print_title "Bechamel wall-clock benchmarks (one per table)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let instance = Bechamel.Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (bechamel_tests ()) in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (v :: _) -> Printf.sprintf "%.0f ns" v
        | Some [] | None -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  Report.print_table
    ~headers:[ "benchmark"; "wall time / run" ]
    (List.sort compare !rows)

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
  so_wall_s : float;
  so_status : int list;     (* per-shard init wait status *)
}

let scale_once n =
  let per = scale_total_procs / n in
  let c = Kernel.Cluster.create ~shards:n () in
  for i = 0 to n - 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let inits =
    List.init n (fun i ->
      Kernel.Cluster.boot_shard c i
        ~name:(Printf.sprintf "init%d" i)
        (scale_init i per))
  in
  let t0 = Unix.gettimeofday () in
  Kernel.Cluster.run c;
  let wall = Unix.gettimeofday () -. t0 in
  let shardl = List.init n (Kernel.Cluster.shard c) in
  { so_traps = List.map Kernel.total_syscalls shardl;
    so_virtual_us = List.map (fun k -> Sim.Clock.now_us (Kernel.clock k)) shardl;
    so_wall_s = wall;
    so_status =
      List.map (fun (p : Kernel.Proc.t) -> p.Kernel.Proc.exit_status) inits }

let scale_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str); ("total_procs", Int);
      ("stacked_getpid_us", Numbers 5);
      ( "runs",
        Arr
          (Obj
             [ ("shards", Int); ("wall_s", Num); ("traps", Int);
               ("traps_per_sec", Num); ("per_shard_traps", Ints);
               ("per_shard_virtual_us", Ints); ("balance_dev", Num);
               ("reproducible", Bool) ]) ) ]

let scale () =
  Report.print_title
    "Scale: deterministic shards (1/2/4/8), mixed traffic over 2048 procs";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 1-shard perf anchor: the de-globalized trap path must still sit on
     the recorded stacked-getpid baseline (same gate as `smoke`). *)
  let anchor =
    List.map
      (fun (d, expect) ->
        let got = stack_cost d in
        let drift =
          if expect > 0.0 then abs_float (got -. expect) /. expect else 0.0
        in
        if drift > 0.10 then
          fail "anchor depth %d: getpid %.0fus drifted >10%% from %.0fus" d
            got expect;
        got)
      smoke_baseline_us
  in
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
      [ "shards"; "procs"; "traps"; "traps/sec (wall)"; "balance dev";
        "reproducible" ]
    (List.map
       (fun (n, a, total, dev, repro) ->
         [ string_of_int n; string_of_int scale_total_procs;
           string_of_int total;
           Printf.sprintf "%.0f" (float_of_int total /. a.so_wall_s);
           Printf.sprintf "%.1f%%" (100. *. dev);
           (if repro then "yes" else "NO") ])
       runs);
  let open Obs.Json in
  Report.write_json ~name:"scale"
    (Obj
       [ ("name", Str "scale");
         ("total_procs", Int scale_total_procs);
         ("stacked_getpid_us", Arr (List.map (fun g -> Float g) anchor));
         ( "runs",
           Arr
             (List.map
                (fun (n, a, total, dev, repro) ->
                  Obj
                    [ ("shards", Int n);
                      ("wall_s", Float a.so_wall_s);
                      ("traps", Int total);
                      ( "traps_per_sec",
                        Float (float_of_int total /. a.so_wall_s) );
                      ( "per_shard_traps",
                        Arr (List.map (fun t -> Int t) a.so_traps) );
                      ( "per_shard_virtual_us",
                        Arr (List.map (fun t -> Int t) a.so_virtual_us) );
                      ("balance_dev", Float dev);
                      ("reproducible", Bool repro) ])
                runs) ) ]);
  (let path = "BENCH_scale.json" in
   if not (Sys.file_exists path) then fail "%s: not written" path
   else
     Report.validate_file ~tag:"scale" ~fail:(fun s -> fail "%s" s) path
       scale_schema);
  Report.print_note
    "Each shard is a kernel handle owning its clock, proc table, registry,\n\
     obs engine and counters (DESIGN.md 3.6); the cluster steps shards\n\
     round-robin over a shared virtual horizon, so the same seed gives\n\
     byte-identical per-shard clocks and trap counts every run.";
  match !failures with
  | [] -> Printf.printf "[scale] all gates passed\n"
  | fs ->
    List.iter (fun f -> Printf.printf "[scale] FAIL: %s\n" f) (List.rev fs);
    exit 1

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

let conformance () =
  Report.print_title
    "Ablation 9: syscall-signature conformance (machine-checked transparency)";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 1. the matrix: every declared stack must leave every workload's
        signature unchanged modulo its declared delta *)
  let workloads =
    [ Fault.Campaign.scribe; Fault.Campaign.make; Fault.Campaign.afs;
      Fault.Campaign.kvd ]
  in
  let stacks = Conformance.bare :: Conformance.stacks in
  let verdicts =
    List.concat_map
      (fun (w : Fault.Campaign.workload) ->
        (* bare is captured once per workload and shared as the baseline *)
        let baseline = Conformance.capture w Conformance.bare in
        if Conformance.Signature.length baseline.Conformance.cap_sig = 0 then
          fail "%s: bare run produced an empty signature"
            w.Fault.Campaign.w_name;
        (* kvd is concurrent: its global interleaving is scheduler
           state, so its cell compares per-process streams instead *)
        let scope =
          if w.Fault.Campaign.w_name = "kvd" then `Per_process else `Global
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
      workloads
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
  (* 2. fused-vs-generic differential: the host-speed dispatch machinery
        must be invisible at the system interface — every workload x
        stack cell captured under fused dispatch (the default above)
        and again with the generic walk, signatures byte-identical *)
  let diff_cells = ref 0 in
  List.iter
    (fun (w : Fault.Campaign.workload) ->
      List.iter
        (fun s ->
          let f = Conformance.capture ~fused:true w s in
          let g = Conformance.capture ~fused:false w s in
          incr diff_cells;
          if not (Conformance.Signature.equal f.Conformance.cap_sig
                    g.Conformance.cap_sig)
          then
            fail "%s under %s: fused and generic signatures differ"
              w.Fault.Campaign.w_name s.Conformance.sk_name;
          if f.Conformance.cap_status <> g.Conformance.cap_status then
            fail "%s under %s: fused exit %d vs generic %d"
              w.Fault.Campaign.w_name s.Conformance.sk_name
              f.Conformance.cap_status g.Conformance.cap_status)
        stacks)
    workloads;
  Printf.printf
    "fused/generic differential: %d cells byte-identical either way\n"
    !diff_cells;
  (* 3. the seeded mutation: an undeclared injection must be flagged,
        naming the first diverging call *)
  let mv = Conformance.check Fault.Campaign.scribe Conformance.mutant in
  (match mv.Conformance.c_violation with
   | None -> fail "undeclared mutant conformed: the checker is blind"
   | Some d ->
     Printf.printf "seeded mutation caught: %s\n"
       (Conformance.Signature.divergence_to_string d));
  (* 4. machine-readable companion, schema-validated on the spot *)
  let open Obs.Json in
  Report.write_json ~name:"conformance"
    (Obj
       [ ("name", Str "conformance");
         ( "matrix",
           Arr (List.map Conformance.verdict_to_json verdicts) );
         ("mutation", Conformance.verdict_to_json mv) ]);
  (let path = "BENCH_conformance.json" in
   if not (Sys.file_exists path) then fail "%s: not written" path
   else
     Report.validate_file ~tag:"conformance" ~fail:(fun s -> fail "%s" s)
       path conformance_schema);
  Report.print_note
    "Transparency is checked, not assumed: each workload runs bare and\n\
     under each stack, both syscall signatures are normalized by the\n\
     stack's declared delta, and any residual divergence fails the\n\
     build naming the first diverging call (DESIGN.md 3.7).";
  match !failures with
  | [] -> Printf.printf "[conformance] all gates passed\n"
  | fs ->
    List.iter
      (fun f -> Printf.printf "[conformance] FAIL: %s\n" f)
      (List.rev fs);
    exit 1

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

let netbench () =
  Report.print_title
    "Ablation 12: multi-client socket server under agent stacks (netbench)";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let params = Workloads.Kvd.default_params in
  let stacks =
    [ Conformance.bare; Conformance.trace; Conformance.crypt;
      Conformance.sandbox; Conformance.faultinject; Conformance.stacked ]
  in
  let cell (stack : Conformance.stack) mode =
    let k = Kernel.create () in
    Workloads.Kvd.setup k;
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
  let open Obs.Json in
  Report.write_json ~name:"net"
    (Obj
       [ ("name", Str "net");
         ("clients", Int params.Workloads.Kvd.clients);
         ("rows", cells_to_json cells);
         ("reproducible", Bool reproducible) ]);
  (let path = "BENCH_net.json" in
   if not (Sys.file_exists path) then fail "%s: not written" path
   else
     Report.validate_file ~tag:"netbench" ~fail:(fun s -> fail "%s" s) path
       net_schema);
  Report.print_note
    "1000 simulated clients per cell, fork-per-connection and prefork;\n\
     latency percentiles are per-request virtual round trips, so each\n\
     agent layer's decode/dispatch cost is visible in the tail, and the\n\
     whole matrix must be byte-reproducible run to run.";
  match !failures with
  | [] -> Printf.printf "[netbench] all gates passed\n"
  | fs ->
    List.iter (fun f -> Printf.printf "[netbench] FAIL: %s\n" f) (List.rev fs);
    exit 1

(* --- hostspeed: ns/trap harness (ablation 10, `make check` gate) --------------- *)

(* Host-side cost of the trap path itself, fused vs generic, measured
   with the wall clock (Unix.gettimeofday) and GC counters around a
   hot loop inside one booted session.  Virtual time is untouched by
   the mode — the smoke gates hold either way — so this is the one
   section where the *wall* numbers are the result. *)

let hostspeed_iters = 20_000
let hostspeed_rounds = 3

(* PR 3 recorded these minor-words-per-trap figures on the warm
   uninterested depth-4 boundary path (the [alloc_probe] methodology:
   bitmap short-circuit, wire pool warm) — with wires pooled but the
   envelope record around each wire still heap-allocated per trap.
   Envelope-record pooling must land below them on the same path. *)
let hostspeed_getpid_words_baseline = 63.0
let hostspeed_read_words_baseline = 111.0

type host_run = {
  hr_ns_per_trap : float;           (* best-of-N rounds *)
  hr_minor_words_per_trap : float;  (* over all rounds *)
  hr_promoted_words : float;
  hr_major_collections : int;
  hr_codec : Envelope.Stats.snapshot;
  hr_wire_pool : Value.Pool.Stats.snapshot;
  hr_env_pool : Envelope.Pool.Stats.snapshot;
}

(* One timed session: [depth] null symbolic agents, [prepare] builds
   the workload state, [iter] performs [tpi] traps per call.  The loop
   warms pools and chains first, then times [hostspeed_rounds] rounds
   of [hostspeed_iters] iterations and keeps the best round (ns/trap
   is a floor measurement: anything above the best is scheduler/GC
   noise, not trap-path cost). *)
let host_session ~fused ~depth ~tpi ~prepare ~iter =
  let k = Kernel.create ~fused () in
  Kernel.populate_standard k;
  let result = ref None in
  let status =
    Kernel.boot k ~name:"hostspeed" (fun () ->
      for _ = 1 to depth do
        Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      let st = prepare () in
      for _ = 1 to 64 do
        iter st
      done;
      let c0 = Kernel.codec_stats k in
      let w0 = Kernel.pool_stats k in
      let e0 = Kernel.env_pool_stats k in
      let q0 = Gc.quick_stat () in
      (* the live allocation pointer, not [quick_stat]'s lagging field *)
      let mw0 = Gc.minor_words () in
      let best = ref infinity in
      for _ = 1 to hostspeed_rounds do
        let t0 = Unix.gettimeofday () in
        for _ = 1 to hostspeed_iters do
          iter st
        done;
        let t1 = Unix.gettimeofday () in
        let ns = (t1 -. t0) *. 1e9 /. float_of_int (hostspeed_iters * tpi) in
        if ns < !best then best := ns
      done;
      let q1 = Gc.quick_stat () in
      let traps = hostspeed_rounds * hostspeed_iters * tpi in
      result :=
        Some
          { hr_ns_per_trap = !best;
            hr_minor_words_per_trap =
              (Gc.minor_words () -. mw0) /. float_of_int traps;
            hr_promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
            hr_major_collections =
              q1.Gc.major_collections - q0.Gc.major_collections;
            hr_codec = Envelope.Stats.diff c0 (Kernel.codec_stats k);
            hr_wire_pool = Value.Pool.Stats.diff w0 (Kernel.pool_stats k);
            hr_env_pool =
              Envelope.Pool.Stats.diff e0 (Kernel.env_pool_stats k) };
      0)
  in
  if status <> 0 then
    failwith (Printf.sprintf "hostspeed session exited %d" status);
  match !result with
  | Some r -> r
  | None -> failwith "hostspeed session lost its measurement"

let host_getpid ~fused depth =
  host_session ~fused ~depth ~tpi:1
    ~prepare:(fun () -> ())
    ~iter:(fun () -> ignore (Libc.Unistd.getpid ()))

(* Mixed descriptor traffic: rewind + 64-byte read + getpid, three
   traps per iteration, so the read path (wire with a buffer argument,
   decode at the first symbolic layer) is measured alongside the null
   trap. *)
let host_mixed_read ~fused depth =
  host_session ~fused ~depth ~tpi:3
    ~prepare:(fun () ->
      (match
         Libc.Unistd.open_ "/tmp/hostspeed"
           Flags.Open.(o_wronly lor o_creat lor o_trunc)
           0o644
       with
       | Ok fd ->
         ignore (Libc.Unistd.write fd (String.make 256 'h'));
         ignore (Libc.Unistd.close fd)
       | Error e -> failwith ("hostspeed setup: " ^ Errno.name e));
      match Libc.Unistd.open_ "/tmp/hostspeed" 0 0 with
      | Ok fd -> (fd, Bytes.create 64)
      | Error e -> failwith ("hostspeed open: " ^ Errno.name e))
    ~iter:(fun (fd, buf) ->
      ignore (Libc.Unistd.lseek fd 0 0);
      ignore (Libc.Unistd.read fd buf 64);
      ignore (Libc.Unistd.getpid ()))

(* Like-for-like with the PR 3 allocation probes: the uninterested
   depth-4 boundary path, pools warm, tracing off — the configuration
   the 63.0/111.0 baselines were recorded on.  Returns minor words per
   trap and the envelope-pool counter diff over the measured window
   (the proof the improvement is record recycling, not measurement
   drift). *)
let host_boundary_words ~tpi ~prepare ~iter =
  let iters = 2000 in
  let k = fresh () in
  let result = ref None in
  let status =
    Kernel.boot k ~name:"hostspeed-alloc" (fun () ->
      install_uninterested 4;
      let st = prepare () in
      for _ = 1 to 64 do
        iter st
      done;
      let e0 = Kernel.env_pool_stats k in
      let m0 = Gc.minor_words () in
      for _ = 1 to iters do
        iter st
      done;
      let m1 = Gc.minor_words () in
      result :=
        Some
          ( (m1 -. m0) /. float_of_int (iters * tpi),
            Envelope.Pool.Stats.diff e0 (Kernel.env_pool_stats k) );
      0)
  in
  if status <> 0 then
    failwith (Printf.sprintf "hostspeed alloc probe exited %d" status);
  match !result with
  | Some r -> r
  | None -> failwith "hostspeed alloc probe lost its measurement"

let host_boundary_getpid () =
  host_boundary_words ~tpi:1
    ~prepare:(fun () -> ())
    ~iter:(fun () -> ignore (Libc.Unistd.getpid ()))

(* rewind + 64-byte read: the descriptor-path counterpart (buffer
   argument on the wire, data copied back per trap) *)
let host_boundary_read () =
  host_boundary_words ~tpi:2
    ~prepare:(fun () ->
      (match
         Libc.Unistd.open_ "/tmp/hostspeed-alloc"
           Flags.Open.(o_wronly lor o_creat lor o_trunc)
           0o644
       with
       | Ok fd ->
         ignore (Libc.Unistd.write fd (String.make 256 'h'));
         ignore (Libc.Unistd.close fd)
       | Error e -> failwith ("hostspeed alloc setup: " ^ Errno.name e));
      match Libc.Unistd.open_ "/tmp/hostspeed-alloc" 0 0 with
      | Ok fd -> (fd, Bytes.create 64)
      | Error e -> failwith ("hostspeed alloc open: " ^ Errno.name e))
    ~iter:(fun (fd, buf) ->
      ignore (Libc.Unistd.lseek fd 0 0);
      ignore (Libc.Unistd.read fd buf 64))

let host_tps r = 1e9 /. r.hr_ns_per_trap

let host_case_json ~workload ~mode ~depth (r : host_run) =
  let open Obs.Json in
  Obj
    [ ("workload", Str workload);
      ("mode", Str mode);
      ("depth", Int depth);
      ("ns_per_trap", Float r.hr_ns_per_trap);
      ("traps_per_sec", Float (host_tps r));
      ("minor_words_per_trap", Float r.hr_minor_words_per_trap);
      ("promoted_words", Float r.hr_promoted_words);
      ("major_collections", Int r.hr_major_collections);
      ("fused", Int r.hr_codec.Envelope.Stats.fused);
      ("intercepted", Int r.hr_codec.Envelope.Stats.intercepted);
      ("fast_path", Int r.hr_codec.Envelope.Stats.fast_path);
      ("env_pool_hits", Int r.hr_env_pool.Envelope.Pool.Stats.hits);
      ("env_pool_misses", Int r.hr_env_pool.Envelope.Pool.Stats.misses);
      ("wire_pool_hits", Int r.hr_wire_pool.Value.Pool.Stats.hits) ]

let hostspeed_schema =
  let open Report.Schema in
  Obj
    [ ("name", Str); ("iters", Int); ("rounds", Int);
      ("speedup_depth4", Num);
      ( "boundary",
        Obj
          [ ("getpid_words_per_trap", Num); ("getpid_baseline", Num);
            ("read_words_per_trap", Num); ("read_baseline", Num);
            ("env_pool_hits", Int); ("env_pool_misses", Int) ] );
      ( "cases",
        Arr_nonempty
          (Obj
             [ ("workload", Str); ("mode", Str); ("depth", Int);
               ("ns_per_trap", Num); ("traps_per_sec", Num);
               ("minor_words_per_trap", Num); ("promoted_words", Num);
               ("major_collections", Int); ("fused", Int);
               ("intercepted", Int); ("fast_path", Int);
               ("env_pool_hits", Int); ("env_pool_misses", Int);
               ("wire_pool_hits", Int) ]) ) ]

let hostspeed () =
  Report.print_title
    "Ablation 10: host-speed trap dispatch (fused chains vs generic walk)";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let total = hostspeed_rounds * hostspeed_iters in
  (* counter proof, per measured case: fused mode never probes the
     generic vector; generic mode never uses a chain *)
  let check_counters ~what ~mode ~depth ~tpi (r : host_run) =
    let traps = total * tpi in
    let c = r.hr_codec in
    if c.Envelope.Stats.traps < traps then
      fail "%s %s d%d: %d traps in window, want >= %d" what mode depth
        c.Envelope.Stats.traps traps;
    match (mode, depth) with
    | "fused", 0 ->
      if c.Envelope.Stats.fast_path <> c.Envelope.Stats.traps then
        fail "%s fused d0: expected pure fast path" what
    | "fused", _ ->
      if c.Envelope.Stats.intercepted <> 0 then
        fail "%s fused d%d: generic vector probed %d times" what depth
          c.Envelope.Stats.intercepted;
      if c.Envelope.Stats.fused <> c.Envelope.Stats.traps then
        fail "%s fused d%d: only %d of %d traps chained" what depth
          c.Envelope.Stats.fused c.Envelope.Stats.traps
    | _, _ ->
      if c.Envelope.Stats.fused <> 0 then
        fail "%s generic d%d: %d traps used a chain" what depth
          c.Envelope.Stats.fused
  in
  (* stacked getpid, both modes, depths 0-4 *)
  let depths = [ 0; 1; 2; 3; 4 ] in
  let getpid_cases =
    List.concat_map
      (fun depth ->
        List.map
          (fun (mode, fused) ->
            let r = host_getpid ~fused depth in
            check_counters ~what:"getpid" ~mode ~depth ~tpi:1 r;
            (mode, depth, r))
          [ ("generic", false); ("fused", true) ])
      depths
  in
  let find mode depth =
    let (_, _, r) =
      List.find (fun (m, d, _) -> m = mode && d = depth) getpid_cases
    in
    r
  in
  Report.print_table
    ~headers:
      [ "stacked null agents"; "generic ns/trap"; "fused ns/trap";
        "speedup"; "fused minor words/trap" ]
    (List.map
       (fun d ->
         let g = find "generic" d and f = find "fused" d in
         [ string_of_int d;
           Printf.sprintf "%.0f" g.hr_ns_per_trap;
           Printf.sprintf "%.0f" f.hr_ns_per_trap;
           Printf.sprintf "%.2fx" (g.hr_ns_per_trap /. f.hr_ns_per_trap);
           Printf.sprintf "%.1f" f.hr_minor_words_per_trap ])
       depths);
  (* mixed read at depth 4, both modes *)
  let mixed_cases =
    List.map
      (fun (mode, fused) ->
        let r = host_mixed_read ~fused 4 in
        check_counters ~what:"mixed_read" ~mode ~depth:4 ~tpi:3 r;
        (mode, 4, r))
      [ ("generic", false); ("fused", true) ]
  in
  let mixed mode =
    let (_, _, r) = List.find (fun (m, _, _) -> m = mode) mixed_cases in
    r
  in
  Report.print_table
    ~headers:
      [ "mixed read+getpid (depth 4)"; "ns/trap"; "traps/sec";
        "minor words/trap" ]
    (List.map
       (fun mode ->
         let r = mixed mode in
         [ mode;
           Printf.sprintf "%.0f" r.hr_ns_per_trap;
           Printf.sprintf "%.0f" (host_tps r);
           Printf.sprintf "%.1f" r.hr_minor_words_per_trap ])
       [ "generic"; "fused" ]);
  (* gates: fused must beat generic at depth 4 (hard), with a 20%
     advisory target; envelope pooling must land below the PR 3
     allocation baselines *)
  let g4 = find "generic" 4 and f4 = find "fused" 4 in
  let speedup = g4.hr_ns_per_trap /. f4.hr_ns_per_trap in
  if host_tps f4 < host_tps g4 then
    fail "depth 4: fused %.0f traps/sec slower than generic %.0f"
      (host_tps f4) (host_tps g4);
  Printf.printf
    "depth-4 stacked getpid: generic %.0f ns/trap, fused %.0f ns/trap \
     (%.2fx, target >= 1.20x %s)\n"
    g4.hr_ns_per_trap f4.hr_ns_per_trap speedup
    (if speedup >= 1.20 then "met" else "MISSED (advisory)");
  (* interested path: the chained dispatch (pooled envelopes included)
     must allocate less than the generic walk over the same workload *)
  if f4.hr_minor_words_per_trap >= g4.hr_minor_words_per_trap then
    fail "depth 4 getpid: fused %.1f words/trap not below generic %.1f"
      f4.hr_minor_words_per_trap g4.hr_minor_words_per_trap;
  let fm = mixed "fused" and gm = mixed "generic" in
  if fm.hr_minor_words_per_trap >= gm.hr_minor_words_per_trap then
    fail "mixed read: fused %.1f words/trap not below generic %.1f"
      fm.hr_minor_words_per_trap gm.hr_minor_words_per_trap;
  Printf.printf
    "interested allocation: getpid d4 fused %.1f vs generic %.1f \
     words/trap, mixed read fused %.1f vs generic %.1f\n"
    f4.hr_minor_words_per_trap g4.hr_minor_words_per_trap
    fm.hr_minor_words_per_trap gm.hr_minor_words_per_trap;
  (* boundary path, the PR 3 configuration: envelope-record pooling
     must push minor words/trap below the wires-only baselines *)
  let bg_words, bg_pool = host_boundary_getpid () in
  let br_words, br_pool = host_boundary_read () in
  if bg_words >= hostspeed_getpid_words_baseline then
    fail "boundary getpid: %.1f words/trap not below the PR 3 %.1f"
      bg_words hostspeed_getpid_words_baseline;
  if br_words >= hostspeed_read_words_baseline then
    fail "boundary read: %.1f words/trap not below the PR 3 %.1f"
      br_words hostspeed_read_words_baseline;
  if bg_pool.Envelope.Pool.Stats.misses > 0 then
    fail "boundary getpid: %d envelope-pool misses on a warm loop"
      bg_pool.Envelope.Pool.Stats.misses;
  Printf.printf
    "boundary allocation: getpid %.1f words/trap (PR 3: %.0f), \
     lseek+read %.1f (PR 3: %.0f); env pool %d hits / %d misses\n"
    bg_words hostspeed_getpid_words_baseline br_words
    hostspeed_read_words_baseline
    (bg_pool.Envelope.Pool.Stats.hits + br_pool.Envelope.Pool.Stats.hits)
    (bg_pool.Envelope.Pool.Stats.misses + br_pool.Envelope.Pool.Stats.misses);
  (* machine-readable companion, schema-validated on the spot *)
  let open Obs.Json in
  Report.write_json ~name:"hostspeed"
    (Obj
       [ ("name", Str "hostspeed");
         ("iters", Int hostspeed_iters);
         ("rounds", Int hostspeed_rounds);
         ("speedup_depth4", Float speedup);
         ( "boundary",
           Obj
             [ ("getpid_words_per_trap", Float bg_words);
               ("getpid_baseline", Float hostspeed_getpid_words_baseline);
               ("read_words_per_trap", Float br_words);
               ("read_baseline", Float hostspeed_read_words_baseline);
               ( "env_pool_hits",
                 Int
                   (bg_pool.Envelope.Pool.Stats.hits
                   + br_pool.Envelope.Pool.Stats.hits) );
               ( "env_pool_misses",
                 Int
                   (bg_pool.Envelope.Pool.Stats.misses
                   + br_pool.Envelope.Pool.Stats.misses) ) ] );
         ( "cases",
           Arr
             (List.map
                (fun (mode, depth, r) ->
                  host_case_json ~workload:"stacked_getpid" ~mode ~depth r)
                getpid_cases
              @ List.map
                  (fun (mode, depth, r) ->
                    host_case_json ~workload:"mixed_read" ~mode ~depth r)
                  mixed_cases) ) ]);
  (let path = "BENCH_hostspeed.json" in
   if not (Sys.file_exists path) then fail "%s: not written" path
   else
     Report.validate_file ~tag:"hostspeed" ~fail:(fun s -> fail "%s" s)
       path hostspeed_schema);
  Report.print_note
    "Fused chains pre-link each (pid, sysno) handler stack into direct\n\
     closure calls and charge CPU inline when no scheduling point is\n\
     due, so an interested trap costs no option probes and usually no\n\
     effect performs; the counters above prove the generic vector is\n\
     never touched in fused mode (DESIGN.md 3.8).";
  match !failures with
  | [] -> Printf.printf "[hostspeed] all gates passed\n"
  | fs ->
    List.iter (fun f -> Printf.printf "[hostspeed] FAIL: %s\n" f) (List.rev fs);
    exit 1

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
  cz_lost : int;
  cz_polls : int;
  cz_watchdogs : Obs.Json.t;            (* metrics_json "watchdogs" block *)
}

let causal_msg i = Printf.sprintf "child %d reporting in\n" i

let causal_once () =
  Obs.reset ();
  let k = fresh () in
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
  let streamed = ref 0 and lost = ref 0 and polls = ref 0 in
  Kernel.set_trace_hook k ~cost_us:0
    (Some
       (fun _ _ _ ->
         incr polls;
         let fresh, l = Obs.poll cursor in
         streamed := !streamed + List.length fresh;
         lost := !lost + l));
  let status =
    Kernel.boot k ~name:"causal" (fun () ->
      for _ = 1 to 4 do
        Itoolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
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
  let final_fresh, final_lost = Obs.poll_of (Kernel.obs_engine k) cursor in
  let edges = Kernel.drain_causal k in
  let records = Kernel.drain_obs k in
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
    cz_streamed = !streamed + List.length final_fresh;
    cz_lost = !lost + final_lost;
    cz_polls = !polls;
    cz_watchdogs = watchdogs }

(* Cross-shard: a 2-shard ring where each init mails SIGUSR1 to the
   other; the receiving shard records the Signal edge with the
   sender's (shard, span) origin. *)
let causal_cluster_once () =
  Obs.reset ();
  let c = Kernel.Cluster.create ~shards:2 () in
  for i = 0 to 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
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
  Kernel.Cluster.drain_causal c

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

let causal () =
  Report.print_title
    "Causal: cross-process event graph, flame folds, live stream, watchdogs";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
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
  let render es = List.map Obs.Causal.to_line es in
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
  let chrome =
    Obs.Chrome.to_string ~name:Sysno.name ~edges:a.cz_edges a.cz_records
  in
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
  (* 5. the live stream saw every record exactly once *)
  let drained = List.length a.cz_records in
  let stream_ok = a.cz_streamed = drained && a.cz_lost = 0 in
  if not stream_ok then
    fail "stream: %d streamed + %d lost vs %d drained" a.cz_streamed
      a.cz_lost drained;
  Printf.printf "stream: %d poll(s) delivered %d/%d record(s), %d lost\n"
    a.cz_polls a.cz_streamed drained a.cz_lost;
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
  (* 8. machine-readable companion + the full seven-document sweep
        through the one shared validator *)
  let open Obs.Json in
  Report.write_json ~name:"causal"
    (Obj
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
           Obj [ ("rules", Int wd_rules); ("tripped", Int wd_tripped) ] ) ]);
  let vfail s = fail "%s" s in
  List.iter
    (fun (path, schema) ->
      Report.validate_file ~tag:"causal" ~fail:vfail path schema)
    [ ("BENCH_causal.json", causal_schema);
      ("BENCH_smoke.json", smoke_schema);
      ("BENCH_ablations.json", ablations_schema);
      ("BENCH_faults.json", faults_schema);
      ("BENCH_scale.json", scale_schema);
      ("BENCH_conformance.json", conformance_schema);
      ("BENCH_net.json", net_schema);
      ("BENCH_hostspeed.json", hostspeed_schema) ];
  Report.print_note
    "Causal edges are events of record (exact at any sampling rate,\n\
     zero virtual cost): fork edges resolve at the child's first trap,\n\
     signal edges at delivery (kill-originated, incl. cross-shard\n\
     mail), pipe edges by byte-offset watermark (DESIGN.md 3.9).";
  match !failures with
  | [] -> Printf.printf "[causal] all gates passed\n"
  | fs ->
    List.iter (fun f -> Printf.printf "[causal] FAIL: %s\n" f) (List.rev fs);
    exit 1

(* --- driver -------------------------------------------------------------------------------- *)

let sections =
  [ "table3.1", table3_1;
    "table3.2", table3_2;
    "table3.3", table3_3;
    "table3.4", table3_4;
    "table3.5", table3_5;
    "dfstrace", dfstrace;
    "ablations", ablations;
    "faults", faults;
    "conformance", conformance;
    "netbench", netbench;
    "smoke", smoke;
    "scale", scale;
    "hostspeed", hostspeed;
    "causal", causal;
    "wallclock", wallclock ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) ->
      (* accept --smoke style spellings for CI convenience *)
      List.map
        (fun n ->
          let n' = ref n in
          while String.length !n' > 0 && !n'.[0] = '-' do
            n' := String.sub !n' 1 (String.length !n' - 1)
          done;
          !n')
        names
    | _ ->
      (* `smoke`, `scale`, `hostspeed`, `causal` and `netbench` are CI
         guards, not reports: only on request *)
      List.filter
        (fun n ->
          n <> "smoke" && n <> "scale" && n <> "hostspeed" && n <> "causal"
          && n <> "netbench")
        (List.map fst sections)
  in
  Printf.printf
    "Interposition Agents (Jones, SOSP '93) -- benchmark reproduction\n";
  Printf.printf
    "virtual time: deterministic, cost model calibrated to the paper\n";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown section %S (have: %s)\n" name
          (String.concat ", " (List.map fst sections)))
    requested
