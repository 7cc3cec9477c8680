(* agentrun: boot a simulated 4.3BSD machine and run a program under a
   (possibly stacked) list of interposition agents.

     agentrun -a trace -- ls -l /etc
     agentrun -a timex:86400 -- sh -c "echo hi | wc"
     agentrun --setup make-split -a union:/proj=/objdir:/srcdir -- make
     agentrun -a sandbox:emulate -a syscount -- rm /etc/motd

   Agents are installed left to right: the last one listed is the one
   closest to the application (sees its calls first). *)

open Abi

let log_err fmt = Printf.eprintf fmt

module Agent_table = Conformance.Agent_table

let agent_usage =
  String.concat ", " (List.map (fun r -> r.Agent_table.usage) Agent_table.rows)

(* --- filesystem setups -------------------------------------------------- *)

let demo k =
  Kernel.mkdir_p k "/home/user";
  Kernel.write_file k ~path:"/home/user/hello.txt" "hello from the inside\n";
  Kernel.mkdir_p k "/vault";
  Kernel.mkdir_p k "/arch"

(* The session's tree: the utilities, the demo files, then each named
   workload's paper-size setup, in order.  Names are checked before any
   kernel exists. *)
let session_setup names =
  let setups =
    List.map
      (fun name ->
        match Workloads.Table.(find paper) name with
        | Some w -> w.Workloads.Table.w_setup
        | None ->
          log_err "agentrun: unknown setup %S\n" name;
          exit 2)
      names
  in
  fun k ->
    Workloads.Progs.install_all k;
    demo k;
    List.iter (fun setup -> setup k) setups

(* --- the run ---------------------------------------------------------------- *)

let resolve_prog name =
  if String.contains name '/' then name else "/bin/" ^ name

let read_host_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_host_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* --- observability reporting ----------------------------------------------- *)

(* Host-side baselines taken when the kernel is created: process CPU
   time and GC counters.  Both are process-wide, so the per-trap
   figures derived from them are estimates, exact when one kernel
   dominates the process, as it does here. *)
type host_t0 = {
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let host_start () =
  let q = Gc.quick_stat () in
  { cpu_s = Sys.time ();
    (* [Gc.minor_words] reads the live allocation pointer;
       [quick_stat]'s field lags until the next minor collection *)
    minor_words = Gc.minor_words ();
    promoted_words = q.Gc.promoted_words;
    major_collections = q.Gc.major_collections }

(* process CPU since kernel creation *)
let host_cpu_s h0 = Sys.time () -. h0.cpu_s

let print_metrics k h0 =
  let m = Kernel.metrics k in
  let n = m.Obs.m_sample_n in
  Printf.eprintf
    "[obs] %d span(s) completed, %d aborted (exit/exec), %d record(s) \
     dropped from the ring\n"
    m.Obs.m_spans m.Obs.m_aborted m.Obs.m_dropped;
  if m.Obs.m_injected > 0 then
    Printf.eprintf "[obs] %d fault(s) injected by agents\n" m.Obs.m_injected;
  if n > 1 then
    Printf.eprintf
      "[obs] sampling 1-in-%d: calls/errors are exact; histogram, \
       percentile and per-layer figures cover the sampled subset \
       (multiply counts by %d for estimates)\n"
      n n;
  (* p50/p90/p99 are upper-bucket-bound estimates from the log2
     histograms: the true quantile is <= the printed value, within its
     power-of-two bucket *)
  if m.Obs.m_syscalls <> [] then begin
    Printf.eprintf "[obs] per-syscall:  %-14s %8s %7s %10s %7s %7s %7s %8s\n"
      "name" "calls" "errors" "mean us" "p50" "p90" "p99" "max us";
    List.iter
      (fun (s : Obs.syscall_metrics) ->
        Printf.eprintf
          "                    %-14s %8d %7d %10.1f %7d %7d %7d %8d\n"
          (Call.name s.Obs.sm_sysno) s.Obs.sm_calls s.Obs.sm_errors
          (Obs.Hist.mean_us s.Obs.sm_hist)
          (Obs.Hist.quantile s.Obs.sm_hist 0.50)
          (Obs.Hist.quantile s.Obs.sm_hist 0.90)
          (Obs.Hist.quantile s.Obs.sm_hist 0.99)
          (Obs.Hist.max_us s.Obs.sm_hist))
      m.Obs.m_syscalls
  end;
  if m.Obs.m_layers <> [] then begin
    Printf.eprintf
      "[obs] per-layer:    %5s %-14s %8s %8s %8s %8s %10s %7s %7s %7s\n"
      "depth" "layer" "traps" "decodes" "encodes" "rewrite" "self us"
      "p50" "p90" "p99";
    List.iter
      (fun (l : Obs.layer_metrics) ->
        Printf.eprintf
          "                    %5d %-14s %8d %8d %8d %8d %10d %7d %7d %7d\n"
          l.Obs.lm_depth l.Obs.lm_layer l.Obs.lm_traps l.Obs.lm_decodes
          l.Obs.lm_encodes l.Obs.lm_rewrites l.Obs.lm_self_us
          (Obs.Hist.quantile l.Obs.lm_hist 0.50)
          (Obs.Hist.quantile l.Obs.lm_hist 0.90)
          (Obs.Hist.quantile l.Obs.lm_hist 0.99))
      m.Obs.m_layers
  end;
  (* host-side cost of the run: wall-clock and GC figures, the one
     deliberately non-deterministic block (everything above is virtual
     time and exact counts) *)
  let traps = (Kernel.codec_stats k).Obs.Codec.traps in
  if traps > 0 then begin
    let q = Gc.quick_stat () in
    let cpu = host_cpu_s h0 in
    let per n = n /. float_of_int traps in
    let ep = Kernel.env_pool_stats k in
    let taken = ep.Obs.Env_pool.hits + ep.Obs.Env_pool.misses in
    Printf.eprintf
      "[host] %d trap(s) in %.3fs host CPU: %.0f ns/trap, %.1f minor \
       words/trap, %.0f promoted, %d major GC(s); env pool %.0f%% hit\n"
      traps cpu (per (cpu *. 1e9))
      (per (Gc.minor_words () -. h0.minor_words))
      (q.Gc.promoted_words -. h0.promoted_words)
      (q.Gc.major_collections - h0.major_collections)
      (if taken = 0 then 100.
       else 100. *. float_of_int ep.Obs.Env_pool.hits
            /. float_of_int taken)
  end

(* --- fault campaigns --------------------------------------------------------- *)

let bundle_path dir workload i (o : Fault.Oracle.outcome) =
  Filename.concat dir
    (Printf.sprintf "repro-%s-%02d-%s.fault" workload i
       (Fault.Oracle.outcome_name o))

let run_campaign wname out_dir =
  match Workloads.Table.(find quick) wname with
  | None ->
    log_err "agentrun: --campaign: unknown workload %S (known: %s)\n" wname
      (String.concat ", "
         (List.map (fun w -> w.Workloads.Table.w_name) Workloads.Table.quick));
    2
  | Some w ->
    let baseline, cases = Fault.Campaign.sweep w in
    Printf.printf
      "[campaign] %s: baseline fault-free run ok, %d candidate site(s) \
       discovered\n"
      wname
      (List.length
         (Fault.Campaign.sites_from_profile
            baseline.Fault.Campaign.b_profile
            ~errnos:Fault.Campaign.default_errnos)
      / List.length Fault.Campaign.default_errnos);
    Printf.printf "[campaign] %-34s %-12s %s\n" "site" "outcome" "detail";
    let tally = Hashtbl.create 4 in
    let failing = ref [] in
    List.iteri
      (fun i (c : Fault.Campaign.case) ->
        let o = c.c_run.Fault.Campaign.r_outcome in
        Hashtbl.replace tally o
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally o));
        if o <> Fault.Oracle.Tolerated then failing := (i, c) :: !failing;
        Printf.printf "[campaign] %-34s %-12s %s\n"
          (Fault.Plan.to_spec [ c.c_site ])
          (Fault.Oracle.outcome_name o)
          c.c_run.Fault.Campaign.r_detail)
      cases;
    let count o = Option.value ~default:0 (Hashtbl.find_opt tally o) in
    Printf.printf
      "[campaign] %d run(s): %d tolerated, %d wrong-result, %d hang, %d \
       crash\n"
      (List.length cases)
      (count Fault.Oracle.Tolerated)
      (count Fault.Oracle.Wrong_result)
      (count Fault.Oracle.Hang) (count Fault.Oracle.Crash);
    if !failing <> [] && not (Sys.file_exists out_dir) then
      (try Sys.mkdir out_dir 0o755 with
       | Sys_error msg -> log_err "agentrun: --campaign-out: %s\n" msg);
    let write_errors = ref 0 in
    List.iter
      (fun (i, (c : Fault.Campaign.case)) ->
        let b =
          Fault.Bundle.of_run ~workload:wname c.c_run
        in
        let path =
          bundle_path out_dir wname i c.c_run.Fault.Campaign.r_outcome
        in
        match write_host_file path (Fault.Bundle.to_string b) with
        | () ->
          Printf.printf "[campaign] repro bundle: %s (replay with --repro)\n"
            path
        | exception Sys_error msg ->
          incr write_errors;
          log_err "agentrun: --campaign-out: %s\n" msg)
      (List.rev !failing);
    if !write_errors > 0 then 1 else 0

let run_repro path =
  let text =
    try Some (read_host_file path) with
    | Sys_error msg ->
      log_err "agentrun: --repro: %s\n" msg;
      None
  in
  match text with
  | None -> 2
  | Some text ->
    (match Fault.Bundle.of_string text with
     | Error msg ->
       log_err "agentrun: --repro: %s\n" msg;
       2
     | Ok b ->
       Printf.printf "[repro] %s: %s under plan:\n" b.Fault.Bundle.b_workload
         (Fault.Oracle.outcome_name b.Fault.Bundle.b_outcome);
       List.iter
         (fun s -> Printf.printf "[repro]   %s\n" (Fault.Plan.to_spec [ s ]))
         b.Fault.Bundle.b_sites;
       (match Fault.Bundle.replay b with
        | Error msg ->
          log_err "agentrun: --repro: %s\n" msg;
          2
        | Ok r ->
          (match Fault.Bundle.verify b r with
           | Ok () ->
             Printf.printf
               "[repro] reproduced: %s (%s), outputs byte-identical to the \
                recorded run\n"
               (Fault.Oracle.outcome_name r.Fault.Campaign.r_outcome)
               r.Fault.Campaign.r_detail;
             0
           | Error msg ->
             log_err "agentrun: --repro: NOT reproduced: %s\n" msg;
             1)))

(* --- conformance ------------------------------------------------------------- *)

(* the exit code of the spawned program [path], as a shell gives it *)
let exit_code path = function
  | Ok st when Flags.Wait.wifexited st -> Flags.Wait.wexitstatus st
  | Ok st when Flags.Wait.wifsignaled st ->
    ignore
      (Libc.Unistd.write 2
         (Printf.sprintf "agentrun: program killed by %s\n"
            (Signal.name (Flags.Wait.wtermsig st))));
    128 + Flags.Wait.wtermsig st
  | Ok _ -> 126
  | Error e ->
    ignore
      (Libc.Unistd.write 2
         (Printf.sprintf "agentrun: %s: %s\n" path (Errno.message e)));
    127

(* Differential transparency check: run the program bare and again
   under the named stack, and require the two syscall signatures to
   agree modulo the stack's declared delta. *)
let run_conform spec setups prog_args =
  match prog_args with
  | [] ->
    log_err "agentrun: --conform: no program given\n";
    2
  | prog :: _ ->
    (match Conformance.of_spec spec with
     | Error msg ->
       log_err "agentrun: --conform: %s\n" msg;
       2
     | Ok stack ->
       let path = resolve_prog prog in
       let argv = Array.of_list prog_args in
       let w =
         { Workloads.Table.w_name = prog;
           w_setup = session_setup setups;
           w_body = (fun () -> exit_code path (Libc.Spawn.run path argv));
           w_output = "" }
       in
       let v = Conformance.check w stack in
       print_endline (Conformance.verdict_to_string v);
       if Conformance.conforms v then 0 else 1)

let run agents setups stats feed record replay metrics trace_out trace_format
    sample sample_seed flame follow watch campaign campaign_out
    repro signature conform prog_args =
  match prog_args with
  | _ when repro <> "" -> run_repro repro
  | _ when campaign <> "" -> run_campaign campaign campaign_out
  | _ when conform <> "" -> run_conform conform setups prog_args
  | [] ->
    log_err "agentrun: no program given\n";
    2
  | _ when trace_format <> "jsonl" && trace_format <> "chrome" ->
    log_err "agentrun: --trace-format must be jsonl or chrome (got %S)\n"
      trace_format;
    2
  | prog :: _ ->
    (* watchdog rules parse before anything boots: a bad file is a
       usage error, not a mid-run surprise *)
    let watch_rules =
      if watch = "" then []
      else
        let text =
          try read_host_file watch with
          | Sys_error msg ->
            log_err "agentrun: --watch: %s\n" msg;
            exit 2
        in
        match Obs.Watch.of_spec ~sysno:Call.of_name text with
        | Ok rules -> rules
        | Error msg ->
          log_err "agentrun: --watch: %s\n" msg;
          exit 2
    in
    let built =
      List.map
        (fun spec ->
          match Agent_table.of_spec spec with
          | Ok b -> b
          | Error msg ->
            log_err "agentrun: %s (known: %s)\n" msg agent_usage;
            exit 2)
        agents
    in
    let observing =
      metrics || trace_out <> "" || flame <> "" || follow || watch <> ""
    in
    if observing then begin
      Obs.reset ();
      Obs.set_sampling ~seed:sample_seed sample;
      Obs.enable ()
    end;
    let setup = session_setup setups in
    let h0 = host_start () in
    let k = Workloads.Table.prepare setup in
    if feed <> "" then Kernel.feed_console k (feed ^ "\n");
    Kernel.echo_console_to k print_string;
    if watch_rules <> [] then Kernel.set_watch k watch_rules;
    (* Live streaming and pid labelling piggyback on the kernel trace
       hook at zero virtual cost: per retired syscall we remember the
       caller's image name (processes are reaped from the table before
       the post-run export runs) and, under --follow, drain the
       incremental cursor to stderr as JSONL. *)
    let pid_names : (int, string) Hashtbl.t = Hashtbl.create 16 in
    let follow_cursor = Obs.Stream.cursor () in
    let follow_flush () =
      let fresh, lost = Obs.poll follow_cursor in
      if lost > 0 then Printf.eprintf "# lost %d\n" lost;
      List.iter (fun r -> Printf.eprintf "%s\n" (Obs.Span.to_line r)) fresh
    in
    let want_labels = trace_out <> "" && trace_format = "chrome" in
    if follow || want_labels then
      Kernel.set_trace_hook k ~cost_us:0
        (Some
           (fun p _ _ ->
             Hashtbl.replace pid_names p.Kernel.Proc.pid p.Kernel.Proc.name;
             if follow then follow_flush ()));
    let pid_label pid =
      match Hashtbl.find_opt pid_names pid with
      | Some name -> Printf.sprintf "pid %d %s" pid name
      | None -> Kernel.pid_label k pid
    in
    (* --record / --replay wrap the whole stack *)
    let recorder =
      if record <> "" then Some (Agents.Record_replay.create_recorder ())
      else None
    in
    (* each installer installs its agent in the session and returns
       the agent's report *)
    let install a = Toolkit.Loader.install a ~argv:[||] in
    let installers =
      (match replay with
       | "" -> []
       | path ->
         let journal =
           try read_host_file path with
           | Sys_error msg ->
             log_err "agentrun: --replay: %s\n" msg;
             exit 2
         in
         let replayer = Agents.Record_replay.create_replayer ~journal in
         [ (fun () ->
             install replayer;
             fun () ->
               if replayer#desyncs > 0 then
                 ignore
                   (Libc.Unistd.write 2
                      (Printf.sprintf "replay: %d desync(s)\n"
                         replayer#desyncs))) ])
      @ (match recorder with
         | Some r -> [ (fun () -> install r; ignore) ]
         | None -> [])
      @ List.map
          (fun b () ->
            let a, report = Agent_table.start b in
            install a;
            report)
          built
    in
    let path = resolve_prog prog in
    let argv = Array.of_list prog_args in
    let captured = ref Conformance.Signature.empty in
    let status =
      Kernel.boot k ~name:"agentrun" (fun () ->
        match List.map (fun i -> i ()) installers with
        | exception Libc.Unistd.Unix_error (e, what) ->
          ignore
            (Libc.Unistd.write 2
               (Printf.sprintf "agentrun: %s: %s\n" what (Errno.message e)));
          2
        | reports ->
        (* the signature covers exactly the program's own calls: armed
           after agent installation, disarmed before agent reports *)
        let spawn () = Libc.Spawn.run path argv in
        let spawned =
          if signature = "" then spawn ()
          else begin
            let r, s = Kernel.with_signature k spawn in
            captured := s;
            r
          end
        in
        let code = exit_code path spawned in
        (* reports must be emitted inside the session, before exit *)
        List.iter (fun report -> report ()) reports;
        code)
    in
    (match recorder with
     | Some r ->
       (try write_host_file record r#journal with
        | Sys_error msg -> log_err "agentrun: --record: %s\n" msg);
       if stats then
         Printf.eprintf "[agentrun] recorded %d journal entries to %s\n"
           r#entries record
     | None -> ());
    if signature <> "" then begin
      let s = !captured in
      (try
         write_host_file signature (Conformance.Signature.to_string s ^ "\n")
       with
       | Sys_error msg -> log_err "agentrun: --signature: %s\n" msg);
      if stats then
        Printf.eprintf "[agentrun] wrote %d-call signature to %s\n"
          (Conformance.Signature.length s)
          signature
    end;
    if observing then begin
      Obs.disable ();
      (* the hook only fires on retired syscalls, so records pushed
         after the last one still need a final flush — before the
         drain below empties the ring *)
      if follow then follow_flush ();
      if trace_out <> "" || flame <> "" then begin
        let records = Kernel.drain_obs k in
        if trace_out <> "" then begin
          let rendered =
            match trace_format with
            | "chrome" ->
              (* one trace_event JSON array — loads directly in
                 chrome://tracing and Perfetto; causal fork/signal/pipe
                 edge records render as flow arrows between span
                 slices *)
              Obs.Chrome.to_string ~name:Call.name ~pid_label records
              ^ "\n"
            | _ ->
              String.concat ""
                (List.map (fun r -> Obs.Span.to_line r ^ "\n") records)
          in
          (try write_host_file trace_out rendered with
           | Sys_error msg -> log_err "agentrun: --trace-out: %s\n" msg);
          if stats then
            Printf.eprintf "[agentrun] wrote %d span record(s) to %s (%s)\n"
              (List.length records) trace_out trace_format
        end;
        if flame <> "" then begin
          let segments =
            List.filter_map
              (function Obs.Span.Segment s -> Some s | _ -> None)
              records
          in
          let folds = Obs.Flame.fold segments in
          (try write_host_file flame (Obs.Flame.to_string ~name:Call.name folds)
           with
           | Sys_error msg -> log_err "agentrun: --flame: %s\n" msg);
          if stats then
            Printf.eprintf
              "[agentrun] wrote %d flame stack(s) (virtual-weighted) to %s\n"
              (List.length folds) flame
        end
      end;
      if metrics then print_metrics k h0
    end;
    (* watchdog verdicts come last: a trip turns an otherwise clean
       exit into failure, so CI gates can watch exit codes alone *)
    let tripped =
      if watch = "" then []
      else begin
        let vs = Kernel.watch_verdicts k in
        List.iter
          (fun (v : Obs.Watch.verdict) ->
            Printf.eprintf "[watch] %-20s %s: value %g bound %g — %s\n"
              v.Obs.Watch.wr_rule.Obs.Watch.w_name
              (Obs.Watch.pred_to_string v.Obs.Watch.wr_rule)
              v.Obs.Watch.wr_value v.Obs.Watch.wr_bound
              (if v.Obs.Watch.wr_tripped then "TRIPPED" else "ok"))
          vs;
        Obs.Watch.tripped vs
      end
    in
    if stats then
      Printf.eprintf
        "[agentrun] virtual time %.3fs, %d syscalls, exit status 0x%x\n"
        (Kernel.elapsed_seconds k)
        (Kernel.total_syscalls k)
        status;
    let code =
      if Flags.Wait.wifexited status then Flags.Wait.wexitstatus status
      else 128
    in
    if code = 0 && tripped <> [] then begin
      Printf.eprintf "agentrun: %d watchdog rule(s) tripped\n"
        (List.length tripped);
      1
    end
    else code

(* --- cmdliner ------------------------------------------------------------------- *)

open Cmdliner

let agents_arg =
  let doc =
    "Interpose this agent (repeatable; stacked in order, last is \
     closest to the application).  Known agents: " ^ agent_usage
  in
  Arg.(value & opt_all string [] & info [ "a"; "agent" ] ~docv:"AGENT" ~doc)

let setup_arg =
  let doc =
    Printf.sprintf
      "Populate the filesystem for a workload before running (%s; \
       repeatable)."
      (String.concat ", "
         (List.map (fun w -> w.Workloads.Table.w_name) Workloads.Table.paper))
  in
  Arg.(value & opt_all string [] & info [ "setup" ] ~docv:"WORKLOAD" ~doc)

let stats_arg =
  let doc = "Print virtual-time and syscall statistics at the end." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let feed_arg =
  let doc = "Feed this line to the simulated console's input queue." in
  Arg.(value & opt string "" & info [ "feed" ] ~docv:"TEXT" ~doc)

let record_arg =
  let doc =
    "Record the program's input system calls into a journal file \
     (host path) for later --replay."
  in
  Arg.(value & opt string "" & info [ "record" ] ~docv:"FILE" ~doc)

let replay_arg =
  let doc =
    "Replay input system calls from a journal recorded with --record; \
     the program re-observes the original run's inputs."
  in
  Arg.(value & opt string "" & info [ "replay" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Enable the observability engine and print aggregated per-syscall \
     and per-layer metrics (virtual-time latency histograms, codec \
     attribution) at the end."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_out_arg =
  let doc =
    "Enable the observability engine and drain the flight recorder to \
     this host file after the run (format set by --trace-format)."
  in
  Arg.(value & opt string "" & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Format for --trace-out: 'jsonl' (one span record per line) or \
     'chrome' (a trace_event JSON array that loads directly in \
     chrome://tracing or Perfetto)."
  in
  Arg.(value & opt string "jsonl" & info [ "trace-format" ] ~docv:"FMT" ~doc)

let sample_arg =
  let doc =
    "Keep 1 in N spans (default 1 = every span).  Per-syscall \
     call/error counts stay exact; histograms, percentiles, per-layer \
     attribution and the flight-recorder ring cover only the sampled \
     subset (metrics record the rate as sample_n)."
  in
  Arg.(value & opt int 1 & info [ "sample" ] ~docv:"N" ~doc)

let sample_seed_arg =
  let doc =
    "Seed for the deterministic sampling decision stream; the same \
     seed (and workload) reproduces the same kept spans."
  in
  Arg.(value & opt int 0 & info [ "sample-seed" ] ~docv:"SEED" ~doc)

let flame_arg =
  let doc =
    "Enable the observability engine and write a collapsed-stack \
     flamegraph profile (one 'frames... weight' line per distinct \
     syscall × layer-path stack) to this host file after the run; \
     feed it to any flamegraph renderer."
  in
  Arg.(value & opt string "" & info [ "flame" ] ~docv:"FILE" ~doc)

let follow_arg =
  let doc =
    "Enable the observability engine and stream flight-recorder \
     records to stderr as JSONL while the program runs (an \
     incremental cursor: each record once, overwritten records \
     reported as '# lost N')."
  in
  Arg.(value & flag & info [ "follow" ] ~doc)

let watch_arg =
  let doc =
    "Evaluate watchdog rules from this file against the run's metrics \
     (one rule per line: NAME = error_rate(SYS|*) <= F, p99_us(SYS|*) \
     <= N, aborts <= N, or env_pool_misses <= N).  Verdicts print to \
     stderr; any tripped rule turns an otherwise clean exit into \
     exit 1."
  in
  Arg.(value & opt string "" & info [ "watch" ] ~docv:"FILE" ~doc)

let campaign_arg =
  let doc =
    "Run a deterministic fault-injection campaign over this workload \
     (scribe, make, afs, kvd) instead of a program: discover injection \
     sites from an obs-profiled fault-free run, sweep sites × errnos, \
     classify every run (tolerated / wrong-result / hang / crash) \
     against divergence oracles, and write a repro bundle for every \
     failure."
  in
  Arg.(value & opt string "" & info [ "campaign" ] ~docv:"WORKLOAD" ~doc)

let campaign_out_arg =
  let doc = "Directory for the repro bundles a campaign emits." in
  Arg.(value & opt string "." & info [ "campaign-out" ] ~docv:"DIR" ~doc)

let repro_arg =
  let doc =
    "Replay a repro bundle written by --campaign and verify the \
     recorded failure reproduces byte-identically (exit 0 when it \
     does, 1 when it diverges)."
  in
  Arg.(value & opt string "" & info [ "repro" ] ~docv:"FILE" ~doc)

let signature_arg =
  let doc =
    "Capture the program's syscall signature (ordered calls with arg \
     shapes and outcomes, the unit of conformance checking) and write \
     it as JSON to this host file."
  in
  Arg.(value & opt string "" & info [ "signature" ] ~docv:"FILE" ~doc)

let conform_arg =
  let doc =
    "Differential transparency check: run the program bare and again \
     under this agent stack (a comma-separated list of stack names: "
    ^ String.concat ", "
        (List.map (fun s -> s.Conformance.sk_name) Conformance.all_stacks)
    ^ "), then require the syscall signatures to agree modulo the \
       stack's declared delta.  Exits 0 when conformant, 1 on a \
       violation (printing the first diverging call)."
  in
  Arg.(value & opt string "" & info [ "conform" ] ~docv:"STACK" ~doc)

let prog_arg =
  let doc = "Program and its arguments (searched in /bin)." in
  Arg.(value & pos_all string [] & info [] ~docv:"PROG" ~doc)

let cmd =
  let doc = "run programs on a simulated 4.3BSD under interposition agents" in
  let man =
    [ `S Manpage.s_description;
      `P
        "agentrun boots an in-memory 4.3BSD-style kernel (with /bin \
         utilities, a make+cc toolchain and a scribe formatter \
         available), installs the requested interposition agents built \
         with the toolkit from the SOSP '93 paper, and execs the given \
         program under them.";
      `S Manpage.s_examples;
      `Pre
        "  agentrun -a trace -- ls -l /etc\n\
        \  agentrun --setup make-split -a union:/proj=/objdir:/srcdir --stats -- make\n\
        \  agentrun -a sandbox:emulate -a syscount -- rm /etc/motd\n\
        \  agentrun -a faultinject:read#3=fail:EIO --setup scribe -- scribe ...\n\
        \  agentrun --setup kvd -a trace --stats -- kvd prefork 32\n\
        \  agentrun --campaign kvd --campaign-out /tmp/bundles\n\
        \  agentrun --campaign scribe --campaign-out /tmp/bundles\n\
        \  agentrun --repro /tmp/bundles/repro-scribe-04-wrong-result.fault" ]
  in
  Cmd.v
    (Cmd.info "agentrun" ~version:"1.0" ~doc ~man)
    Term.(
      const run $ agents_arg $ setup_arg $ stats_arg $ feed_arg
      $ record_arg $ replay_arg $ metrics_arg $ trace_out_arg
      $ trace_format_arg $ sample_arg $ sample_seed_arg $ flame_arg
      $ follow_arg $ watch_arg $ campaign_arg
      $ campaign_out_arg $ repro_arg $ signature_arg $ conform_arg
      $ prog_arg)

let () = exit (Cmd.eval' cmd)
