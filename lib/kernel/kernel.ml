module Dev = Dev
module Events = Events
module File = File
module Kstate = Kstate
module Proc = Proc
module Registry = Registry
module Syscalls = Syscalls
module Uspace = Uspace

open Abi

type t = Kstate.t

module Log = Kstate.Log

(* --- fibre plumbing ------------------------------------------------------ *)

(* Deliver a trap's result, already in the process's [res], at a trap
   boundary: collect the signals to deliver with it, and honour a
   pending terminal signal or stop.  The fibre is in its [fibre] field. *)
let finish_reply (t : t) (proc : Proc.t) =
  proc.deliver <- Kstate.collect_deliverable t proc;
  match Kstate.pending_terminal proc with
  | `Kill (s, status) ->
    Kstate.exit_by_signal t proc s status;
    Kstate.discard_fibre t proc
  | `Stop s ->
    Kstate.clear_pending proc s;
    proc.state <- Proc.Stopped;
    (match Kstate.proc t proc.ppid with
     | Some parent ->
       Kstate.post_signal t parent Signal.sigchld;
       Kstate.wakeup t (File.Wchan.children parent.pid)
     | None -> ())
  | `None -> Kstate.enqueue t proc

let start_exec (t : t) (proc : Proc.t) (spec : Events.exec_spec) =
  (* the exec trap's span(s) can never be closed by the code that
     opened them — the old fibre is abandoned *)
  Obs.abort_pid proc.pid;
  if not spec.keep_emulation then proc.emul <- Proc.fresh_emulation ();
  Kstate.spawn t proc spec.exec_body

(* The scheduler's half of a [Park]: sleep the process on each wait
   channel its condition names.  A sleep or a sigsuspend names none: the
   timer wheel or a signal wakes it. *)
let park (t : t) (proc : Proc.t) =
  match proc.state with
  | Proc.Parked (Proc.On_chan chan) -> Kstate.sleep_on t chan proc
  | Proc.Parked (Proc.On_chans chans) ->
    List.iter (fun chan -> Kstate.sleep_on t chan proc) chans
  | Proc.Parked (Proc.On_time _ | Proc.On_signal _)
  | Proc.Runnable | Proc.Stopped | Proc.Zombie | Proc.Reaped -> ()

(* The handlers of the payload-free yields, each built once.  A handler
   finds the shard through the ambient cell and the yielding process
   through its [cur] (the fibre that performs is the one the scheduler
   resumed), leaves the fibre in the process's fibre slot and then does
   [f], with no current process, as kernel code runs.  So a perform
   allocates only its continuation. *)
let yield_handler f =
  Some
    (fun k ->
      let t = Kstate.Ambient.get_exn () in
      match t.cur with
      | Some proc ->
        t.cur <- None;
        proc.fibre <- k;
        f t proc
      | None -> invalid_arg "yield outside a process")

let on_reply = yield_handler finish_reply

let on_yield = yield_handler Kstate.enqueue

let on_park = yield_handler park

let on_abandon = yield_handler Kstate.discard_fibre

(* A CPU charge is a signal-check point; a stop there is deferred to
   the next trap. *)
let on_cpu =
  yield_handler (fun t proc ->
    let deliver = Kstate.collect_deliverable t proc in
    match Kstate.pending_terminal proc with
    | `Kill (s, status) ->
      Kstate.exit_by_signal t proc s status;
      Kstate.discard_fibre t proc
    | `Stop _ | `None ->
      proc.deliver <- deliver;
      Kstate.enqueue t proc)

(* --- the fibre root ------------------------------------------------------- *)

let run_fiber (t : t) (proc : Proc.t) (body : unit -> int) =
  let open Effect.Deep in
  (* crt0 semantics: a body that returns exits via the exit system
     call, so interposition agents observe every termination; the
     [retc] below is only a backstop should an agent swallow it *)
  let body () =
    let code = body () in
    ignore (Uspace.syscall (Abi.Call.Exit code));
    code
  in
  (* a discarded fibre only finishes: its process has exited already,
     or runs a new image that must not be exited for the old one (the
     unwind cannot return normally: the crt0 exit below needs a
     current process) *)
  t.fibres <- t.fibres + 1;
  match_with body ()
    { retc =
        (fun status ->
          t.fibres <- t.fibres - 1;
          Kstate.do_exit t proc (Flags.Wait.exit_status status));
      exnc =
        (fun e ->
          t.fibres <- t.fibres - 1;
          match e with
          | Events.Process_killed -> ()
          | e when t.unwinding ->
            Log.warn (fun m ->
              m "pid %d (%s): exception while unwinding an abandoned fibre: %s"
                proc.pid proc.name (Printexc.to_string e))
          | Events.Process_exit code ->
            Kstate.do_exit t proc (Flags.Wait.exit_status code)
          | e ->
            Log.warn (fun m ->
              m "pid %d (%s): uncaught exception %s" proc.pid proc.name
                (Printexc.to_string e));
            Kstate.do_exit t proc (Flags.Wait.sig_status Signal.sigabrt));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Kstate.Reply -> on_reply
          | Events.Cpu -> on_cpu
          | Events.Yield -> on_yield
          | Kstate.Park -> on_park
          | Kstate.Abandon -> on_abandon
          | Events.Exec_load spec ->
            Some (fun k ->
              t.cur <- None;
              start_exec t proc spec;
              Kstate.discard t k)
          | _ -> None) }

(* The one way a fibre runs: a runnable process's turn in the run
   queue resumes its fibre or enters its [start]; any other process has
   its fibre discarded. *)
let run_turn (t : t) (proc : Proc.t) =
  let k = proc.fibre in
  match proc.state, proc.start with
  | Proc.Runnable, _ when k != Proc.no_fibre ->
    proc.fibre <- Proc.no_fibre;
    t.cur <- proc.me;
    Effect.Deep.continue k ();
    t.cur <- None
  | Proc.Runnable, Some body ->
    proc.start <- None;
    t.cur <- proc.me;
    run_fiber t proc body;
    t.cur <- None
  | _ -> Kstate.discard_fibre t proc

(* --- the scheduler --------------------------------------------------------- *)

(* A timed wait ends with [res] as its result. *)
let time_out (t : t) (proc : Proc.t) res =
  Kstate.unsleep t proc;
  proc.state <- Proc.Runnable;
  proc.res <- res;
  finish_reply t proc

let fire_timer (t : t) (ev : Kstate.timer_event) =
  match ev with
  | Kstate.T_alarm pid ->
    (match Kstate.proc t pid with
     | Some proc -> Kstate.post_signal t proc Signal.sigalrm
     | None -> ())
  | Kstate.T_wake pid ->
    (match Kstate.proc t pid with
     | Some ({ state = Proc.Parked (Proc.On_time _); _ } as proc)
       ->
       time_out t proc (Value.ret 0)
     | Some _ | None -> ())
  | Kstate.T_select pid ->
    (match Kstate.proc t pid with
     | Some ({ state = Proc.Parked (Proc.On_chans _); _ } as proc)
       ->
       (* timeout: no descriptors ready *)
       time_out t proc (Value.ret 0 ~r1:0)
     | Some _ | None -> ())

let kill_stragglers (t : t) =
  let stragglers =
    List.filter
      (fun (p : Proc.t) ->
        match p.state with
        | Proc.Parked _ | Proc.Stopped -> true
        | Proc.Runnable | Proc.Zombie | Proc.Reaped -> false)
      (Kstate.live_procs t)
  in
  List.iter
    (fun (p : Proc.t) ->
      Log.warn (fun m ->
        m "deadlock: killing pid %d (%s)" p.pid p.name);
      t.deadlock_kills <- t.deadlock_kills + 1;
      Kstate.do_exit t p (Flags.Wait.sig_status Signal.sigkill);
      Kstate.discard_fibre t p)
    stragglers;
  stragglers <> []

(* Bounded scheduling: run every runnable fibre and fire every timer
   with deadline ≤ [until], then report why the shard stopped.  The
   classic free-running scheduler is [step ~until:max_int] in a loop;
   a [Cluster] uses finite horizons to keep sibling shards' virtual
   clocks within one quantum of each other. *)
let rec step (t : t) ~until =
  (* timers whose deadline virtual time has already passed fire at
     every scheduling point, so runnable (even spinning) processes
     cannot starve them *)
  match t.timers with
  | (at, ev) :: rest when at <= Sim.Clock.now_us t.clock ->
    t.timers <- rest;
    fire_timer t ev;
    step t ~until
  | timers ->
    match Kstate.dequeue t with
    | Some proc ->
      t.round_trips <- t.round_trips + 1;
      run_turn t proc;
      step t ~until
    | None ->
      match timers with
      | (at, ev) :: rest when at <= until ->
        t.timers <- rest;
        Sim.Clock.advance_to t.clock at;
        fire_timer t ev;
        step t ~until
      | (at, _) :: _ -> `Sleep_until at
      | [] -> `Idle

let rec sched_loop (t : t) =
  match step t ~until:max_int with
  | `Sleep_until _ -> assert false (* an unbounded step consumes every timer *)
  | `Idle ->
    if kill_stragglers t then sched_loop t
    else
      (* idle: no call holds a chunk any more, and none outlives the
         run *)
      Kstate.release_chunks t

(* --- entering a shard --------------------------------------------------------- *)

(* Install [t] as the shard the handle-less code paths reach: its obs
   engine (codec and pool counters included) for obs and abi code, the
   shard itself, with its running process, for the kernel and
   everything above.  The moral equivalent of loading a CPU's task
   register. *)
let enter (t : t) =
  Obs.install t.obs;
  Kstate.Ambient.current := Some t

(* Enter [t] for the duration of [f], restoring whatever was installed
   before (exception-safe).  The cluster driver round-robins shards
   with this. *)
let with_shard (t : t) f =
  let prev_obs = Obs.installed () in
  let prev_amb = !Kstate.Ambient.current in
  enter t;
  Fun.protect
    ~finally:(fun () ->
      Obs.install prev_obs;
      Kstate.Ambient.current := prev_amb)
    f

let current_exn = Kstate.Ambient.get_exn

(* --- creation and boot ------------------------------------------------------ *)

let create_shard shard_id =
  let t = Kstate.create ~shard_id in
  (* give this shard's observability engine this shard's clock and
     current-process context; they live and die with the handle *)
  Obs.with_engine t.obs (fun () ->
    Obs.set_clock (fun () -> Sim.Clock.now_us t.clock);
    Obs.set_context (fun () ->
        match t.cur with Some p -> p.Proc.pid | None -> 0);
    (* causal edge endpoints carry the shard id — span ids are unique
       only per engine (DESIGN.md §3.9) *)
    Obs.set_shard t.shard_id);
  (* a fresh kernel becomes the current shard, so the established
     create-configure-boot sequences keep addressing it *)
  enter t;
  t

let create () = create_shard 0

let open_tty_fds (t : t) (proc : Proc.t) =
  match Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:proc.cwd "/dev/tty" with
  | Error _ -> ()
  | Ok inode ->
    let mkfd flags =
      let file = Kstate.new_file t (File.Vnode inode) ~flags in
      ignore (Kstate.install_fd t proc file)
    in
    mkfd Flags.Open.o_rdonly;
    mkfd Flags.Open.o_wronly;
    mkfd Flags.Open.o_wronly

(* Register and enqueue a session's init process without scheduling
   anything yet; [boot] runs it to completion, a cluster enqueues one
   per shard and drives them all. *)
let spawn_init (t : t) ~name body =
  let pid = Kstate.alloc_pid t in
  let proc =
    Proc.create ~pid ~ppid:0 ~pgrp:pid ~name
      ~cred:Vfs.Fs.root_cred ~cwd:(Vfs.Fs.root_ino t.fs)
  in
  Kstate.add_proc t proc;
  open_tty_fds t proc;
  Kstate.spawn t proc body;
  proc

let boot (t : t) ~name body =
  enter t;
  let proc = spawn_init t ~name body in
  sched_loop t;
  proc.Proc.exit_status

(* --- host-side filesystem helpers -------------------------------------------- *)

let fs (t : t) = t.fs
let clock (t : t) = t.clock

let mkdir_p (t : t) path =
  let comps = List.filter (fun s -> s <> "") (String.split_on_char '/' path) in
  let root = Vfs.Fs.root_ino t.fs in
  ignore
    (List.fold_left
       (fun prefix comp ->
         let dir = prefix ^ "/" ^ comp in
         (match
            Vfs.Fs.mkdir t.fs Vfs.Fs.root_cred ~cwd:root dir ~perm:0o755
          with
          | Ok _ | Error Errno.EEXIST -> ()
          | Error e ->
            invalid_arg
              (Printf.sprintf "mkdir_p %s: %s" dir (Errno.name e)));
         dir)
       "" comps)

let write_file (t : t) ~path ?(perm = 0o644) content =
  mkdir_p t (Filename.dirname path);
  let root = Vfs.Fs.root_ino t.fs in
  match
    Vfs.Fs.open_lookup t.fs Vfs.Fs.root_cred ~cwd:root path
      ~flags:Flags.Open.(o_wronly lor o_creat lor o_trunc)
      ~perm
  with
  | Error e ->
    invalid_arg (Printf.sprintf "write_file %s: %s" path (Errno.name e))
  | Ok (inode, _) ->
    (match inode.Vfs.Inode.kind with
     | Vfs.Inode.Reg data ->
       ignore (Vfs.Filedata.write data ~pos:0 content);
       inode.Vfs.Inode.perm <- perm
     | _ -> invalid_arg "write_file: not a regular file")

let read_file (t : t) path =
  let root = Vfs.Fs.root_ino t.fs in
  match Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:root path with
  | Error _ -> None
  | Ok inode ->
    (match inode.Vfs.Inode.kind with
     | Vfs.Inode.Reg data -> Some (Vfs.Filedata.to_string data)
     | _ -> None)

let exists (t : t) path =
  let root = Vfs.Fs.root_ino t.fs in
  Result.is_ok (Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:root path)

let install_image (t : t) ~path ~image =
  write_file t ~path ~perm:0o755 (Registry.file_content image)

let populate_standard (t : t) =
  let root = Vfs.Fs.root_ino t.fs in
  mkdir_p t "/dev";
  mkdir_p t "/tmp";
  mkdir_p t "/bin";
  mkdir_p t "/usr/bin";
  mkdir_p t "/etc";
  mkdir_p t "/home";
  (match Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:root "/tmp" with
   | Ok inode -> inode.Vfs.Inode.perm <- 0o1777
   | Error _ -> ());
  let dev path rdev =
    match
      Vfs.Fs.mkchardev t.fs Vfs.Fs.root_cred ~cwd:root path ~perm:0o666 ~rdev
    with
    | Ok _ | Error Errno.EEXIST -> ()
    | Error e ->
      invalid_arg (Printf.sprintf "mknod %s: %s" path (Errno.name e))
  in
  dev "/dev/null" Dev.rdev_null;
  dev "/dev/zero" Dev.rdev_zero;
  dev "/dev/tty" Dev.rdev_tty;
  dev "/dev/console" Dev.rdev_console;
  write_file t ~path:"/etc/motd"
    "4.3 BSD UNIX (simulated) -- interposition agents welcome\n"

(* --- console and misc --------------------------------------------------------- *)

let console_output (t : t) = Dev.Console.contents t.console
let feed_console (t : t) s = Dev.Console.feed t.console s
let echo_console_to (t : t) f = Dev.Console.set_echo t.console f

let elapsed_seconds (t : t) = Sim.Clock.seconds t.clock
let total_syscalls (t : t) = (Obs.codec_of t.obs).Obs.Codec.traps
let deadlock_kills (t : t) = t.deadlock_kills
let shard_id (t : t) = t.shard_id

let registry (t : t) = t.registry
let register_image (t : t) name image = Registry.register t.registry name image

(* Arm a fresh recorder for the extent of [f]; a recorder armed
   outside is restored afterwards, and this one's events are lost when
   [f] raises. *)
let with_signature (t : t) f =
  let prev = t.signature in
  let r = Abi.Signature.recorder () in
  t.signature <- Some r;
  match f () with
  | v ->
    t.signature <- prev;
    (v, Abi.Signature.recorded r)
  | exception e ->
    t.signature <- prev;
    raise e

let codec_stats (t : t) = Obs.codec_of t.obs
let env_pool_stats (t : t) = Obs.env_pool_of t.obs

let metrics (t : t) = Obs.metrics_of t.obs

(* --- watchdogs ---------------------------------------------------------------- *)

(* Rules live on the shard handle (never the obs engine), so they
   survive [Obs.reset] between workload phases and each shard of a
   cluster can carry its own set.  Evaluation adapts the metrics
   snapshot into the plain rows [Obs.Watch.eval] consumes — obs stays
   below the kernel and below abi. *)
let set_watch (t : t) rules = t.watch <- rules

let eval_watch rules (m : Obs.metrics) =
  Obs.Watch.eval rules
    { Obs.Watch.wi_sys =
        List.map
          (fun (s : Obs.syscall_metrics) ->
            { Obs.Watch.ws_sysno = s.Obs.sm_sysno;
              ws_calls = s.Obs.sm_calls;
              ws_errors = s.Obs.sm_errors;
              ws_p99_us = Obs.Hist.quantile s.Obs.sm_hist 0.99 })
          m.Obs.m_syscalls;
      wi_aborted = m.Obs.m_aborted;
      wi_env_pool_misses = m.Obs.m_env_pool.Obs.Env_pool.misses }

let watch_verdicts (t : t) = eval_watch t.watch (Obs.metrics_of t.obs)

(* One document for every runtime statistic of one shard: span/latency
   metrics from its [Obs] engine, its codec (incl. [fast_path] and
   [intercepted]) and envelope-pool counters, and its watchdogs.
   [/obs/metrics] serves exactly this JSON, so programs inside the
   simulation and hosts outside it read the same numbers, and every
   byte is a function of simulation state. *)
let metrics_json (t : t) =
  let m = Obs.metrics_of t.obs in
  let watchdogs = Obs.Watch.verdicts_to_json (eval_watch t.watch m) in
  match Obs.metrics_to_json ~name:Abi.Call.name m with
  | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("watchdogs", watchdogs) ])
  | other -> other

let drain_obs (t : t) = Obs.drain_of t.obs
let obs_engine (t : t) = t.obs

(* A human label for chrome's process rows: the image (or init-body)
   name when the pid is still in the table, the bare pid otherwise
   (exited processes keep their spans). *)
let pid_label (t : t) pid =
  match Kstate.proc t pid with
  | Some p -> Printf.sprintf "pid %d %s" pid p.Proc.name
  | None -> Printf.sprintf "pid %d" pid

let set_trace_hook = Kstate.set_trace_hook

(* --- deterministic multi-shard driver ----------------------------------------- *)

(* N single-domain shards with independent virtual clocks, stepped
   round-robin in shard-id order over fixed virtual-time quanta.
   Cross-shard events (signals, for now) are mailed with a (virtual
   send time, sender shard, sequence) stamp and delivered at quantum
   boundaries sorted by exactly that triple — a deterministic function
   of simulation state alone, so an N-shard run is byte-reproducible
   (DESIGN.md §3.6). *)
module Cluster = struct
  (* Besides the delivery payload, a signal mail carries its causal
     origin — (shard, span, pid) of the sender at [send] time — which
     the receiving shard's post files as the signal's half-edge
     (DESIGN.md §3.9).  Its span is 0 when the sender had no sampled
     span open; edge recording keeps it verbatim. *)
  type event =
    | Post_signal of { pid : int; signal : int; origin : int * int * int }

  type mail = {
    m_ts : int;   (* sender's virtual clock at send *)
    m_src : int;  (* sender shard id: the deterministic tie-break *)
    m_seq : int;  (* per-cluster sequence: total order within (ts, src) *)
    m_dst : int;
    m_ev : event;
  }

  type nonrec t = {
    shards : t array;
    mutable mailbox : mail list;
    mutable seq : int;
  }

  let default_quantum_us = 50_000

  (* Runs in the sending fibre of [src], its engine installed: the
     origin stamp is the sender's innermost open span. *)
  let post c (src : Kstate.t) ~dst ~pid ~signal =
    if dst < 0 || dst >= Array.length c.shards then
      invalid_arg "Cluster.send: no such shard";
    let origin = Obs.causal_origin (Obs.current_pid ()) in
    c.seq <- c.seq + 1;
    c.mailbox <-
      { m_ts = Sim.Clock.now_us src.Kstate.clock;
        m_src = src.Kstate.shard_id;
        m_seq = c.seq;
        m_dst = dst;
        m_ev = Post_signal { pid; signal; origin } }
      :: c.mailbox

  let create ~shards:n () =
    if n < 1 then invalid_arg "Cluster.create: need at least one shard";
    let c = { shards = Array.init n create_shard; mailbox = []; seq = 0 } in
    Array.iter
      (fun (t : Kstate.t) -> t.send <- post c t)
      c.shards;
    c

  let shard c i = c.shards.(i)

  let boot_shard c i ~name body =
    let t = c.shards.(i) in
    with_shard t (fun () -> spawn_init t ~name body)

  let send ~dst ~pid ~signal = (current_exn ()).send ~dst ~pid ~signal

  let deliver c horizon =
    let due, later =
      List.partition (fun m -> m.m_ts <= horizon) c.mailbox
    in
    c.mailbox <- later;
    match due with
    | [] -> false
    | due ->
      let due =
        List.sort
          (fun a b ->
            compare (a.m_ts, a.m_src, a.m_seq) (b.m_ts, b.m_src, b.m_seq))
          due
      in
      List.iter
        (fun m ->
          let dst = c.shards.(m.m_dst) in
          with_shard dst (fun () ->
            match m.m_ev with
            | Post_signal { pid; signal; origin } ->
              (* posted under the *receiving* shard's engine: delivery
                 in uspace completes the half-edge exactly as a local
                 kill's *)
              match Kstate.proc dst pid with
              | Some proc -> Kstate.post_signal ~origin dst proc signal
              | None -> ()))
        due;
      true

  let run c =
    let n = Array.length c.shards in
    (* Run every shard up to [horizon], re-delivering any mail that
       lands inside the window, until the whole cluster is quiescent at
       this horizon.  Returns the earliest future wake-up. *)
    let rec drain_horizon horizon =
      let next = ref max_int in
      for i = 0 to n - 1 do
        let t = c.shards.(i) in
        with_shard t (fun () ->
          match step t ~until:horizon with
          | `Sleep_until at -> if at < !next then next := at
          | `Idle -> ())
      done;
      if deliver c horizon then drain_horizon horizon
      else begin
        List.iter (fun m -> if m.m_ts < !next then next := m.m_ts) c.mailbox;
        !next
      end
    in
    let rec rounds horizon =
      let next = drain_horizon horizon in
      if next < max_int then
        (* jump idle gaps, but never retreat: each new horizon is at
           least a quantum past the old one *)
        rounds (max next (horizon + default_quantum_us))
    in
    rounds default_quantum_us;
    (* quiescent everywhere: give each shard its straggler pass
       (deadlocked processes are killed exactly as under [boot]) *)
    Array.iter (fun t -> with_shard t (fun () -> sched_loop t)) c.shards

  let drain_obs c =
    List.concat_map (fun s -> Obs.drain_of s.Kstate.obs) (Array.to_list c.shards)
end
