open Abi

type timer_event =
  | T_wake of int
  | T_alarm of int
  | T_select of int

type outcome =
  | Done of Value.res
  | Block of Proc.cond
  | Exited
  | Exec of Events.exec_spec

(* One failed outcome per errno, built once and never written (see the
   interface for why sharing is safe). *)
let fail = Errno.tabulate (fun e -> Done (Error e))

type _ Effect.t +=
  | Reply : unit Effect.t
  | Park : unit Effect.t
  | Abandon : unit Effect.t

type runq = {
  mutable ring : Proc.t option array;
  mutable head : int;
  mutable len : int;
}

type t = {
  shard_id : int;
  clock : Sim.Clock.t;
  fs : Vfs.Fs.t;
  console : Dev.Console.t;
  devs : Dev.table;
  procs : (int, Proc.t) Hashtbl.t;
  runq : runq;
  waitqs : (File.Wchan.t, Proc.t list ref) Hashtbl.t;
  bindings : (string, File.sock) Hashtbl.t;
  registry : Registry.t;
  obs : Obs.engine;
  mutable cur : Proc.t option;
  mutable timers : (int * timer_event) list;
  mutable next_pid : int;
  mutable next_file_id : int;
  mutable next_ring_id : int;
  mutable next_listener_id : int;
  mutable tod_offset_us : int;
  mutable send : dst:int -> pid:int -> signal:int -> unit;
  mutable trace_hook : (Proc.t -> Call.t -> Value.res -> unit) option;
  mutable trace_hook_cost_us : int;
  mutable signature : Signature.recorder option;
  mutable deadlock_kills : int;
  mutable round_trips : int;
  mutable fibres : int;
  mutable unwinding : bool;
  mutable watch : Obs.Watch.rule list;
  mutable chunks : Bytes.t array;
  mutable chunks_free : int;
  mutable chunk_drops : int;
}

let chunk_size = 4096
let chunk_capacity = 8

let log_src = Logs.Src.create "kernel" ~doc:"simulated kernel"
module Log = (val Logs.src_log log_src : Logs.LOG)

let create ~shard_id =
  let clock = Sim.Clock.create () in
  let fs = Vfs.Fs.create ~now:(fun () -> Sim.Clock.now_us clock / 1_000_000) () in
  let console = Dev.Console.create () in
  { shard_id; clock; fs; console;
    devs = Dev.standard_table console;
    procs = Hashtbl.create 32;
    runq = { ring = Array.make 16 None; head = 0; len = 0 };
    waitqs = Hashtbl.create 32;
    bindings = Hashtbl.create 16;
    (* the shard-owned pieces that used to be module globals
       (DESIGN.md §3.6): each kernel gets fresh ones; the obs engine
       inherits the installed engine's configuration so observation
       set up before [Kernel.create] still applies *)
    registry = Registry.create ();
    obs = Obs.engine_like (Obs.installed ());
    cur = None;
    timers = [];
    next_pid = 1;
    next_file_id = 1;
    next_ring_id = 1;
    next_listener_id = 1;
    tod_offset_us = 0;
    send =
      (fun ~dst:_ ~pid:_ ~signal:_ ->
        invalid_arg "Cluster.send: no cluster is running");
    trace_hook = None;
    trace_hook_cost_us = 0;
    signature = None;
    deadlock_kills = 0;
    round_trips = 0;
    fibres = 0;
    unwinding = false;
    watch = [];
    chunks = [||];
    chunks_free = 0;
    chunk_drops = 0 }

(* --- the ambient current shard ----------------------------------------- *)

(* The one place the "which kernel is running, and which of its
   processes?" question is answered for code that holds no handle
   (in-fibre agents, the C-library stubs): the shard here, its running
   process in its [cur].  [Kernel.enter] installs a shard here together
   with its obs engine, the only other installed cell; this ref is on
   the globals-lint allowlist. *)
module Ambient = struct
  let current : t option ref = ref None

  let get_exn () =
    match !current with
    | Some t -> t
    | None -> failwith "no current kernel shard (called outside a simulation?)"
end

(* --- the read-chunk pool ------------------------------------------------- *)

(* The free chunks sit at the front of [chunks], and a taken one's slot
   is cleared, so the pool holds each chunk at most once and none it
   handed out: a chunk belongs to one call from take to give.  The slots
   are made at the first give and dropped when the shard goes idle, so
   an idle shard holds nothing of the pool. *)
let take_chunk t =
  if t.chunks_free = 0 then Bytes.create chunk_size
  else begin
    let i = t.chunks_free - 1 in
    let b = t.chunks.(i) in
    t.chunks.(i) <- Bytes.empty;
    t.chunks_free <- i;
    b
  end

let give_chunk t b =
  if Array.length t.chunks = 0 then
    t.chunks <- Array.make chunk_capacity Bytes.empty;
  if t.chunks_free < chunk_capacity then begin
    t.chunks.(t.chunks_free) <- b;
    t.chunks_free <- t.chunks_free + 1
  end
  else t.chunk_drops <- t.chunk_drops + 1

let release_chunks t =
  t.chunks <- [||];
  t.chunks_free <- 0

let charge t us = Sim.Clock.charge t.clock us
let now_us t = Sim.Clock.now_us t.clock + t.tod_offset_us

let cred (p : Proc.t) = p.cred

(* --- process table ----------------------------------------------------- *)

let proc t pid = Hashtbl.find_opt t.procs pid

let alloc_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

(* [procs] holds exactly the unreaped processes, and each one sits in
   its parent's [kids] index for as long as it is there: [add_proc]
   enters both, [reap] leaves both, and [do_exit] moves an orphan from
   its dead parent's index to init's. *)
let add_proc t (p : Proc.t) =
  Hashtbl.replace t.procs p.pid p;
  match proc t p.ppid with
  | Some parent -> parent.kids <- Proc.Kids.add p.pid p parent.kids
  | None -> ()

let reap t (p : Proc.t) =
  p.state <- Proc.Reaped;
  Hashtbl.remove t.procs p.pid;
  match proc t p.ppid with
  | Some parent -> parent.kids <- Proc.Kids.remove p.pid parent.kids
  | None -> ()

let live_procs t =
  Hashtbl.fold
    (fun _ (p : Proc.t) acc ->
      match p.state with
      | Proc.Zombie | Proc.Reaped -> acc
      | Proc.Runnable | Proc.Parked _ | Proc.Stopped -> p :: acc)
    t.procs []
  |> List.sort (fun (a : Proc.t) b -> compare a.pid b.pid)

(* --- fibres and the run queue ------------------------------------------- *)

(* A fibre abandoned without being resumed would keep its stack: unwind
   it instead.  The unwind runs with no current process, so the fibre's
   cleanup code cannot act on the process (which has exited, or runs a
   new image by now): every way into the kernel starts at
   [Uspace.self], which fails.  With [unwinding] set the fibre's root
   only finishes it, logging any exception other than
   [Process_killed]. *)
let discard t k =
  let outer = t.unwinding in
  t.unwinding <- true;
  match Effect.Deep.discontinue k Events.Process_killed with
  | () -> t.unwinding <- outer
  | exception e ->
    t.unwinding <- outer;
    raise e

let discard_fibre t (p : Proc.t) =
  let k = p.fibre in
  p.fibre <- Proc.no_fibre;
  p.start <- None;
  if k != Proc.no_fibre then discard t k

(* The run queue is a ring of processes, each entry the process's own
   [me], so a turn allocates nothing.  A process is in it at most once:
   it is queued only when it is created, yields, or leaves the parked
   or stopped state, and its turn resumes its fibre or enters its
   [start]. *)
let enqueue t (p : Proc.t) =
  let q = t.runq in
  let cap = Array.length q.ring in
  if q.len = cap then begin
    let ring = Array.make (2 * cap) None in
    for i = 0 to q.len - 1 do ring.(i) <- q.ring.((q.head + i) mod cap) done;
    q.ring <- ring;
    q.head <- 0
  end;
  q.ring.((q.head + q.len) mod Array.length q.ring) <- p.me;
  q.len <- q.len + 1

let dequeue t =
  let q = t.runq in
  if q.len = 0 then None
  else begin
    let e = q.ring.(q.head) in
    q.ring.(q.head) <- None;
    q.head <- (q.head + 1) mod Array.length q.ring;
    q.len <- q.len - 1;
    e
  end

let spawn t (p : Proc.t) body =
  p.start <- Some body;
  enqueue t p

(* --- wait queues and timers -------------------------------------------- *)

(* 4.3BSD's sleep queues, kept exact: a process is in a channel's
   queue exactly while it is [Parked] on a condition that names the
   channel.  [sleep_on] files it when it parks, [wakeup] empties the
   channel's queue, and [unsleep] takes a process off every queue it is
   in, wherever it leaves [Parked]: a wake-up on another channel, a
   timeout, an EINTR or an exit.  An emptied queue goes, so [waitqs]
   holds entries only while someone sleeps.  [Hashtbl.find] rather than
   [find_opt]: a park or a wake-up with sleepers builds no [Some]. *)
let sleep_on t chan (p : Proc.t) =
  match Hashtbl.find t.waitqs chan with
  | q -> if not (List.memq p !q) then q := p :: !q
  | exception Not_found -> Hashtbl.replace t.waitqs chan (ref [ p ])

let leave t chan (p : Proc.t) =
  match Hashtbl.find t.waitqs chan with
  | exception Not_found -> ()
  | q ->
    (match List.filter (fun q -> q != p) !q with
     | [] -> Hashtbl.remove t.waitqs chan
     | rest -> q := rest)

let unsleep t (p : Proc.t) =
  match p.state with
  | Proc.Parked (Proc.On_chan chan) -> leave t chan p
  | Proc.Parked (Proc.On_chans chans) -> List.iter (fun c -> leave t c p) chans
  | Proc.Parked (Proc.On_time _ | Proc.On_signal _)
  | Proc.Runnable | Proc.Stopped | Proc.Zombie | Proc.Reaped -> ()

let wakeup t chan =
  match Hashtbl.find t.waitqs chan with
  | exception Not_found -> ()
  | q ->
    Hashtbl.remove t.waitqs chan;
    List.iter
      (fun (p : Proc.t) ->
        unsleep t p;
        (* BSD restart: the woken fibre serves its call again *)
        p.state <- Proc.Runnable;
        p.res <- Proc.restart;
        enqueue t p)
      (List.rev !q)

let add_timer t ~at ev =
  let rec insert = function
    | [] -> [ at, ev ]
    | (at', _) as hd :: tl when at' <= at -> hd :: insert tl
    | rest -> (at, ev) :: rest
  in
  t.timers <- insert t.timers

let timer_pid = function T_wake pid | T_alarm pid | T_select pid -> pid

let cancel_timers_for t pid =
  t.timers <- List.filter (fun (_, ev) -> timer_pid ev <> pid) t.timers

(* A process's one alarm, taken off the timer list: its deadline, if
   one was armed. *)
let take_alarm t pid =
  let mine = function _, T_alarm p -> p = pid | _, (T_wake _ | T_select _) -> false in
  match List.find_opt mine t.timers with
  | None -> None
  | Some (at, _) ->
    t.timers <- List.filter (fun e -> not (mine e)) t.timers;
    Some at

(* A process makes one call at a time, so its T_wake or T_select is
   its call in progress's. *)
let cancel_call_timers t pid =
  t.timers <-
    List.filter
      (fun (_, ev) ->
        match ev with T_wake p | T_select p -> p <> pid | T_alarm _ -> true)
      t.timers

let has_select_timer t pid =
  List.exists
    (fun (_, ev) -> match ev with T_select p -> p = pid | _ -> false)
    t.timers

(* The earliest deadline, or [max_int] with no timers armed. *)
let next_timer_at t =
  match t.timers with [] -> max_int | (at, _) :: _ -> at

let uncontended t (p : Proc.t) ~until =
  p.sigs.pending = 0 && t.runq.len = 0 && next_timer_at t > until

(* --- open files --------------------------------------------------------- *)

let new_file t kind ~flags =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  (match kind with
   | File.Vnode inode | File.Fifo_read (inode, _) | File.Fifo_write (inode, _)
     -> Vfs.Fs.incr_opens t.fs inode.Vfs.Inode.ino
   | File.Pipe_read _ | File.Pipe_write _ | File.Sock _ -> ());
  (match kind with
   | File.Pipe_read r | File.Fifo_read (_, r) -> Vfs.Pipebuf.add_reader r.buf
   | File.Pipe_write r | File.Fifo_write (_, r) -> Vfs.Pipebuf.add_writer r.buf
   | File.Sock _ ->
     (* a connection's ring references belong to the conn from the
        moment it is established ([new_conn_pair]), not to the file
        wrapping it — accept adopts a pending conn whose references
        connect already took, so taking them again here would double
        count *)
     ()
   | File.Vnode _ -> ());
  File.make ~id kind ~flags

(* A fresh ring, its causal channel built from a new ring id. *)
let new_ring t chan_of_id =
  let id = t.next_ring_id in
  t.next_ring_id <- id + 1;
  { File.chan = chan_of_id id; buf = Vfs.Pipebuf.create () }

let new_pipe t =
  let ring = new_ring t Obs.chan_pipe in
  let r = new_file t (File.Pipe_read ring) ~flags:Flags.Open.o_rdonly in
  let w = new_file t (File.Pipe_write ring) ~flags:Flags.Open.o_wronly in
  r, w

(* A crossed pair of fresh rings forming both endpoints of a stream
   connection, references for both sides already taken: the first conn
   reads r1 / writes r2, the second the reverse. *)
let new_conn_pair t =
  let r1 = new_ring t Obs.chan_sock in
  let r2 = new_ring t Obs.chan_sock in
  Vfs.Pipebuf.add_reader r1.buf;
  Vfs.Pipebuf.add_writer r1.buf;
  Vfs.Pipebuf.add_reader r2.buf;
  Vfs.Pipebuf.add_writer r2.buf;
  { File.rx = r1; tx = r2; shut_rd = false; shut_wr = false },
  { File.rx = r2; tx = r1; shut_rd = false; shut_wr = false }

let new_listener t ~backlog =
  let lid = t.next_listener_id in
  t.next_listener_id <- lid + 1;
  { File.lid; backlog = max 1 backlog; pending = Queue.create ();
    lclosed = false }

let new_socketpair t =
  let c1, c2 = new_conn_pair t in
  let a =
    new_file t (File.Sock { File.sock = File.S_conn c1 })
      ~flags:Flags.Open.o_rdwr
  in
  let b =
    new_file t (File.Sock { File.sock = File.S_conn c2 })
      ~flags:Flags.Open.o_rdwr
  in
  a, b

let install_fd t p ?(cloexec = false) ?(from = 0) file =
  ignore t;
  match Proc.alloc_fd ~from p with
  | None -> Error Errno.EMFILE
  | Some fd ->
    p.Proc.fds.(fd) <- Some { File.file; cloexec };
    Ok fd

let retain_file (f : File.t) = f.refs <- f.refs + 1

(* Drop one reader or writer of a ring and wake the sleepers on its
   other side: every pipe, FIFO and connection release goes through
   these two. *)
let drop_reader t (r : File.ring) =
  Vfs.Pipebuf.drop_reader r.buf;
  wakeup t (File.Wchan.writable r)

let drop_writer t (r : File.ring) =
  Vfs.Pipebuf.drop_writer r.buf;
  wakeup t (File.Wchan.readable r)

(* Release one direction of a connection endpoint.  The shut flags make
   these idempotent: [shutdown] drops a direction early, and the final
   close must then skip it — each ring reference is dropped exactly
   once over the endpoint's lifetime. *)
let shut_conn_rd t (c : File.conn) =
  if not c.File.shut_rd then begin
    c.File.shut_rd <- true;
    drop_reader t c.File.rx
  end

let shut_conn_wr t (c : File.conn) =
  if not c.File.shut_wr then begin
    c.File.shut_wr <- true;
    drop_writer t c.File.tx
  end

let release_conn t (c : File.conn) =
  shut_conn_rd t c;
  shut_conn_wr t c

(* Drop [addr]'s binding iff it still belongs to this socket. *)
let unbind t addr (s : File.sock) =
  match Hashtbl.find_opt t.bindings addr with
  | Some s' when s' == s -> Hashtbl.remove t.bindings addr
  | _ -> ()

let release_file t (f : File.t) =
  f.refs <- f.refs - 1;
  if f.refs <= 0 then begin
    match f.kind with
    | File.Vnode inode ->
      Vfs.Fs.decr_opens t.fs inode.Vfs.Inode.ino
    | File.Pipe_read r -> drop_reader t r
    | File.Pipe_write r -> drop_writer t r
    | File.Fifo_read (inode, r) ->
      drop_reader t r;
      Vfs.Fs.decr_opens t.fs inode.Vfs.Inode.ino
    | File.Fifo_write (inode, r) ->
      drop_writer t r;
      Vfs.Fs.decr_opens t.fs inode.Vfs.Inode.ino
    | File.Sock s ->
      (match s.File.sock with
       | File.S_fresh -> ()
       | File.S_bound addr -> unbind t addr s
       | File.S_conn c -> release_conn t c
       | File.S_listening (addr, l) ->
         unbind t addr s;
         l.File.lclosed <- true;
         (* connections established but never accepted are reset: both
            directions of each pending server endpoint go away, so the
            peer reads EOF and its writes raise EPIPE *)
         Queue.iter (release_conn t) l.File.pending;
         Queue.clear l.File.pending;
         (* blocked accepters must fail with EINVAL, blocked connectors
            with ECONNRESET — both re-check on retry *)
         wakeup t (File.Wchan.accept l);
         wakeup t (File.Wchan.connq l))
  end

let close_fd t p fd =
  match Proc.fd p fd with
  | None -> Error Errno.EBADF
  | Some entry ->
    p.Proc.fds.(fd) <- None;
    release_file t entry.File.file;
    Ok ()

(* --- signals ------------------------------------------------------------ *)

let is_stop_signal s =
  s = Signal.sigstop || s = Signal.sigtstp
  || s = Signal.sigttin || s = Signal.sigttou

let disposition (p : Proc.t) s =
  if s = Signal.sigkill then `Terminate
  else if s = Signal.sigstop then `Stop
  else
    match Proc.handler p s with
    | Value.H_fn _ -> `Handler
    | Value.H_ignore -> `Ignore
    | Value.H_default ->
      (match Signal.default_action s with
       | Signal.Terminate -> `Terminate
       | Signal.Ignore -> `Ignore
       | Signal.Stop -> `Stop
       | Signal.Continue -> `Continue)

(* A pending signal's sender (DESIGN.md §3.9) sits beside its pending
   bit: [post_signal] sets it with the bit, [take_pending] leaves it
   for the delivery to consume, [clear_pending] discards it with the
   signal. *)
let take_pending (p : Proc.t) s =
  p.sigs.pending <- Signal.Mask.remove p.sigs.pending s

let clear_pending (p : Proc.t) s =
  take_pending p s;
  Proc.set_sender p s None

let blocked (p : Proc.t) s =
  Signal.Mask.mem p.sigs.mask s
  && s <> Signal.sigkill && s <> Signal.sigstop

(* Forward references resolved after do_exit is defined.  The post that
   makes [s] pending names its sender: a kill's [origin], or none. *)
let rec post_signal ?origin t (p : Proc.t) s =
  match p.state with
  | Proc.Zombie | Proc.Reaped -> ()
  | Proc.Runnable | Proc.Parked _ | Proc.Stopped ->
    if s = Signal.sigcont then begin
      (* a continue clears pending stops, and vice versa *)
      List.iter (clear_pending p)
        [ Signal.sigstop; Signal.sigtstp; Signal.sigttin; Signal.sigttou ]
    end;
    if is_stop_signal s then clear_pending p Signal.sigcont;
    if not (Signal.Mask.mem p.sigs.pending s) then begin
      Proc.set_sender p s (if Obs.enabled () then origin else None);
      p.sigs.pending <- Signal.Mask.add p.sigs.pending s
    end;
    act_on_pending t p s

and act_on_pending t (p : Proc.t) s =
  if blocked p s then ()
  else
    match disposition p s with
    | `Ignore -> clear_pending p s
    | `Continue ->
      clear_pending p s;
      (match p.state with
       | Proc.Stopped ->
         p.state <- Proc.Runnable;
         enqueue t p
       | Proc.Runnable | Proc.Parked _ | Proc.Zombie | Proc.Reaped -> ())
    | `Terminate ->
      (match p.state with
       | Proc.Parked _ | Proc.Stopped ->
         clear_pending p s;
         do_exit t p (Flags.Wait.sig_status s);
         discard_fibre t p
       | Proc.Runnable ->
         (* acted on at the next trap boundary via collect_deliverable;
            SIGKILL additionally prevents further progress there *)
         ()
       | Proc.Zombie | Proc.Reaped -> ())
    | `Handler ->
      (match p.state with
       | Proc.Parked cond ->
         (* interrupt the slow call: EINTR plus handler delivery.  A
            sleep's T_wake or a select's T_select timer dies with it —
            a stale one would later fire into whatever call the process
            makes next *)
         take_pending p s;
         cancel_call_timers t p.pid;
         unsleep t p;
         (match cond with
          | Proc.On_signal saved -> p.sigs.mask <- saved
          | _ -> ());
         p.state <- Proc.Runnable;
         p.res <- Error Errno.EINTR;
         p.deliver <- [ s ];
         enqueue t p
       | Proc.Runnable | Proc.Stopped | Proc.Zombie | Proc.Reaped ->
         (* delivered at the next trap boundary *)
         ())
    | `Stop ->
      (match p.state with
       | Proc.Runnable | Proc.Parked _ ->
         (* simplification: stops take effect at the next trap
            boundary (a process blocked forever will not stop) *)
         ()
       | Proc.Stopped | Proc.Zombie | Proc.Reaped -> clear_pending p s)

and do_exit t (p : Proc.t) status =
  (match p.state with
   | Proc.Zombie | Proc.Reaped -> ()
   | Proc.Runnable | Proc.Parked _ | Proc.Stopped ->
     (* the exit trap's span never returns to its opener; force-close *)
     Obs.abort_pid p.pid;
     unsleep t p;
     (* close every descriptor *)
     Array.iteri
       (fun i entry ->
         match entry with
         | Some (e : File.fd_entry) ->
           p.fds.(i) <- None;
           release_file t e.file
         | None -> ())
       p.fds;
     cancel_timers_for t p.pid;
     p.state <- Proc.Zombie;
     p.exit_status <- status;
     (* orphans go to init (pid 1), zombies among them reaped on the
        spot when init is dead or gone; init's own orphans keep it as
        their parent and self-reap when they exit *)
     if p.pid <> 1 then begin
       let init = proc t 1 in
       let init_live =
         match init with
         | Some i -> i.state <> Proc.Zombie
         | None -> false
       in
       Proc.Kids.iter
         (fun _ (c : Proc.t) ->
           c.ppid <- 1;
           if c.state = Proc.Zombie && not init_live then reap t c
           else
             match init with
             | Some i -> i.kids <- Proc.Kids.add c.pid c i.kids
             | None -> ())
         p.kids;
       p.kids <- Proc.Kids.empty
     end;
     (* notify the parent *)
     (match proc t p.ppid with
      | Some parent when parent.state <> Proc.Zombie ->
        post_signal t parent Signal.sigchld;
        wakeup t (File.Wchan.children parent.pid)
      | _ ->
        (* no live parent: nobody will wait for us *)
        reap t p))

let collect_deliverable _t (p : Proc.t) =
  if p.sigs.pending = 0 then []
  else begin
    let deliver = ref [] in
    for s = 1 to Signal.max_signal do
      if Signal.Mask.mem p.sigs.pending s && not (blocked p s) then begin
        match disposition p s with
        | `Ignore | `Continue -> clear_pending p s
        | `Handler ->
          take_pending p s;
          deliver := s :: !deliver
        | `Terminate | `Stop ->
          (* the caller handles terminal dispositions via proc state;
             mark them by leaving the bit set *)
          ()
      end
    done;
    List.rev !deliver
  end

(* Terminal (default-action) signals left pending by
   collect_deliverable: decide the process's fate at a trap boundary. *)
let pending_terminal (p : Proc.t) =
  if p.sigs.pending = 0 then `None
  else begin
    let result = ref `None in
    (try
       for s = 1 to Signal.max_signal do
         if Signal.Mask.mem p.sigs.pending s && not (blocked p s) then
           match disposition p s with
           | `Terminate ->
             result := `Kill (s, Flags.Wait.sig_status s);
             raise Exit
           | `Stop ->
             result := `Stop s;
             raise Exit
           | `Ignore | `Continue | `Handler -> ()
       done
     with Exit -> ());
    !result
  end

let exit_by_signal t (p : Proc.t) s status =
  clear_pending p s;
  do_exit t p status

(* --- trace hooks -------------------------------------------------------- *)

let set_trace_hook t ?(cost_us = 0) hook =
  t.trace_hook <- hook;
  t.trace_hook_cost_us <- cost_us

let run_trace_hook t p call res =
  match t.trace_hook with
  | None -> ()
  | Some hook ->
    charge t t.trace_hook_cost_us;
    hook p call res
