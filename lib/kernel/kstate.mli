(** Kernel state and the operations on it that do not involve running
    fibres: the process and file tables, wait queues, timers, signal
    posting and process exit.  The scheduler and syscall dispatcher sit
    on top ({!Kernel}, {!Syscalls}). *)

type timer_event =
  | T_wake of int         (** pid sleeping *)
  | T_alarm of int        (** pid to receive SIGALRM *)
  | T_select of int       (** pid's select timeout *)

(** Result of dispatching one system call. *)
type outcome =
  | Done of Abi.Value.res
  | Block of Proc.cond    (** park the caller; restarted on wake *)
  | Exited                (** the caller is gone; abandon the fibre *)
  | Exec of Events.exec_spec
      (** replace the caller's program text; abandon the fibre *)

val fail : Abi.Errno.t -> outcome
(** [Done (Error e)], the outcome of a failure: one value per errno,
    built once and shared by every trap, so a failure allocates
    nothing.  Kernel results are immutable and never compared
    physically, which is what makes sharing them safe;
    [Syscalls.done_ret] shares the commonest successes the same way. *)

(** The trap effects, each without payload.  A system call's kernel
    half runs on the calling fibre ([Uspace]); when its outcome needs
    the scheduler, the fibre yields and the scheduler finishes the trap
    exactly as if it had dispatched the call itself (DESIGN.md §3.8):
    - [Reply], for a result while another fibre, a due timer or a
      pending signal is waiting.  The result rides in the caller's
      [res];
    - [Park], for a block.  The fibre has already set its state to
      [Parked], which holds the wait condition, and the scheduler
      sleeps it on each wait channel the condition names
      ({!sleep_on}).  A wake-up answers {!Proc.restart}, and the fibre
      serves the same call again;
    - [Abandon], for an exit: the scheduler unwinds the fibre.
    An exec performs [Events.Exec_load], as the exec-load primitive
    does.  The fibre resumes with its answer in [res] and [deliver]
    (or never, after an exit or exec). *)
type _ Effect.t +=
  | Reply : unit Effect.t
  | Park : unit Effect.t
  | Abandon : unit Effect.t

(** The run queue: a growable ring of processes. *)
type runq

type t = {
  shard_id : int;  (** position in a [Kernel.Cluster], 0 standalone *)
  clock : Sim.Clock.t;
  fs : Vfs.Fs.t;
  console : Dev.Console.t;
  devs : Dev.table;
  procs : (int, Proc.t) Hashtbl.t;
  runq : runq;
  waitqs : (File.Wchan.t, Proc.t list ref) Hashtbl.t;
      (** the sleepers on each wait channel, latest first.  Exact: a
          process is in a channel's queue exactly while it is [Parked]
          on a condition that names the channel, and a channel nobody
          sleeps on has no entry *)
  bindings : (string, File.sock) Hashtbl.t;
      (** socket address namespace: [bind] claims a name (EADDRINUSE on
          conflict), [connect] resolves one, closing the bound or
          listening socket releases it *)
  registry : Registry.t;           (** shard-owned executable images *)
  obs : Obs.engine;
      (** shard-owned observability engine, codec and envelope-pool
          counters included *)
  mutable cur : Proc.t option;
      (** the running process: set by the scheduler around each resumed
          fibre, [None] while kernel code runs *)
  mutable timers : (int * timer_event) list;  (** sorted by time *)
  mutable next_pid : int;
  mutable next_file_id : int;
  mutable next_ring_id : int;
  mutable next_listener_id : int;
  mutable tod_offset_us : int;   (** settimeofday adjustment *)
  mutable send : dst:int -> pid:int -> signal:int -> unit;
      (** mail a signal to a sibling shard's process ([Kernel.Cluster]
          installs it; a solo kernel's raises [Invalid_argument]) *)
  mutable trace_hook : (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option;
  mutable trace_hook_cost_us : int;
  mutable signature : Abi.Signature.recorder option;
      (** the armed syscall-signature recorder ([Kernel.with_signature]):
          every application trap on this shard is issued into it *)
  mutable deadlock_kills : int;
  mutable round_trips : int;
      (** run-queue entries the scheduler has taken: every trap or CPU
          charge that yielded, every wake-up restart and fibre start *)
  mutable fibres : int;
      (** fibres started and not yet finished (returned or unwound);
          0 once a session is over, or a fibre's stack leaked *)
  mutable unwinding : bool;
      (** a discarded fibre is being unwound ([discard]) *)
  mutable watch : Obs.Watch.rule list;
      (** watchdog rules evaluated over this shard's metrics; stored on
          the shard handle, not the obs engine, so rules survive
          [Obs.reset] and stay per-shard in a cluster *)
  mutable chunks : Bytes.t array;
      (** the free list of 4 KB read chunks ({!take_chunk}): 8 slots,
          the free chunks first, then empty ones; made at the first
          give, and empty ([[||]]) while the shard is idle *)
  mutable chunks_free : int;  (** chunks in the free list *)
  mutable chunk_drops : int;
      (** chunks given back while the free list was full, and dropped *)
}

val create : shard_id:int -> t
(** A fresh shard: everything above is newly allocated, except that the
    obs engine inherits the {e configuration} (enablement, sampling,
    ring capacity — never the data) of the currently installed engine,
    preserving the "configure observation, then create the kernel"
    call order. *)

(** {1 The read-chunk pool}

    The buffer a whole-file read ([Libc.Unistd.read_all], the agent
    exec loader) passes to each [read(fd, buf, 4096)], borrowed for one
    call and given back when it returns.  A chunk belongs to exactly
    one call from take to give, so a read that parks, restarts or
    yields never shares it; a caller killed mid-call never gives its
    chunk back (DESIGN.md §3.8). *)

val take_chunk : t -> Bytes.t
(** A free 4,096-byte chunk, or a fresh one when the free list is
    empty.  A warm take allocates nothing. *)

val give_chunk : t -> Bytes.t -> unit
(** Return a chunk taken with {!take_chunk}; the caller must not touch
    it again. *)

val release_chunks : t -> unit
(** Drop the free list, once the shard is idle ([Kernel.boot]
    returning), so no chunk outlives the run. *)

(** The ambient current shard: which kernel's state — and, through its
    [cur], which running process — in-fibre code that holds no handle
    (agents, the C-library stubs) should reach.  [Kernel.enter]
    maintains it; read it via [Kernel.current_exn].  On the globals-lint
    allowlist. *)
module Ambient : sig
  val current : t option ref

  val get_exn : unit -> t
  (** @raise Failure when no shard is current. *)
end

val charge : t -> int -> unit
val now_us : t -> int
(** Virtual wall time including the [settimeofday] offset. *)

val cred : Proc.t -> Vfs.Fs.cred

(* --- process table --- *)

val proc : t -> int -> Proc.t option
val alloc_pid : t -> int
val add_proc : t -> Proc.t -> unit
(** Enter a process in the table and in its parent's [kids]
    index (when the parent is in the table). *)

val reap : t -> Proc.t -> unit
(** The one transition to [Reaped]: the process leaves the table and
    its parent's [kids] index.  The table therefore holds exactly the
    unreaped processes — zombies included, self-reaped exits not. *)

val live_procs : t -> Proc.t list

module Log : Logs.LOG
(** The ["kernel"] log source. *)

(* --- fibres and the run queue --- *)

val discard : t -> (unit, unit) Effect.Deep.continuation -> unit
(** Unwind an abandoned fibre by discontinuing it with
    [Events.Process_killed], so its stack is freed.  The unwind runs
    with [unwinding] set and no current process: the fibre's cleanup
    code cannot reach the process, and its root finishes it without
    exiting the process again, logging any exception other than
    [Process_killed]. *)

val discard_fibre : t -> Proc.t -> unit
(** Empty the process's [start] and [fibre], discarding the fibre it
    held: both are empty before the fibre unwinds. *)

val enqueue : t -> Proc.t -> unit
(** Give the process a turn at the back of the run queue, which
    resumes its fibre or enters its [start].  Allocation-free while the
    ring has room. *)

val dequeue : t -> Proc.t option
(** The process whose turn is next, if any.  Allocation-free. *)

val spawn : t -> Proc.t -> (unit -> int) -> unit
(** Queue a fresh fibre running [body] for an (already registered)
    process. *)

(* --- wait queues and timers --- *)

val sleep_on : t -> File.Wchan.t -> Proc.t -> unit
(** 4.3BSD's [sleep(chan)]: file a process that has just parked on a
    condition naming the channel at the back of its queue (once). *)

val unsleep : t -> Proc.t -> unit
(** 4.3BSD's [unsleep(p)]: take a [Parked] process off the queue of
    every channel its condition names, dropping emptied queues.  Called
    wherever a process leaves [Parked]: a wake-up, a timeout, an EINTR
    and an exit. *)

val wakeup : t -> File.Wchan.t -> unit
(** 4.3BSD's [wakeup(chan)]: make every process on the channel's queue
    runnable, in the order they slept, with {!Proc.restart} as its
    answer, and queue it: its fibre serves the parked call again (BSD
    restart). *)

val add_timer : t -> at:int -> timer_event -> unit
val take_alarm : t -> int -> int option
(** Disarm the process's alarm; its deadline, if one was armed. *)

val cancel_call_timers : t -> int -> unit
(** Disarm the timer of the process's call in progress: a sleep's
    [T_wake] or a select's [T_select], never its alarm. *)

val has_select_timer : t -> int -> bool
val uncontended : t -> Proc.t -> until:int -> bool
(** Nothing for the scheduler to do for [p] up to virtual time
    [until]: no signal pending, an empty run queue and no timer due at
    or before [until].  A fibre for which this holds may skip the
    scheduling point it is at — the scheduler would resume it next,
    unchanged.  Allocation-free. *)

(* --- open files and descriptors --- *)

val new_file : t -> File.kind -> flags:int -> File.t
val new_pipe : t -> File.t * File.t
(** Read end, write end. *)

val new_socketpair : t -> File.t * File.t
(** Two connected bidirectional endpoints. *)

val new_conn_pair : t -> File.conn * File.conn
(** Both endpoints of a fresh stream connection — two new rings held
    crossed, the ring references for both sides already taken.  The
    caller owns releasing them (via {!release_file} on a wrapping
    socket, or {!release_conn} directly). *)

val new_listener : t -> backlog:int -> File.listener
(** A fresh accept queue with a new listener id; backlog clamped ≥ 1. *)

val shut_conn_rd : t -> File.conn -> unit
val shut_conn_wr : t -> File.conn -> unit
(** Release one direction of a connection endpoint and wake the peer;
    idempotent via the conn's shut flags, so [shutdown] followed by
    [close] drops each ring reference exactly once. *)

val release_conn : t -> File.conn -> unit
(** Release both directions. *)

val unbind : t -> string -> File.sock -> unit
(** Drop [addr] from {!field-bindings} iff it still belongs to this
    socket. *)

val install_fd : t -> Proc.t -> ?cloexec:bool -> ?from:int -> File.t
  -> (int, Abi.Errno.t) result
(** Place an (already referenced) file in the lowest free slot. *)

val retain_file : File.t -> unit
val release_file : t -> File.t -> unit
(** Drop one reference; at zero, release inode / ring endpoints and
    wake the peer end. *)

val close_fd : t -> Proc.t -> int -> (unit, Abi.Errno.t) result

(* --- signals --- *)

val post_signal : ?origin:int * int * int -> t -> Proc.t -> int -> unit
(** Make a signal pending and act on it as far as the target's state
    allows (terminate, stop, continue, or interrupt a sleep).  When
    this post sets the pending bit, a kill's [origin] ({!Obs.causal_origin})
    becomes the signal's sender, its causal half-edge (DESIGN.md §3.9),
    if obs is on. *)

val clear_pending : Proc.t -> int -> unit
(** Discard a pending signal, and its sender with it. *)

val collect_deliverable : t -> Proc.t -> int list
(** Drain pending, unmasked, user-handled signals (clearing their
    pending bits) and apply default actions for the rest.  May
    terminate or stop [Runnable] processes as a side effect; the caller
    must re-check the process state afterwards. *)

val pending_terminal :
  Proc.t -> [ `Kill of int * int | `Stop of int | `None ]
(** The first pending, unblocked signal whose action terminates
    ([`Kill (signal, wait_status)]) or stops the process — what
    {!collect_deliverable} leaves pending for the trap boundary to act
    on. *)

val exit_by_signal : t -> Proc.t -> int -> int -> unit
(** [exit_by_signal t p s status] consumes pending signal [s] and
    exits [p] with [status]. *)

val do_exit : t -> Proc.t -> int -> unit
(** Terminate with the given wait-status: close descriptors, zombify,
    move the children from the exiting process's [kids] index to
    init's (reaping zombie orphans when init is dead or gone), then
    notify and wake the parent — or reap at once when there is no live
    parent to wait. *)

(* --- tracing hooks (the in-kernel DFSTrace comparator) --- *)

val set_trace_hook :
  t -> ?cost_us:int -> (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option
  -> unit

val run_trace_hook : t -> Proc.t -> Abi.Call.t -> Abi.Value.res -> unit
