(** Kernel state and the operations on it that do not involve running
    fibres: the process and file tables, wait queues, timers, signal
    posting and process exit.  The scheduler and syscall dispatcher sit
    on top ({!Kernel}, {!Syscalls}). *)

type wait_key =
  | K_child of int        (** parent pid *)
  | K_pipe_r of int
  | K_pipe_w of int
  | K_fifo_r of int       (** fifo ino *)
  | K_fifo_w of int
  | K_accept of int       (** listener id: a connection arrived *)
  | K_connq of int        (** listener id: the accept queue drained *)
  | K_signal of int       (** pid in sigsuspend *)

type timer_event =
  | T_wake of int         (** pid sleeping *)
  | T_alarm of int        (** pid to receive SIGALRM *)
  | T_select of int       (** pid's select timeout *)

(** Result of dispatching one system call. *)
type outcome =
  | Done of Abi.Value.res
  | Block of Proc.cond    (** park the caller; retried on wake *)
  | Exited                (** the caller is gone; abandon the fibre *)
  | Exec of Events.exec_spec
      (** replace the caller's program text; abandon the fibre *)

(** The one trap effect.  A system call's kernel half runs on the
    calling fibre ([Uspace]); when its outcome needs the scheduler — a
    reply while another fibre, a due timer or a pending signal is
    waiting, a block, an exit or an exec — the fibre performs [Settle]
    with the trap's envelope and outcome, and the scheduler finishes
    the trap exactly as if it had dispatched the call itself
    (DESIGN.md §3.8). *)
type _ Effect.t += Settle : Abi.Envelope.t * outcome -> Events.trap_reply Effect.t

(** Functions supplied by the scheduler layer at start-up. *)
type hooks = {
  spawn : Proc.t -> (unit -> int) -> unit;
      (** enqueue a fresh fibre for an (already registered) process *)
  retry : Proc.t -> unit;
      (** make a parked process re-attempt its system call *)
}

type t = {
  shard_id : int;  (** position in a [Kernel.Cluster], 0 standalone *)
  clock : Sim.Clock.t;
  fs : Vfs.Fs.t;
  console : Dev.Console.t;
  devs : Dev.table;
  procs : (int, Proc.t) Hashtbl.t;
  runq : (unit -> unit) Queue.t;
  waitqs : (wait_key, int list ref) Hashtbl.t;
  bindings : (string, File.sock) Hashtbl.t;
      (** socket address namespace: [bind] claims a name (EADDRINUSE on
          conflict), [connect] resolves one, closing the bound or
          listening socket releases it *)
  registry : Registry.t;           (** shard-owned executable images *)
  obs : Obs.engine;                (** shard-owned observability engine *)
  codec : Abi.Envelope.Stats.t;    (** shard-owned codec counters *)
  pool_stats : Abi.Value.Pool.Stats.t;  (** shard-owned wire-pool counters *)
  epool_stats : Abi.Envelope.Pool.Stats.t;
      (** shard-owned envelope-record-pool counters *)
  cur : Proc.Cur.cell;             (** shard-owned current process *)
  mutable fused_dispatch : bool;
      (** dispatch interested traps through the per-process fused
          closure chains (and take the inline CPU-charge fast path)
          instead of the generic option-vector walk.  Semantically
          invisible — the conformance gate checks signatures are
          byte-identical either way — so flipping it mid-run is legal;
          it selects host-speed machinery only. *)
  host_cpu_t0 : float;             (** [Sys.time] at shard creation *)
  host_minor_words_t0 : float;     (** GC baselines at shard creation, *)
  host_promoted_words_t0 : float;  (** for the [host] metrics block *)
  host_major_collections_t0 : int;
  mutable timers : (int * timer_event) list;  (** sorted by time *)
  mutable next_pid : int;
  mutable next_file_id : int;
  mutable next_pipe_id : int;
  mutable next_listener_id : int;
  mutable tod_offset_us : int;   (** settimeofday adjustment *)
  mutable hooks : hooks;
  mutable trace_hook : (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option;
  mutable trace_hook_cost_us : int;
  mutable retired_syscalls : int;
  mutable deadlock_kills : int;
  mutable watch : Obs.Watch.rule list;
      (** watchdog rules evaluated over this shard's metrics; stored on
          the shard handle, not the obs engine, so rules survive
          [Obs.reset] and stay per-shard in a cluster *)
}

val create : ?shard_id:int -> ?fused:bool -> unit -> t
(** A fresh shard: everything above is newly allocated, except that the
    obs engine inherits the {e configuration} (enablement, sampling,
    ring capacity — never the data) of the currently installed engine,
    preserving the "configure observation, then create the kernel"
    call order.  [fused] (default [true]) selects fused trap dispatch;
    [~fused:false] keeps the generic option-vector walk, the honest
    baseline the host-speed bench compares against. *)

(** The ambient current shard: which kernel's state in-fibre code that
    holds no handle (agents, the C-library stubs) should reach.
    [Kernel.enter] maintains it; read it via [Kernel.current].  On the
    globals-lint allowlist. *)
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
val total_syscalls : t -> int

(* --- wait queues and timers --- *)

val enqueue : t -> (unit -> unit) -> unit
val sleep_on : t -> wait_key -> int -> unit
val wake_key : t -> wait_key -> unit
(** Retry every parked process on the queue (liveness is re-checked). *)

val add_timer : t -> at:int -> timer_event -> unit
val cancel_timers_for : t -> int -> unit
val cancel_select_timers : t -> int -> unit
val has_select_timer : t -> int -> bool
val next_timer : t -> (int * timer_event) option

val next_timer_at : t -> int
(** Earliest timer deadline, [max_int] when none are armed.  Unlike
    {!next_timer} this never allocates — the fused CPU-charge fast
    path reads it on every dispatch level. *)

val pop_timer : t -> unit

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
(** Both endpoints of a fresh stream connection — two new pipes held
    crossed, the pipe references for both sides already taken.  The
    caller owns releasing them (via {!release_file} on a wrapping
    socket, or {!release_conn} directly). *)

val new_listener : t -> backlog:int -> File.listener
(** A fresh accept queue with a new listener id; backlog clamped ≥ 1. *)

val shut_conn_rd : t -> File.conn -> unit
val shut_conn_wr : t -> File.conn -> unit
(** Release one direction of a connection endpoint and wake the peer;
    idempotent via the conn's shut flags, so [shutdown] followed by
    [close] drops each pipe reference exactly once. *)

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
(** Drop one reference; at zero, release inode / pipe endpoints and
    wake the peer end. *)

val close_fd : t -> Proc.t -> int -> (unit, Abi.Errno.t) result

(* --- signals --- *)

val post_signal : t -> Proc.t -> int -> unit
(** Make a signal pending and act on it as far as the target's state
    allows (terminate, stop, continue, or interrupt a sleep). *)

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
