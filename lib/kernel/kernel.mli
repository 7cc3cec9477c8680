(** The simulated Mach 2.5 / 4.3BSD kernel: scheduler, boot and the
    host-side API.

    A kernel instance — a {e shard} (DESIGN.md §3.6) — owns a virtual
    clock, a filesystem, a console, a process table, an executable
    {!Registry}, an [Obs] engine (which carries its codec and
    envelope-pool counters) and its running process.  Nothing about a
    session is module-global:
    two kernels coexist in one OCaml process without observing each
    other, and {!Cluster} drives N of them deterministically.  [boot]
    starts pid 1 on a program body and runs the cooperative scheduler
    until every process has terminated (or is hopelessly deadlocked, in
    which case the stragglers are killed and counted in
    [deadlock_kills]).

    Simulated processes are OCaml fibres; they reach the kernel only
    through the stubs in {!Uspace} (applications normally go through
    {!Libc} on top of those).  A system call runs its kernel half on
    the calling fibre and yields to the scheduler, through
    {!Kstate.Reply}, {!Kstate.Park} or {!Kstate.Abandon}, only when the
    scheduler has work to do; the other requests are the effects in
    {!Events}.

    The scheduler is a ring of processes ({!Kstate.enqueue}).  A
    process's turn continues its suspended fibre or enters the program
    in its [start].  A fibre that yields leaves its continuation in the
    process's [fibre] field and finds its answer in its [res] and
    [deliver], so a contended trap, CPU charge or park allocates only
    the continuation.  A woken parked call finds {!Proc.restart} there
    and is served again on its own fibre: the fibre is the one place a
    system call is served.  A fibre the kernel abandons (exit,
    exec, a kill, a deadlock) is discontinued, never dropped, so its
    stack is freed; its cleanup code runs with no current process and
    cannot act on the process, and [Kstate.t.fibres] counts the fibres
    not yet finished. *)

(** {1 Submodules}

    The library's public face: re-exported here because this module is
    the library root. *)

module Dev = Dev
module Events = Events
module File = File
module Kstate = Kstate
module Proc = Proc
module Registry = Registry
module Syscalls = Syscalls
module Uspace = Uspace

type t = Kstate.t

val create : unit -> t
(** A fresh shard with its own clock, filesystem, registry, obs engine
    (inheriting the installed engine's {e configuration} — enablement,
    sampling, ring capacity — so observation set up before [create]
    applies to the new kernel) and counters.  The new kernel is
    installed as the current shard, with shard id 0; a {!Cluster}
    numbers its own members. *)

(** {1 The current shard}

    Code on the trap path — envelope codecs, uspace stubs, in-fibre
    agents — holds no handle.  It reaches the right shard through two
    installed cells, one per layer: the shard's obs engine for obs and
    abi code, which sit below the kernel, and the ambient current shard
    (and through it the running process) for the kernel and everything
    above.  {!create} and {!with_shard} install both. *)

val with_shard : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] entered, restoring the previously current shard
    afterwards (exception-safe).  This is how {!Cluster} multiplexes
    shards. *)

val current_exn : unit -> t
(** @raise Failure when no shard is current. *)

val shard_id : t -> int

(** {1 Running} *)

val boot : t -> name:string -> (unit -> int) -> int
(** [boot t ~name body] enters [t], runs [body] as pid 1 (with
    stdin/stdout/stderr connected to [/dev/tty] when it exists) and
    drives the scheduler to quiescence.  Returns pid 1's wait status
    (see {!Abi.Flags.Wait}).  A kernel can be booted once. *)

val step : t -> until:int -> [ `Sleep_until of int | `Idle ]
(** Bounded scheduling: run every runnable process and fire every timer
    due at or before [until] (virtual µs), then report why the shard
    stopped — at its next timer's deadline, or with nothing left to do.
    {!boot} and {!Cluster.run} are built on it; a session stopped
    between two steps has no fibre running. *)

val with_signature : t -> (unit -> 'a) -> 'a * Abi.Signature.t
(** [with_signature t f] runs [f] with a syscall-signature recorder
    armed on [t] and returns [f]'s result with the signature of every
    application trap issued on [t] meanwhile, by any process, in issue
    order ({!Uspace.syscall}, {!Uspace.trap_wire}; never the htg entry
    points).  Independent of [Obs]: the signature is the same with
    observation off, sampled or full.  Usually called inside {!boot}'s
    body, once the agents under test are installed, so their own set-up
    calls stay out. *)

(** {1 Host-side filesystem setup}

    These run outside any simulated process, with root credentials. *)

val populate_standard : t -> unit
(** Create [/dev] (null, zero, tty, console), [/tmp], [/bin], [/usr],
    [/etc] with a motd, and [/home]. *)

val install_image : t -> path:string -> image:string -> unit
(** Write an executable file whose content names a {!Registry} image;
    creates parent directories as needed. *)

val mkdir_p : t -> string -> unit
val write_file : t -> path:string -> ?perm:int -> string -> unit
val read_file : t -> string -> string option
val exists : t -> string -> bool

(** {1 Console} *)

val console_output : t -> string
val feed_console : t -> string -> unit
val echo_console_to : t -> (string -> unit) -> unit

(** {1 Introspection and host-side control} *)

val clock : t -> Sim.Clock.t
val fs : t -> Vfs.Fs.t
val elapsed_seconds : t -> float
val total_syscalls : t -> int
(** Application traps issued on this shard so far: the [traps] field of
    {!codec_stats}. *)

val deadlock_kills : t -> int

val registry : t -> Registry.t
(** This shard's executable-image registry; images registered here are
    invisible to every other kernel. *)

val register_image : t -> string -> Registry.image -> unit
(** [Registry.register (registry t)]. *)

val codec_stats : t -> Obs.Codec.t
(** This shard's envelope codec counters (decodes, encodes, stack
    crossings) — the measured form of the decode-once invariant.  The
    codec work happens in user space, but user space belongs to exactly
    one shard: whichever is entered while its fibres run.  Cumulative:
    scope a window with {!Obs.Codec.diff}. *)

val env_pool_stats : t -> Obs.Env_pool.t
(** This shard's envelope-pool hit/miss counters (records and the wires
    they own), same snapshot contract as {!codec_stats}.  Also exported
    as the ["env_pool"] member of {!metrics_json}. *)

val metrics : t -> Obs.metrics
(** Aggregated observability snapshot of this shard's engine
    (per-syscall counters and latency histograms, per-layer
    attribution) accumulated while [Obs.enable]d. *)

val set_watch : t -> Obs.Watch.rule list -> unit
(** Install this shard's watchdog rules (replacing any previous set).
    Rules live on the shard handle, so they survive [Obs.reset]
    between workload phases. *)

val watch_verdicts : t -> Obs.Watch.verdict list
(** Evaluate the installed rules against this shard's current metrics
    and envelope-pool counters — one verdict per rule, in rule
    order. *)

val metrics_json : t -> Obs.Json.t
(** {!metrics} rendered with syscall names resolved via
    [Abi.Call.name] — its ["codec"] ({!codec_stats}, incl.
    [fast_path] and [intercepted]) and ["env_pool"] ({!env_pool_stats})
    blocks included — plus a ["watchdogs"] ({!watch_verdicts}) block:
    every runtime statistic of one shard in one document.  The
    [/obs/metrics] synthetic file serves exactly this JSON inside the
    simulation. *)

val drain_obs : t -> Obs.Span.record list
(** Drain this shard's flight recorder (oldest first): segments, trace
    calls, marks and causal edges ([Obs.Span.edges] picks the edge
    table out). *)

val obs_engine : t -> Obs.engine
(** The shard's own engine — for host-side incremental reads
    ([Obs.poll_of]) without draining. *)

val pid_label : t -> int -> string
(** ["pid N name"] when the process is still in the table, ["pid N"]
    otherwise — a [?pid_label] for {!Obs.Chrome.to_json}. *)

val set_trace_hook :
  t -> ?cost_us:int
  -> (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option -> unit
(** The in-kernel tracing hook used by the DFSTrace comparison: when
    set, it observes every dispatched call at [cost_us] µs apiece. *)

(** {1 Deterministic multi-shard driver}

    N single-domain shards with independent virtual clocks, stepped
    round-robin in shard-id order over fixed virtual-time quanta (50 000
    virtual µs each).  Cross-shard events are mailed with a (virtual send
    time, sender shard id, sequence number) stamp and delivered at
    quantum boundaries sorted by exactly that triple — sort by virtual
    timestamp, tie-break by shard id, then send order — which makes the
    merge a deterministic function of simulation state alone: an
    N-shard run is byte-reproducible (DESIGN.md §3.6).  Events land at
    the first quantum boundary at or after their send time, so sibling
    clocks stay within one quantum of each other while work remains. *)
module Cluster : sig
  type kernel := t

  type t

  type event =
    | Post_signal of { pid : int; signal : int; origin : int * int * int }
  (** The cross-shard event vocabulary (signals, for now — the paper's
      agents communicate through the system interface, and the asynchronous
      half of that interface is exactly signal delivery).  [origin]
      stamps the sender's causal origin ([Obs.causal_origin]: shard,
      innermost open sampled span or 0, and pid at
      [send] time), which the receiving shard's post files as the
      signal's half-edge. *)

  val create : shards:int -> unit -> t
  (** [shards] ≥ 1 fresh kernels with shard ids [0 .. shards-1].
      Raises [Invalid_argument] on a non-positive count. *)

  val shard : t -> int -> kernel
  (** The [i]th member kernel — use the ordinary handle API on it
      (populate, install images, read metrics) before and after
      {!run}. *)

  val boot_shard : t -> int -> name:string -> (unit -> int) -> Proc.t
  (** Enqueue a session's init process (as {!boot} would) on shard [i]
      without running anything yet; read [Proc.exit_status] after
      {!run}. *)

  val run : t -> unit
  (** Drive every shard to quiescence: rounds of step-to-horizon in
      shard-id order with deterministic mail delivery between rounds,
      then a per-shard straggler pass (deadlocked processes are killed
      exactly as under {!boot}). *)

  val send : dst:int -> pid:int -> signal:int -> unit
  (** In-fibre: mail a signal to process [pid] of shard [dst], stamped
      with the sending shard's current virtual time.  Delivered at the
      next quantum boundary.  Goes through the current shard's
      [Kstate.t.send], which {!create} installs; raises
      [Invalid_argument] on a shard outside any cluster or for an
      unknown [dst]. *)

  val drain_obs : t -> Obs.Span.record list
  (** Drain every shard's flight recorder, in shard-id order.
      [Obs.Span.edges] over the result is the cluster-wide edge table,
      sorted by (virtual time, recording shard, seq) — the mailbox's
      total order, so two same-seed runs produce byte-identical
      tables. *)
end
