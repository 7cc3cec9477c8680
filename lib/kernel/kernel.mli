(** The simulated Mach 2.5 / 4.3BSD kernel: scheduler, boot and the
    host-side API.

    A kernel instance — a {e shard} (DESIGN.md §3.6) — owns a virtual
    clock, a filesystem, a console, a process table, an executable
    {!Registry}, an [Obs] engine, codec and wire-pool counters and a
    current-process cell.  Nothing about a session is module-global:
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
    {!Kstate.Settle}, only when the scheduler has work to do; the other
    requests are the effects in {!Events}. *)

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

val create : ?shard_id:int -> ?fused:bool -> unit -> t
(** A fresh shard with its own clock, filesystem, registry, obs engine
    (inheriting the installed engine's {e configuration} — enablement,
    sampling, ring capacity — so observation set up before [create]
    applies to the new kernel) and counters.  The new kernel is
    {!enter}ed, becoming the current shard.  [shard_id] (default 0) is
    its position in a {!Cluster}.  [fused] (default [true]) selects
    fused trap dispatch (DESIGN.md §3.8); [~fused:false] keeps the
    generic option-vector walk — semantically identical (gated by the
    conformance matrix), only slower on the host. *)

(** {1 The current shard}

    Code on the trap path — envelope codecs, uspace stubs, in-fibre
    agents — holds no handle; it reaches the right kernel through the
    ambient current shard, which {!enter} installs together with the
    shard's obs engine, codec/pool counters and current-process cell. *)

val enter : t -> unit
(** Make [t] the current shard.  {!create} and {!boot} call this;
    host code only needs it when juggling several live kernels by
    hand. *)

val with_shard : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] entered, restoring the previously current shard
    afterwards (exception-safe).  This is how {!Cluster} multiplexes
    shards. *)

val current : unit -> t option
(** The current shard, if any. *)

val current_exn : unit -> t
(** @raise Failure when no shard is current. *)

val shard_id : t -> int

(** {1 Running} *)

val boot : t -> name:string -> (unit -> int) -> int
(** [boot t ~name body] enters [t], runs [body] as pid 1 (with
    stdin/stdout/stderr connected to [/dev/tty] when it exists) and
    drives the scheduler to quiescence.  Returns pid 1's wait status
    (see {!Abi.Flags.Wait}).  A kernel can be booted once. *)

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
val clear_console : t -> unit
val feed_console : t -> string -> unit
val echo_console_to : t -> (string -> unit) -> unit

(** {1 Introspection and host-side control} *)

val clock : t -> Sim.Clock.t
val fs : t -> Vfs.Fs.t
val elapsed_seconds : t -> float
val total_syscalls : t -> int
val deadlock_kills : t -> int

val registry : t -> Registry.t
(** This shard's executable-image registry; images registered here are
    invisible to every other kernel. *)

val register_image : t -> string -> Registry.image -> unit
(** [Registry.register (registry t)]. *)

val codec_stats : t -> Abi.Envelope.Stats.snapshot
(** This shard's envelope codec counters (decodes, encodes, stack
    crossings) — the measured form of the decode-once invariant.  The
    codec work happens in user space, but user space belongs to exactly
    one shard: whichever is entered while its fibres run. *)

val reset_codec_stats : t -> unit
(** Zero [t]'s codec counters.  Only between sessions of that shard;
    mid-session code should snapshot/{!Abi.Envelope.Stats.diff}
    instead, or use {!metrics}. *)

val pool_stats : t -> Abi.Value.Pool.Stats.snapshot
(** This shard's wire-pool hit/miss counters, same snapshot contract
    as {!codec_stats}.  Also exported as the ["wire_pool"] member of
    {!metrics_json}. *)

val env_pool_stats : t -> Abi.Envelope.Pool.Stats.snapshot
(** This shard's envelope-record-pool counters, same contract as
    {!pool_stats}.  Also exported as the ["env_pool"] member of
    {!metrics_json}. *)

val fused : t -> bool
val set_fused : t -> bool -> unit
(** Select fused vs generic trap dispatch for [t] at run time.  Legal
    mid-run: the flag only chooses host-speed machinery — the
    conformance gate checks signatures are byte-identical either
    way. *)

(** Host-side (wall/GC) cost estimates for one shard since its
    creation, next to the virtual tables: the ["host"] block of
    {!metrics_json} and the [\[host\]] section of
    [agentrun --metrics].  Derived from process-wide [Sys.time] and GC
    counters, so per-trap figures are estimates — exact when one shard
    dominates the process. *)
type host_stats = {
  h_traps : int;
  h_cpu_s : float;
  h_ns_per_trap : float;
  h_minor_words_per_trap : float;
  h_promoted_words : float;
  h_major_collections : int;
  h_wire_pool_hit_rate : float;
  h_env_pool_hit_rate : float;
}

val host_stats : t -> host_stats
val host_stats_json : host_stats -> Obs.Json.t

val metrics : t -> Obs.metrics
(** Aggregated observability snapshot of this shard's engine
    (per-syscall counters and latency histograms, per-layer
    attribution) accumulated while [Obs.enable]d. *)

val set_watch : t -> Obs.Watch.rule list -> unit
(** Install this shard's watchdog rules (replacing any previous set).
    Rules live on the shard handle, so they survive [Obs.reset]
    between workload phases. *)

val watch_rules : t -> Obs.Watch.rule list

val watch_input_of : Obs.metrics -> env_pool_misses:int -> Obs.Watch.input
(** Adapt a metrics snapshot into watchdog-evaluation rows (p99 read
    from each syscall's histogram). *)

val watch_verdicts : t -> Obs.Watch.verdict list
(** Evaluate the installed rules against this shard's current metrics
    and envelope-pool counters — one verdict per rule, in rule
    order. *)

val metrics_json : t -> Obs.Json.t
(** {!metrics} rendered with syscall names resolved via
    [Abi.Sysno.name], plus ["codec"] ({!codec_stats}, incl.
    [fast_path] and [fused]), ["wire_pool"] ({!pool_stats}),
    ["env_pool"] ({!env_pool_stats}), ["host"] ({!host_stats}) and
    ["watchdogs"] ({!watch_verdicts}) blocks — every runtime statistic
    of one shard in one document.  The [/obs/metrics] synthetic file
    serves exactly this JSON inside the simulation. *)

val drain_obs : t -> Obs.Span.record list
(** Drain this shard's flight recorder (oldest first). *)

val obs_engine : t -> Obs.engine
(** The shard's own engine — for host-side incremental reads
    ([Obs.poll_of], [Obs.causal_edges_of]) without draining. *)

val causal_edges : t -> Obs.Causal.edge list
(** This shard's causal edge table (fork / signal / pipe), oldest
    first, without draining it. *)

val drain_causal : t -> Obs.Causal.edge list
(** Drain the edge table (returned oldest first). *)

val pid_label : t -> int -> string
(** ["pid N name"] when the process is still in the table, ["pid N"]
    otherwise — a [?pid_label] for {!Obs.Chrome.to_json}. *)

val post_signal : t -> pid:int -> int -> unit
(** Inject a signal from outside the simulation (like a console ^C). *)

val set_trace_hook :
  t -> ?cost_us:int
  -> (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option -> unit
(** The in-kernel tracing hook used by the DFSTrace comparison: when
    set, it observes every dispatched call at [cost_us] µs apiece. *)

(** {1 Deterministic multi-shard driver}

    N single-domain shards with independent virtual clocks, stepped
    round-robin in shard-id order over fixed virtual-time quanta
    ([quantum_us]).  Cross-shard events are mailed with a (virtual send
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
    | Post_signal of
        { pid : int; signal : int; o_shard : int; o_span : int; o_pid : int }
  (** The cross-shard event vocabulary (signals, for now — the paper's
      agents communicate through the system interface, and the asynchronous
      half of that interface is exactly signal delivery).  The [o_*]
      fields stamp the sender's causal origin — shard, innermost open
      span (possibly a sampler sentinel) and pid at [send] time — so
      the receiving shard records a cross-shard Signal edge before
      posting. *)

  val create : ?quantum_us:int -> shards:int -> unit -> t
  (** [shards] ≥ 1 fresh kernels with shard ids [0 .. shards-1];
      [quantum_us] (default 50 000 virtual µs) is the round horizon.
      Raises [Invalid_argument] on a non-positive argument. *)

  val shards : t -> int
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
      next quantum boundary.  Raises [Invalid_argument] outside
      {!run} or for an unknown shard. *)

  val metrics : t -> Obs.metrics
  (** Cluster-wide aggregate over every shard's obs engine: exact
      counters summed, latency histograms merged bucket-wise
      ({!Obs.merge_metrics}). *)

  val metrics_json : t -> Obs.Json.t
  (** The aggregate as the same JSON document shape a single kernel's
      [metrics_json] produces — codec and wire-pool counters summed
      across shards — plus a [shards] field with the fan-in and a
      [watchdogs] block evaluating shard 0's rules over the merged
      metrics. *)

  val drain_obs : t -> (int * Obs.Span.record list) list
  (** Drain every shard's flight recorder, tagged with shard ids —
      feed directly to {!Obs.Chrome.to_json_sharded} for a trace with
      disjoint per-shard process lanes. *)

  val causal_edges : t -> Obs.Causal.edge list
  (** Every shard's edge table, merged and sorted by (virtual time,
      recording shard, seq) — the mailbox's total order, so two
      same-seed runs produce byte-identical lists. *)

  val drain_causal : t -> Obs.Causal.edge list
end
