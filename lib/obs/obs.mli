(** Observability: per-trap spans, a flight-recorder ring, and
    aggregated syscall/layer metrics (DESIGN.md §3.2, sampling and
    export §3.4).

    A {e span} covers one trap from [Uspace.syscall] entry to result
    delivery.  While it is open, each layer the trap passes through —
    uspace, every stacked agent, downlink, the kernel handler — holds a
    {e frame}; closing a frame publishes a {!Span.segment} (virtual-µs
    self/total time plus the envelope decode/encode/rewrite events that
    fired while the frame was on top) into the ring buffer and into the
    per-(depth, layer) aggregation.  Per-span self times sum exactly to
    the root frame's total, which is what makes the per-layer
    attribution table in [bench] consistent with the end-to-end
    numbers.

    With a 1-in-N sampler installed ({!set_sampling}), the keep/skip
    decision is made once per trap at {!span_begin} from a seeded
    deterministic stream; unsampled traps keep per-syscall call/error
    counts exact but record no frames, no histogram observations and no
    ring traffic, so always-on observation costs a counter bump and one
    RNG draw per trap.

    State is keyed by span id — fibres interleave at effect points, so
    spans of several processes are routinely open at once; a per-pid
    stack exists only to answer {!current}.  Observation charges no
    virtual time: enabling tracing moves no published µs figure.  When
    disabled ({!enabled}[ = false]) every entry point is a cheap no-op
    (span id 0).

    Syscall signatures (conformance) are not kept here: they are the
    kernel shard's record of its application interface
    ([Abi.Signature], armed by [Kernel.with_signature]), exact with
    observation off or sampled. *)

module Ring = Ring
module Hist = Hist
module Json = Json
module Span = Span
module Chrome = Chrome
module Causal = Causal
module Flame = Flame
module Stream = Stream
module Watch = Watch

(** {1 Engines}

    All engine state — the on/off switch, clock and context hooks,
    sampler, span tables, ring, aggregations, and the codec and
    envelope-pool counters — lives in an {!engine} value.  Each kernel
    shard owns one (DESIGN.md §3.6); entering a shard {!install}s its
    engine so the unit-argument API below, called from code deep in the
    trap path, reaches the right engine without threading a handle
    through every signature.  A default engine is installed at program
    start, so engine-only use (driving spans with no kernel) keeps
    working unchanged. *)

type engine

val engine : unit -> engine
(** A fresh, disabled engine with empty tables and a ring of 4096
    records. *)

val engine_like : engine -> engine
(** A fresh engine inheriting [src]'s {e configuration} — enabled
    switch, sampling rate and seed (decision stream restarted), ring
    capacity — but none of its data.  [Kernel.create] builds each
    shard's engine this way from the installed one, which is what keeps
    the established "configure observation, then create the kernel"
    call order working now that engines are per-shard. *)

val install : engine -> unit
(** Make [e] the engine the unit-argument API operates on. *)

val installed : unit -> engine

val with_engine : engine -> (unit -> 'a) -> 'a
(** Run [f] with [e] installed, restoring the previous engine after
    (exception-safe). *)

(** {1 Switches and environment hooks}

    Everything below reads and writes the {e installed} engine. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val set_clock : (unit -> int) -> unit
(** Source of virtual-clock µs; [Kernel.create] installs the simulation
    clock here. *)

val set_context : (unit -> int) -> unit
(** Source of the currently-running simulated pid (0 when none);
    [Kernel.create] installs a read of its shard's running process. *)

val now_us : unit -> int
val current_pid : unit -> int

val configure : ?ring_capacity:int -> unit -> unit
(** Replace the flight recorder (default capacity 4096 records);
    discards its current contents. *)

val set_sampling : ?seed:int -> int -> unit
(** [set_sampling ~seed n] keeps 1 in [n] spans (n ≤ 1 keeps all, the
    default).  The decision stream is a [Sim.Rng] seeded with [seed]
    (default 0) consuming exactly one draw per trap when [n > 1], so a
    run's keep/skip choices are reproducible and replayable. *)

val sampling : unit -> int
(** The current 1-in-N rate (1 = keep everything). *)

val reset : unit -> unit
(** Clear all state: open spans, aggregations, the ring.  The sampling
    rate and seed persist but the decision stream restarts, so a reset
    window replays the same choices.  Call between independent
    measurement windows.  The {!Codec} and {!Env_pool} counters and the
    per-process {!rewrites} counts are cumulative and survive it:
    scope them to a window with a [diff] of two snapshots. *)

(** {1 Span lifecycle} *)

val span_begin : pid:int -> sysno:int -> int
(** Open a span; returns its id, or 0 when disabled.  Sampled span ids
    are positive and unique within a session; a span the sampler skips
    returns a {e negative} sentinel (still passed to {!span_end}, so
    error counts stay exact) and records nothing else.  The
    per-syscall call count is bumped here — exact at any rate. *)

val span_end : int -> error:bool -> unit
(** Close a span: folds it into the per-syscall counters/histogram.
    No-op on id 0 or an already-closed/aborted span; on a negative
    (unsampled) sentinel only the exact error count is updated. *)

val current : unit -> int
(** Innermost open span of the current process (via the context hook),
    or 0.  Envelope constructors use this to tag fresh envelopes. *)

val abort_pid : int -> unit
(** Force-close every open span of a process.  Called on [exit] and
    [exec], whose traps never return to the instrumentation that opened
    them; such spans count as aborted, not completed, and leave an
    ["abort"] mark in the ring. *)

(** {1 Layer frames} *)

type frame

val layer_enter : span:int -> string -> frame option
(** Push a frame named after the layer; [None] when the span is 0,
    unsampled (negative) or no longer live (then nothing need be
    recorded). *)

val layer_exit : frame -> unit
(** Pop the frame, publishing its segment.  Tolerates the span having
    been aborted underneath it, and closes any younger frames an
    exception skipped over. *)

val in_layer : span:int -> string -> (unit -> 'a) -> 'a
(** [in_layer ~span layer f] wraps [f] in an enter/exit pair,
    exception-safely.  Runs [f] bare when the span is dead, unsampled
    or 0. *)

(** {1 Codec, envelope-pool and rewrite counting}

    Counters over every envelope of one engine's shard, bumped only
    when real work happens (memoized views are free).  They are exact
    and cumulative: counted whether or not the engine is enabled, never
    thinned by the sampler, untouched by {!reset}.  The bench harness
    and the test suite take snapshots around a workload and check
    invariants on the [diff]: e.g. under a stack of null symbolic
    agents, [decodes = traps] exactly — one decode per intercepted
    trap, at any depth. *)

module Codec : sig
  type t = {
    traps : int;         (** application-level trap entries *)
    intercepted : int;   (** traps that ran an installed handler *)
    fast_path : int;     (** traps with no handler installed, sent
                             straight to the kernel; always
                             [traps = fast_path + intercepted] *)
    decodes : int;       (** wire → typed materializations *)
    encodes : int;       (** typed → wire materializations *)
    crossings : int;     (** envelope handed down one stack layer *)
    agent_calls : int;   (** envelopes originated by agent/toolkit code:
                             calls an agent builds ([Downlink.down_call]),
                             not the pass-throughs that hand down the
                             envelope they serve ([Downlink.pass3]) *)
  }

  val diff : t -> t -> t
  (** [diff before after]: counts in the window between two snapshots. *)

  val pp : Format.formatter -> t -> unit

end

(** Hit/miss counters over every envelope pool of one shard (records
    and the wires they own). *)
module Env_pool : sig
  type t = {
    hits : int;      (** takes served from the free list *)
    misses : int;    (** takes that fell back to allocation *)
    recycled : int;  (** records returned for reuse *)
    dropped : int;   (** returns rejected by a full pool *)
  }

  val diff : t -> t -> t
end

val codec_of : engine -> Codec.t
val env_pool_of : engine -> Env_pool.t

(** The counting hooks, for the envelope codecs, uspace stubs and the
    toolkit's down path; not meant for agent code. *)

val note_trap_fast : unit -> unit
(** A trap whose handler slot was empty: counted in [traps] and
    [fast_path]. *)

val note_trap_intercepted : unit -> unit
(** A trap whose handler slot held a handler: counted in [traps] and
    [intercepted]. *)

val note_crossing : unit -> unit
val note_agent_call : unit -> unit
val note_pool_hit : unit -> unit
val note_pool_miss : unit -> unit
val note_pool_recycled : unit -> unit
val note_pool_dropped : unit -> unit

val note_decode : int -> unit
(** An envelope belonging to this span was decoded: counted, and
    attributed to the span's innermost open frame when the span is
    sampled (> 0). *)

val note_encode : int -> unit

val note_rewrite : int -> unit
(** The call (or its result) was rewritten in flight: counted against
    the current process ({!rewrites}), and attributed to the span's
    innermost frame when the span is sampled.  Fired automatically when
    a dirty envelope forces a re-encode (a "genuine rewrite", DESIGN.md
    §3.1), and explicitly by mutating agents — crypt's payload
    transform, timex's result shift, remap's ABI translation. *)

val rewrites : unit -> int
(** Rewrites noted so far while the current process ran (since its
    last exec) — exact at any sampling rate and with the engine off.
    The trace agent compares two readings around a call to flag calls
    some lower layer mutated. *)

(** {1 Trace-agent records and marks} *)

val record_call : Span.call -> unit
(** Append a trace-agent call record to the ring (no-op when
    disabled). *)

val record_mark : ?span:int -> ?pid:int -> kind:string -> detail:string -> unit -> unit
(** Append a point event to the ring (no-op when disabled); [pid]
    defaults to the context hook's current process.  Used for signal
    deliveries and injected-fault instants; span aborts push their own
    mark. *)

val note_injected : unit -> unit
(** An agent deliberately injected a fault into the current trap.
    Counted exactly whenever the engine is enabled (the sampler does
    not apply — an injected fault is an event of record, not a latency
    sample); reported as [m_injected] / the ["injected"] metrics
    field.  Fault agents pair this with a {!record_mark}
    [~kind:"inject"] instant on the trap's span. *)

(** {1 Causal edges}

    The cross-process event graph (DESIGN.md §3.9): fork, signal and
    pipe edges between spans, recorded by kernel hooks as
    {!Span.Edge} records of the flight recorder.  An edge is recorded
    only into a sampled trap, so at 1-in-N the log holds only edges
    whose destination is a sampled span; its source may be unsampled
    or span-less (a non-positive span, which drops out of
    {!Causal.slice} and Chrome flow views) and is still named by pid.
    They are raw records: when the ring wraps the oldest are lost and
    counted in {!dropped}.  Read them with {!Span.edges} over a drain,
    or follow them with {!poll}.  Each hook is pure bookkeeping on the
    installed engine: edges charge zero virtual time, so no published
    µs figure moves.

    Fork and signal edges resolve in two halves, and the pending half
    lives on the kernel object it describes: a fork's origin on the
    child process until its first instrumented trap, a kill's origin
    beside the signal's pending bit until delivery.  Pipe edges
    resolve through the ring's writer {!stamps}: writes stamp the
    absolute byte intervals they put in with the writing span, reads
    consume them, and the ring counts the offsets whether obs is on or
    off.  The engine itself keeps no half-edge.  Cross-shard signal
    edges ship their origin with the cluster mail and complete on the
    destination shard. *)

val set_shard : int -> unit
(** Stamp the installed engine with its owning shard id
    ([Kernel.create] does this); edge endpoints carry it because span
    ids are unique only per engine. *)

type origin = int * int * int
(** Where a causal edge starts: [(shard, span, pid)]. *)

val causal_origin : int -> origin
(** [(shard, innermost open span, pid)] of process [pid] on the
    installed engine (span 0 with obs off): a fork's or a kill's
    source, and what [Cluster.send] stamps into cross-shard mail. *)

val causal_edge :
  Causal.kind -> origin:origin -> span:int -> pid:int -> detail:string
  -> unit
(** Complete a fork or signal edge from [origin] to span [span] of
    [pid] on the installed engine; a no-op with obs off or when [span]
    is not a sampled span ([span <= 0]). *)

val chan_pipe : int -> int
(** The causal channel of an anonymous pipe, by pipe id: an immediate
    int, as are {!chan_fifo} and {!chan_sock}.  Edge details name it
    ["pipe#<id>"], ["fifo#<ino>"] or ["sock#<id>"]. *)

val chan_fifo : int -> int
(** A FIFO's channel, by inode number. *)

val chan_sock : int -> int
(** One direction of a stream connection, by the id of the pipe that
    carries it. *)

type stamps
(** One ring's writer stamps, oldest first: held by the ring's byte
    queue, shared by every open of it. *)

val no_stamps : stamps
(** The stamps of a ring never stamped: an immediate, shared by every
    such ring, so a ring pays for its queue only on its first stamped
    write. *)

val causal_pipe_write :
  stamps -> at:int -> pid:int -> bytes:int -> stamps
(** [pid]'s current trap wrote the ring's bytes [\[at, at + bytes)]
    ([at] counts every byte the ring ever took): stamp them with its
    span, and return the ring's stamps from now on ([no_stamps] is
    replaced by a fresh queue).  A no-op with obs off. *)

val causal_pipe_read :
  stamps -> chan:int -> at:int -> pid:int -> bytes:int -> unit
(** [pid]'s current trap read the ring's bytes [\[at, at + bytes)]:
    emit one Pipe edge per distinct writer span those bytes came from,
    detail ["<kind>#<id> bytes <lo>..<hi>"] for channel [chan], and
    drop the stamps this read used up or passed.  A read outside a
    sampled span only drops the stamps.  A no-op with obs off. *)

(** {1 Streaming} *)

val poll : Stream.cursor -> Span.record list * int
(** Incremental drain of the installed engine's ring: records pushed
    since the cursor's last poll (each delivered at most once) and
    the count lost to ring overwrite or an interleaved full
    {!drain}.  Non-destructive — followers never steal records from
    the final drain. *)

val poll_of : engine -> Stream.cursor -> Span.record list * int

(** {1 Reading the flight recorder} *)

val records : unit -> Span.record list
(** Oldest first; non-destructive. *)

val drain : unit -> Span.record list
(** Read and clear (also resets the dropped counter). *)

val segments : unit -> Span.segment list
(** Just the layer segments from {!records}. *)

val dropped : unit -> int

(** {1 Metrics} *)

(** Per-syscall figures are kept for sysnos in [\[0, 1024)].  Every trap
    whose number lies outside that range (an application may trap with
    any int) is counted in the one overflow row, sysno 1024. *)
type syscall_metrics = {
  sm_sysno : int;
  sm_calls : int;   (** traps opened for this sysno — {e exact} at any
                        sampling rate, aborted traps included *)
  sm_errors : int;  (** of which returned an error result — exact *)
  sm_hist : Hist.t; (** end-to-end span latency, virtual µs — sampled *)
}

type layer_metrics = {
  lm_depth : int;    (** frame nesting depth within its span *)
  lm_layer : string;
  lm_traps : int;    (** frames closed at this (depth, layer) — sampled *)
  lm_decodes : int;
  lm_encodes : int;
  lm_rewrites : int; (** in-flight call rewrites attributed here *)
  lm_self_us : int;  (** sum of per-frame self time *)
  lm_total_us : int; (** sum of per-frame total time *)
  lm_hist : Hist.t;  (** per-frame self-time distribution *)
}

type metrics = {
  m_spans : int;    (** sampled spans completed normally *)
  m_aborted : int;  (** sampled spans force-closed by exit/exec *)
  m_injected : int; (** faults injected by agents ({!note_injected}) —
                        {e exact} at any sampling rate *)
  m_open : int;     (** spans still open at snapshot time *)
  m_dropped : int;  (** ring records overwritten before draining *)
  m_sample_n : int; (** 1-in-N rate the sampled figures cover *)
  m_syscalls : syscall_metrics list; (** ascending sysno *)
  m_layers : layer_metrics list;     (** ascending (depth, layer) *)
  m_codec : Codec.t;                 (** exact, cumulative *)
  m_env_pool : Env_pool.t;           (** exact, cumulative *)
}

val metrics : unit -> metrics

val metrics_of : engine -> metrics
(** Snapshot a specific engine (the kernel's handle-based accessors use
    this; {!metrics} is [metrics_of (installed ())]). *)

val drain_of : engine -> Span.record list

val metrics_to_json : ?name:(int -> string) -> metrics -> Json.t
(** [name] renders syscall numbers (callers pass [Abi.Call.name]; obs
    itself stays below [abi] in the library stack and cannot).
    Histograms carry [p50_us]/[p90_us]/[p99_us] upper-bucket-bound
    estimates ({!Hist.quantile}); when [sample_n > 1], sampled figures
    gain pre-scaled [est_*] companions so consumers can tell estimated
    from exact.  The last two members are the ["codec"] and
    ["env_pool"] counter blocks. *)
