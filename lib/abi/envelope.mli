(** Decode-once call envelopes.

    A trap crosses the interception stack as an {!t}: the untyped
    {!Value.wire} vector and a lazily-memoized typed {!Call.t} view of
    it travel together, so that however many agents are stacked between
    the application and the kernel, the ABI conversion work is done at
    most once in each direction.

    Origins and their invariants:

    - {!of_wire}: an untyped vector (the application trap boundary, a
      foreign-ABI agent's output).  The typed view materializes on the
      first {!call} and is memoized; every layer below rides it free.
    - {!of_call}: a typed call built by agent or toolkit code on the
      way down.  The typed view is authoritative and the encoding is
      {e dirty} (absent): {!wire} rebuilds it on demand, which only
      happens when a layer actually inspects the raw vector.
    - {!at_boundary}: a typed call crossing the application/system
      boundary.  Per the paper, that boundary is the untyped numeric
      form, so the call is encoded immediately and the typed view is
      deliberately dropped — interposed agents see exactly the wire
      form the application emitted.

    So: at any stacking depth a trap pays at most one decode (at the
    first symbolic layer, or in the kernel when nothing intercepts)
    and re-encodes only when some layer genuinely needs the raw vector
    after a rewrite.  {!Stats} counts the codec work per kernel shard
    so the invariant is measured (bench ablation 3, test suite) rather
    than asserted.

    {b Lifetime and pooling} (DESIGN.md §3.8): an envelope record can
    come from a per-process free list ({!Pool}), and a pooled record
    owns one wire for life, which every boundary trap that takes the
    record refills in place.  Record and wire recycle together on
    {!release}, and only while the trap still owns them exclusively —
    never once the raw wire was handed out ({!wire}/{!peek_wire} mark
    the envelope {e exposed}, which also covers rewritten envelopes,
    since forcing the wire of a dirty envelope is the rewrite), and
    never once an agent declared a stash with {!retain}.  Recycled
    records are scrubbed before reuse, owned wire included. *)

type t

(** {1 Record pooling}

    Free lists of envelope records, one per process, feeding both
    {!of_call} and {!at_boundary}: an array-backed stack so a warm
    take/recycle pair allocates nothing, scrub-on-recycle so a stale
    view, wire or argument can neither leak into the next trap nor pin
    dead objects against the GC, and a shard-owned counter set
    ([Kernel.env_pool_stats], the [env_pool] metrics block). *)
module Pool : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** A fresh, empty pool (default capacity 64 records). *)

  val size : t -> int
  (** Records currently on the free list. *)

  (** Counters aggregating over every envelope pool of one kernel
      shard, in the snapshot/diff style of {!Stats}. *)
  module Stats : sig
    type snapshot = {
      hits : int;      (** takes served from the free list *)
      misses : int;    (** takes that fell back to allocation *)
      recycled : int;  (** records returned for reuse *)
      dropped : int;   (** returns rejected by a full pool *)
    }

    type t

    val create : unit -> t
    val install : t -> unit
    val installed : unit -> t
    val snapshot_of : t -> snapshot
    val reset_of : t -> unit
    val diff : snapshot -> snapshot -> snapshot
    val pp : Format.formatter -> snapshot -> unit
    val to_json : snapshot -> Obs.Json.t
  end
end

(** {1 Construction} *)

val of_wire : Value.wire -> t
(** Wrap an untyped vector; the typed view is decoded lazily.  Born
    {e exposed} (the caller holds the wire), so never recycles. *)

val of_call : ?pool:Pool.t -> Call.t -> t
(** Wrap a typed call; the wire form is encoded lazily (the envelope
    starts {!dirty}).  This is what agents and the toolkit use to send
    new or rewritten calls down the stack.  With [pool], the record
    comes off the free list and {!release} returns it. *)

val at_boundary : ?pool:Pool.t -> Call.t -> t
(** Encode a typed call for the application trap boundary: the wire
    form is materialized now (and counted), the typed view dropped.
    Used by the C-library stubs, where the ABI contract is untyped.

    With [pool] (the calling process's), the record is taken from the
    free list when one is available and the call is encoded into the
    wire that record owns ([Call.encode_into]), so a warm boundary trap
    allocates neither; {!release} returns both after the trap.  Without
    a pool the envelope never recycles. *)

val retain : t -> unit
(** Declare that this envelope escapes the trap that carried it: a
    layer is keeping the record past the trap boundary (a trace sink's
    deferred formatter, a replay journal, an obs tap).  {!release}
    then leaves record and wire entirely to the GC, so the stash stays
    readable forever.  Irreversible. *)

val retained : t -> bool

val release : t -> unit
(** Declare the trap that carried this envelope complete and recycle
    it: the record, with the wire it owns, goes back to the {!Pool} it
    came from — but only when the envelope was never handed out raw
    ({!wire} / {!peek_wire} mark it {e exposed}; that includes every
    rewritten envelope) and never {!retain}ed.  In every other case
    this is a no-op and the GC takes over — correctness over reuse.
    Idempotent; after a successful release the record is scrubbed and
    must not be touched again (a stale reference reads the {e next}
    trap's call, which is exactly what {!retain} exists to prevent). *)

val owned_wire : t -> Value.wire option
(** The wire a pooled record owns ({!at_boundary}), read without
    marking the envelope exposed.  For checking the recycle scrub only:
    layers on the trap path use {!wire} / {!peek_wire}. *)

(** {1 The two views} *)

val number : t -> int
(** The system call number; always available without codec work. *)

val call : t -> (Call.t, Errno.t) result
(** The typed view, decoding (once) if necessary.  Fails with [ENOSYS]
    for an unknown number, [EFAULT] for malformed arguments; the
    failure itself is memoized. *)

val wire : t -> Value.wire
(** The untyped view, encoding (once) if necessary. *)

val peek_wire : t -> Value.wire option
(** The wire form only if already materialized — never encodes. *)

val nargs : t -> int option
(** Arity of the wire form, if materialized. *)

val shape : t -> string
(** The {!Shape} classification of the argument vector, computed from
    whichever view is already materialized ([Shape] guarantees both
    give the same string).  Unlike {!peek_wire} this does not mark the
    wire exposed, and it never performs (or counts) codec work — the
    signature tap must not perturb what it measures.  ["?"] only for
    an undecodable envelope with no wire, which cannot arise on the
    trap path. *)

val decoded : t -> bool
(** Whether the typed view has been materialized (true from birth for
    {!of_call} envelopes).  A layer about to pay virtual decode cost
    checks this first: memoized views are free. *)

val dirty : t -> bool
(** Whether the typed view is authoritative but not (re-)encoded: a
    {!wire} on a dirty envelope performs real encode work. *)

val pp : Format.formatter -> t -> unit
(** Renders the typed view when available, the raw vector otherwise. *)

(** {1 Span attribution}

    Every envelope carries the [Obs] span id of the trap it belongs to
    (0 when tracing is off), stamped at construction from
    [Obs.current ()] and inherited by envelopes agents build mid-trap
    via {!of_call}.  Codec work on the envelope — the decode in
    {!call}, the encodes in {!wire} and {!at_boundary} — is attributed
    to whichever layer frame is innermost on that span when it
    happens, which is what gives bench its per-layer codec table. *)

val span : t -> int
val set_span : t -> int -> unit
(** Normally only [Uspace] re-stamps an envelope, when it opens the
    span {e after} the envelope was built (the re-entrant [trap] entry
    point). *)

(** {1 Codec accounting}

    Counters over every envelope of one kernel shard, bumped only when
    real codec work happens (memoized hits are free).  A live counter
    set ({!Stats.t}) is owned by its [Kernel.t] and installed whenever
    that shard runs (DESIGN.md §3.6), so two kernels in one process
    account independently; a default set is installed at program start
    for envelope use outside any kernel.  The bench harness and the
    test suite take {!Stats.snapshot}s around a workload and check
    invariants on the {!Stats.diff}: e.g. under a stack of null
    symbolic agents, [decodes = traps] exactly — one decode per
    intercepted trap, at any depth. *)
module Stats : sig
  type snapshot = {
    traps : int;         (** application-level trap entries *)
    intercepted : int;   (** traps that ran an installed handler *)
    fast_path : int;     (** traps with no handler installed, sent
                             straight to the kernel; always
                             [traps = fast_path + intercepted] *)
    decodes : int;       (** wire → typed materializations *)
    encodes : int;       (** typed → wire materializations *)
    crossings : int;     (** envelope handed down one stack layer *)
    agent_calls : int;   (** envelopes originated by agent/toolkit code *)
  }

  type t
  (** A live counter set (one per kernel shard). *)

  val create : unit -> t
  (** A fresh, zeroed set. *)

  val install : t -> unit
  (** Make [c] the set envelope codec work bumps.  [Kernel] installs
      the running shard's set on entry; agent and test code should not
      normally need this. *)

  val installed : unit -> t
  (** The set currently receiving counts. *)

  val snapshot_of : t -> snapshot
  (** Read a specific shard's counters ([Kernel.codec_stats] is
      [snapshot_of] on the kernel's own set). *)

  val reset_of : t -> unit
  (** Zero a set you own — e.g. a scratch set under test.  The old
      mid-session hygiene problem is structurally gone: resetting one
      shard's counters cannot disturb another shard's open measurement
      window.  Within a shard, still prefer {!diff} over zeroing. *)

  val diff : snapshot -> snapshot -> snapshot
  (** [diff before after]: counts in the window between two snapshots.

      {b Contract} (updates the PR 2 note): this remains the way to
      scope counters to a workload.  Per-shard ownership removed the
      cross-session footgun — a reset in one shard can no longer skew
      another's window — but within a single shard a mid-session
      [reset_of] still discards partial codec work of open traps, so
      measure with snapshot pairs, not zeroing. *)

  val pp : Format.formatter -> snapshot -> unit

  val to_json : snapshot -> Obs.Json.t
  (** The ["codec"] block of [Kernel.metrics_json] and [/obs/metrics]
      — notably the [fast_path] and [intercepted] counters next to the
      span metrics. *)

  (** {2 Attribution hooks} — called by the kernel stubs and the
      toolkit's down path; not meant for agent code. *)

  val note_trap_intercepted : unit -> unit
  (** A trap whose handler slot held an installed handler: counted in
      [traps] and [intercepted]. *)

  val note_trap_fast : unit -> unit
  (** A trap whose handler slot was empty: counted in [traps] and
      [fast_path]. *)

  val note_crossing : unit -> unit
  val note_agent_call : unit -> unit
end
