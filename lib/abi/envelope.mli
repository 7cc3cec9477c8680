(** Decode-once call envelopes.

    A trap crosses the interception stack as an {!t}: the untyped
    {!Value.wire} vector and a lazily-memoized typed {!Call.t} view of
    it travel together, so that however many agents are stacked between
    the application and the kernel, the ABI conversion work is done at
    most once in each direction.

    Origins and their invariants:

    - {!of_wire}: an untyped vector (a foreign-ABI stub's trap, a
      foreign-ABI agent's output).  The typed view materializes on the
      first {!call} and is memoized; every layer below rides it free.
    - {!of_call}: a typed call built by agent or toolkit code on the
      way down.  The typed view is authoritative and the encoding is
      {e dirty} (absent): {!wire} rebuilds it on demand, which only
      happens when a layer actually inspects the raw vector.
    - {!at_boundary}: a typed call crossing the application/system
      boundary.  Per the paper, that boundary is the untyped numeric
      form, and the envelope behaves as an {!of_wire} one of
      [Call.encode c]: undecoded, its first {!typed} read counting the
      one decode, its {!nargs}, {!shape} and {!pp} those of the wire.
      The encode is counted at the boundary and performed only if a
      layer reads the wire, the way virtual time is charged for work
      the host never does; the decode returns the application's own
      call.

    So: at any stacking depth a trap pays at most one decode (at the
    first symbolic layer, or in the kernel when nothing intercepts)
    and re-encodes only when some layer genuinely needs the raw vector
    after a rewrite.  The installed obs engine counts the codec work
    ([Obs.Codec], one engine per kernel shard) so the invariant is
    measured (bench ablation 3, test suite) rather than asserted.

    {b Lifetime and pooling} (DESIGN.md §3.8): an envelope record can
    come from a per-process free list ({!Pool}), which both
    {!at_boundary} and {!of_call} draw from.  A record recycles on
    {!release}, and only while the trap still owns it exclusively —
    never once the raw wire was handed out ({!wire}/{!peek_wire} mark
    the envelope {e exposed}, which also covers rewritten envelopes,
    since forcing the wire of a dirty envelope is the rewrite), and
    never once an agent declared a stash with {!retain}.  Recycled
    records are scrubbed before reuse. *)

type t

(** {1 Record pooling}

    Free lists of envelope records, one per process, feeding both
    {!of_call} and {!at_boundary}: an array-backed stack so a warm
    take/recycle pair allocates nothing, scrub-on-recycle so a stale
    view, wire, flag or span can neither leak into the next trap nor
    pin dead objects against the GC, and hit/miss counters on the
    installed obs engine ([Obs.Env_pool], the [env_pool] metrics
    block). *)
module Pool : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** A fresh, empty pool (default capacity 64 records). *)

  val size : t -> int
  (** Records currently on the free list. *)
end

(** {1 Construction} *)

val none : t
(** No envelope: the placeholder [Proc.serving] holds outside any
    symbolic dispatch.  Its {!held} call is no real call's arguments,
    and it is never released or decoded. *)

val of_wire : Value.wire -> t
(** Wrap an untyped vector; the typed view is decoded lazily.  Born
    {e exposed} (the caller holds the wire), so never recycles. *)

val of_call : ?pool:Pool.t -> Call.t -> t
(** Wrap a typed call; the wire form is encoded lazily (the envelope
    starts {!dirty}).  This is what agents and the toolkit use to send
    new or rewritten calls down the stack.  With [pool], the record
    comes off the free list and {!release} returns it. *)

val at_boundary : ?pool:Pool.t -> Call.t -> t
(** A typed call crossing the application trap boundary, where the ABI
    contract is untyped.  Used by the C-library stubs.  One encode is
    counted now; the envelope then reads as [of_wire (Call.encode c)]
    would: not {!decoded}, not {!dirty}, the first {!typed} counting
    one decode.  The wire is built only when {!wire} or {!peek_wire}
    asks, counting no encode and no rewrite, and that marks the
    envelope exposed.

    This is sound because [Call.decode (Call.encode c)] equals [c] with
    out-parameter refs, buffers and closures physically shared, and no
    code writes a wire's slots: a layer that wants a different call
    builds a new envelope ({!of_call}, {!of_wire}), as [remap] does.

    With [pool] (the calling process's), the record is taken from the
    free list when one is available, so a warm boundary trap allocates
    nothing: the record holds the call in a field of its own;
    {!release} returns the record after the trap.  Without a pool the
    envelope never recycles. *)

val retain : t -> unit
(** Declare that this envelope escapes the trap that carried it: a
    layer is keeping the record past the trap boundary (a trace sink's
    deferred formatter, a replay journal, an obs tap).  {!release}
    then leaves record and wire entirely to the GC, so the stash stays
    readable forever.  Irreversible. *)

val retained : t -> bool

val release : t -> unit
(** Declare the trap that carried this envelope complete and recycle
    it: the record goes back to the {!Pool} it came from — but only
    when the envelope was never handed out raw ({!wire} /
    {!peek_wire} mark it {e exposed}; that includes every rewritten
    envelope and every boundary envelope whose wire a layer read) and
    never {!retain}ed.  In every other case
    this is a no-op and the GC takes over — correctness over reuse.
    Idempotent; after a successful release the record is scrubbed and
    must not be touched again (a stale reference reads the {e next}
    trap's call, which is exactly what {!retain} exists to prevent). *)

(** {1 The two views} *)

val number : t -> int
(** The system call number; always available without codec work. *)

val call : t -> (Call.t, Errno.t) result
(** The typed view, decoding (once) if necessary.  Fails with [ENOSYS]
    for an unknown number, [EFAULT] for malformed arguments; the
    failure itself is memoized. *)

exception Undecodable of Errno.t

val typed : t -> Call.t
(** {!call} without the result box: the memoized [Call.t] itself
    (physically the same value on every read), decoding once if
    necessary.  Raises [Undecodable e] where {!call} returns [Error e].
    The trap path reads through this, so a layer below the first
    decode allocates nothing to see the call. *)

val held : t -> Call.t
(** The call the record holds, without decoding, counting or
    allocating: the typed view of a decoded or {!of_call} envelope, the
    application's call in a boundary one, and a nullary call in an
    undecoded, failed, released or {!none} envelope.  A pass-through
    reads the envelope it serves through this and compares it with
    {!Call.same3} ([Downlink.pass3]); a nullary call matches no call
    with arguments. *)

val wire : t -> Value.wire
(** The untyped view, encoding (once) if necessary.  A dirty envelope's
    encode is a rewrite and counted as one; a boundary envelope's was
    counted at the boundary. *)

val peek_wire : t -> Value.wire option
(** The wire form only if it exists — never encodes a dirty envelope.
    A boundary envelope's wire always exists, so this builds it. *)

val nargs : t -> int
(** Arity of the wire form, a boundary envelope's read off its call's
    row ([Call.nargs]); 0 when no wire exists. *)

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
    {!of_call} envelopes, from the first {!typed} read for
    {!at_boundary} ones).  A layer about to pay virtual decode cost
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
    {!typed}, the encodes in {!wire} and {!at_boundary} — is attributed
    to whichever layer frame is innermost on that span when it
    happens, which is what gives bench its per-layer codec table. *)

val span : t -> int
val set_span : t -> int -> unit
(** Normally only [Uspace] re-stamps an envelope, when it opens the
    span {e after} the envelope was built (the re-entrant [trap] entry
    point). *)
