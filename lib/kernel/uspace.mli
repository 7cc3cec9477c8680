(** User-space system-call stubs: the code that would live in the
    syscall trap path of a real process.

    [trap_wire] is the moral equivalent of the trap instruction: it
    consults the process's in-address-space emulation vector first
    (installed by {!task_set_emulation}), so an interposition agent
    sees the call before the kernel does.  {!htg_trap} (the paper's
    [htg_unix_syscall]) bypasses
    the vector, letting agent code reach the underlying implementation
    of a call it intercepts — the two primitives the paper's toolkit
    builds on.

    Signals with user handlers are delivered on the way out of traps,
    through the agent's signal interposer when one is registered.

    When [Obs] tracing is enabled, every trap entry here opens a span
    and an outermost "uspace" layer frame (and, when no emulation
    handler is interposed, a "kernel" frame around the raw trap), so
    per-layer latency and codec attribution work even at interposition
    depth 0.  With tracing off the instrumentation is a single flag
    check — no virtual time is ever charged for observation.

    The two application entry points, {!trap_wire} and {!syscall}, are
    also where the shard's syscall signature is recorded while one is
    armed ([Kernel.with_signature]), with tracing on or off: one
    [Abi.Signature] event per trap, issued as the trap is made and
    given its outcome when it returns.  The htg entry points never
    record, so a signature is exactly the interface the application
    sees. *)

val trap_wire : Abi.Value.wire -> Abi.Value.res
(** Numeric-form application trap: wraps the vector in a fresh
    envelope.  Counts toward the shard's trap statistics; pays the
    30 µs interception cost when an emulation handler is installed for
    the number. *)

val syscall : Abi.Call.t -> Abi.Value.res
(** Typed application-boundary call ({!Abi.Envelope.at_boundary}).
    The boundary contract is the untyped vector, so stacked agents see
    exactly what a real application would have trapped with: the
    encode is counted here, but the wire is built only if a layer
    reads it, and the first interested layer counts the single decode.
    The envelope record is drawn from the calling process's pool
    ([Proc.env_pool]) and recycled when the trap completes with the
    envelope still exclusively owned ({!Abi.Envelope.release}). *)

val htg_trap : Abi.Envelope.t -> Abi.Value.res
(** Call the underlying system interface even if the number is being
    intercepted (+37 µs, Table 3-4). *)

val htg_syscall : Abi.Call.t -> Abi.Value.res
(** Typed convenience over {!htg_trap}; the typed view rides the
    envelope down with no codec work at all. *)

val take_chunk : unit -> Bytes.t
(** Borrow a 4,096-byte read chunk from the current shard's pool
    ({!Kstate.take_chunk}): the buffer of a whole-file read loop's
    [read(fd, buf, 4096)].  Allocation-free while the pool holds one. *)

val give_chunk : Bytes.t -> unit
(** Give back a chunk from {!take_chunk} on the call's way out, after
    its last use.  A call that unwinds instead (killed, exec'd) keeps
    its chunk, which the GC collects. *)

val cpu_work : int -> unit
(** Charge local computation to the virtual clock.  Also a signal
    delivery point, like any trap. *)

(** {1 Signal dispatch}

    The single definition of "hand signal [s] to the layer above",
    shared by the trap exit path here and by the toolkit's downlink
    chain ([Downlink.down_signal]). *)

val deliver_via : (int -> unit) option -> int -> unit
(** Route through an interposer when one is given, else fall back to
    the calling process's own disposition for [s]: its [H_fn] handler,
    or nothing for default/ignore. *)

(** {1 Mach-style task primitives}

    Each acts on the calling task's own tables and is then a
    scheduling point (a yield to the run queue, with no signal
    check). *)

val task_set_emulation :
  numbers:int list -> (Abi.Envelope.t -> Abi.Value.res) option -> unit
(** Install ([Some]) or clear ([None]) the emulation handler for the
    given system call numbers in the calling task. *)

val task_get_emulation : int -> (Abi.Envelope.t -> Abi.Value.res) option

val task_set_emulation_signal : (int -> unit) option -> unit
val task_get_emulation_signal : unit -> (int -> unit) option

val exec_load : Events.exec_spec -> 'a
(** Replace the calling process's program text; never returns.  With
    [keep_emulation = true] the interception state survives, which is
    how the toolkit's reimplemented [execve] keeps the agent alive
    across an exec. *)

val self : unit -> Proc.t
(** The calling process (stubs run in process context): the current
    shard's running process.
    @raise Failure outside any process. *)

val current_proc : unit -> Proc.t option
(** The current shard's running process, if any: [None] outside a
    simulation and while kernel code runs. *)
