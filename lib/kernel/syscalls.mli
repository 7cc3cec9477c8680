(** The system call dispatcher: one typed call in, one outcome out.

    Dispatch never blocks; when a call cannot complete it returns
    [Block cond], the caller parks, and its fibre serves the same call
    again when the condition is woken (BSD restart semantics; the
    calls for which a blind restart would be wrong — [sleepus] — are
    resumed directly by the timer instead). *)

val dispatch : Kstate.t -> Proc.t -> Abi.Call.t -> Kstate.outcome

val done_ret : ?r1:int -> int -> Kstate.outcome
(** [Done (Value.ret ?r1 v)], the outcome of a success.  For [r1 = 0]
    and [0 <= v < Proc.fd_table_size] (descriptor numbers, zero
    statuses, short byte counts) it is a value built once and shared by
    every trap, so such a success allocates nothing: kernel results are
    immutable and never compared physically. *)

val serve :
  ?via:Events.via -> Kstate.t -> Proc.t -> Abi.Envelope.t -> Kstate.outcome
(** One trap's kernel work: decode the envelope (a memoized read when
    an agent above already decoded it), charge the call's base cost,
    {!dispatch}, and run the trace hook on completion.  [via] says how
    a first arrival reached the kernel and selects its cost; a restart
    after a wake-up was paid for then and passes none.  An undecodable
    envelope completes with its error (trivial cost, no trace hook). *)

val restartable : ?errno:Abi.Errno.t -> int -> bool
(** The restart policy itself, as a predicate on syscall numbers:
    [true] for the calls an interruption transparently re-issues
    (read, write, wait4, ...), [false] for the [sleepus]-class calls
    (sleepus, select, sigsuspend) where a blind restart would be wrong
    and EINTR may legitimately surface.  Fault-injection agents route
    injected [EINTR] through this predicate: on a restartable call the
    injected interruption becomes an invisible restart (the call is
    re-issued down the stack), exactly as the kernel itself would
    behave.

    [errno] is the error about to be surfaced, when it is not EINTR
    itself: a call that failed with [EPIPE] is never restartable —
    the write/send already broke the pipe and raised SIGPIPE, so
    re-issuing it would only multiply the damage. *)
