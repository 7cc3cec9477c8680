(** The trace agent (§3.3.2): prints every system call made and every
    signal received by its client processes, in strace(1) style.

    Built, as in the paper, from a derived version of {e each} symbolic
    system call method — the per-call code is what makes this agent's
    size proportional to the size of the system interface (Table 3-1).
    Every traced call produces exactly two [write]s on the trace
    descriptor: one as the call starts, one as it returns (the paper's
    two-writes-per-call behaviour that drives its overhead numbers).
    Trace output is not buffered across calls, so it survives the
    client being killed.

    Each line is rendered once, straight into one [Buffer.t] owned by
    the agent, by the {!Render} helpers (no [Printf]), and written
    with one [Buffer.contents].  Each call line is
    [Obs.Span.call_line] of an [Obs.Span.call] record; when obs is
    enabled that record is also built and appended to the flight
    recorder, so [agentrun --agent trace] text and [--trace-out] JSONL
    are two renderings of one stream.  A return line ends in [" [rewritten]"] when a layer below
    rewrote the call in flight, which obs tracks only while enabled.

    Buffer arguments print as [0x<n>[<length>]], where [<n>] is an
    ordinal (in hex) that advances whenever the buffer is not
    physically the previous one seen by this agent.  It reads no
    contents, since a read buffer is uninitialised at entry, so a
    trace is byte-identical from run to run.

    Declared delta: none — tracing is pure observation, and the
    conformance checker holds it to that (the trace descriptor's
    writes are agent-originated, so they never enter the client's
    syscall signature). *)

(** The argument renderers.  Each appends one argument to the line
    under construction and returns the buffer, so an entry line is
    one pipeline, e.g.
    [self#call "read" |> int fd |> self#bytes buf |> int cnt].  A
    [", "] separator goes first unless the buffer is empty or ends in
    ['(']. *)
module Render : sig
  val int : int -> Buffer.t -> Buffer.t
  (** As [Printf "%d"]. *)

  val octal : int -> Buffer.t -> Buffer.t
  (** As [Printf "0%o"]. *)

  val hex : int -> Buffer.t -> Buffer.t
  (** As [Printf "0x%x"]. *)

  val str : string -> Buffer.t -> Buffer.t
  (** As [Printf "%S"]. *)
end

class agent : object
  inherit Toolkit.symbolic_syscall

  method set_output : int -> unit
  (** Trace to this descriptor (default 2). *)
end

val create : ?fd:int -> unit -> agent
(** [init] also accepts an [[| "fd=<n>" |]] argument, as the loader
    would pass. *)
