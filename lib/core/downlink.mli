(** The agent's path to the next-lower instance of the system
    interface.

    When an agent is installed, the loader captures — per intercepted
    syscall number — whatever handler was installed before it (another
    agent's, for stacked configurations like Figure 1-3/1-4 and nested
    transactions).  Calling {!down} routes to that handler, or to the
    kernel via [Uspace.htg_trap] when the agent is the lowest one.
    The incoming-signal path chains the same way. *)

type t

val create : unit -> t

val capture : t -> numbers:int list -> unit
(** Record the current emulation handlers for [numbers] (and the
    current signal interposer) as this agent's down path.  Must run in
    the target process, before the agent's own handlers are
    installed. *)

val down : t -> Abi.Envelope.t -> Abi.Value.res
(** Invoke the next-lower system interface instance, handing the same
    envelope down so its memoized typed view survives the crossing. *)

val down_call : t -> Abi.Call.t -> Abi.Value.res
(** Typed convenience over {!down}: wraps [c] in an envelope whose
    typed view is authoritative (encoded only if a lower layer demands
    the raw vector).  The envelope record comes from the calling
    process's pool and is released when the lower layers return — a
    handler that stashes it must [Abi.Envelope.retain] it
    (DESIGN.md §3.8).  Counted as an agent call ([Obs.Codec]'s
    [agent_calls]). *)

val pass0 : t -> Abi.Call.t -> Abi.Value.res
val pass1 : t -> int -> ('a -> Abi.Call.t) -> 'a -> Abi.Value.res
val pass2 :
  t -> int -> ('a -> 'b -> Abi.Call.t) -> 'a -> 'b -> Abi.Value.res

val pass3 :
  t -> int -> ('a -> 'b -> 'c -> Abi.Call.t) -> 'a -> 'b -> 'c
  -> Abi.Value.res
(** [pass3 t n mk a b c] is [down_call t (mk a b c)], where [mk]
    builds call number [n] from its arguments.  When the envelope the
    calling process is serving ([Kernel.Proc.serving]) already holds
    call [n] built from physically these [a], [b], [c]
    ({!Abi.Call.same3}), that envelope goes {!down} instead: a
    pass-through builds no call, takes no record from the pool and is
    not counted as an agent call.  The toolkit's defaults are written
    with these; [mk] is a closed constructor, so the call allocates
    nothing of its own.  {!pass1} and {!pass2} are the shorter
    forms, and [pass0 t c] the nullary one: it hands down the envelope
    that holds [c] under [c]'s own number, never {!Abi.Envelope.none}. *)

val captured_handler : t -> int -> (Abi.Envelope.t -> Abi.Value.res) option
(** What {!capture} recorded for one number (used by the loader to
    restore state on uninstall). *)

val captured_signal : t -> (int -> unit) option

val down_signal : t -> int -> unit
(** Deliver a signal to the next level up the stack towards the
    application: the previously installed interposer if any, else the
    application's own handler for that signal (one shared dispatch
    definition, [Kernel.Uspace.deliver_via]). *)
