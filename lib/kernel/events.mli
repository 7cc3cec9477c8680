(** Effect declarations shared by the scheduler (handler side) and the
    user-space stubs (perform side).

    A simulated process is an OCaml fibre.  A system call runs its
    kernel half directly on the calling fibre ({!Uspace}) and performs
    an effect only when the scheduler has work to do
    ({!Kstate.Settle}); the primitives here always go through the
    scheduler in {!Kernel}. *)

(** How a trap reached the kernel: directly from the application, or
    through [Uspace.htg_trap] (which bypasses the emulation vector and
    costs an extra 37 µs, Table 3-4). *)
type via = App | Htg

(** What a trap resumes with: the call's result, plus any signals the
    kernel decided must be delivered to user-space handlers before the
    stub returns to the application. *)
type trap_reply = {
  res : Abi.Value.res;
  deliver : int list;
}

(** Parameters of the exec-load Mach-style primitive: replace the
    calling process's program text.  [keep_emulation] preserves the
    interception vector across the exec — the raw [execve] system call
    clears it (the new address space would not contain the agent), so
    the toolkit must reimplement [execve] on top of this primitive,
    as described in §3.5.2 of the paper. *)
type exec_spec = {
  exec_name : string;
  exec_body : unit -> int;
  keep_emulation : bool;
}

type _ Effect.t +=
  | Cpu : int -> int list Effect.t
      (** Charge [n] µs of user computation to the virtual clock.  Also
          a scheduling and signal-check point: returns the signals to
          deliver to user handlers. *)
  | Exec_load : exec_spec -> unit Effect.t
      (** Never returns: the scheduler abandons the current fibre. *)
  | Set_emulation :
      int list * (Abi.Envelope.t -> Abi.Value.res) option
      -> unit Effect.t
      (** [task_set_emulation]: install (or, with [None], clear) the
          in-address-space handler for the given syscall numbers. *)
  | Get_emulation :
      int -> (Abi.Envelope.t -> Abi.Value.res) option Effect.t
      (** Read the current handler for one number (used to chain
          stacked agents). *)
  | Set_emulation_signal : (int -> unit) option -> unit Effect.t
      (** Interpose on incoming signals: when set, user-handled signals
          are delivered to this function instead of directly to the
          application's handler. *)
  | Get_emulation_signal : (int -> unit) option Effect.t

exception Process_exit of int
(** Raised inside a fibre to unwind it after [_exit]. *)

exception Process_killed
(** Discontinued into a fibre the kernel terminates (uncatchable
    termination: SIGKILL and friends). *)
