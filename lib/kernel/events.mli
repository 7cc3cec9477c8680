(** Effect declarations shared by the scheduler (handler side) and the
    user-space stubs (perform side).

    A simulated process is an OCaml fibre.  A system call runs its
    kernel half directly on the calling fibre ({!Uspace}) and performs
    an effect only when the scheduler has work to do
    ({!Kstate.Reply}, {!Kstate.Park}, {!Kstate.Abandon}, or
    [Exec_load] for an exec); the primitives here always go through the
    scheduler in {!Kernel}.  Every yield but [Exec_load] leaves its
    continuation in the process's [fibre] field and finds its answer in
    its [res] and [deliver] ({!Proc.t}), so the effects carry no
    payload and the continuation's answer is [unit]. *)

(** How a trap reached the kernel: directly from the application, or
    through [Uspace.htg_trap] (which bypasses the emulation vector and
    costs an extra 37 µs, Table 3-4). *)
type via = App | Htg

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
  | Cpu : unit Effect.t
      (** A scheduling and signal-check point after user computation the
          caller has already charged to the clock: the signals to
          deliver to user handlers are in the process's [deliver] when
          it resumes. *)
  | Yield : unit Effect.t
      (** A bare scheduling point: the Mach emulation primitives
          ([task_set_emulation] and friends) act on the caller's own
          handler table and then yield, without a signal check. *)
  | Exec_load : exec_spec -> unit Effect.t
      (** Never returns: the scheduler abandons the current fibre.
          Performed by the exec-load primitive and by an [execve]
          whose kernel half returned an exec outcome. *)

exception Process_exit of int
(** Raised inside a fibre to unwind it after [_exit]. *)

exception Process_killed
(** Discontinued into a fibre the kernel terminates (uncatchable
    termination: SIGKILL and friends). *)
