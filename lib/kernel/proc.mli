(** Process table entries. *)

(** Why a parked process is asleep.  While it is [Parked] on a
    condition, the process is in the queue of every wait channel the
    condition names, and in no other ([Kstate.sleep_on],
    [Kstate.unsleep]). *)
type cond =
  | On_chan of File.Wchan.t     (** one wait channel *)
  | On_chans of File.Wchan.t list
      (** select: any of these (none when no descriptor can become
          ready) *)
  | On_time of int              (** absolute virtual deadline, µs *)
  | On_signal of int            (** sigsuspend: the mask to restore *)

type state =
  | Runnable
  | Parked of cond              (** the fibre waits in {!field-fibre} *)
  | Stopped                     (** likewise, its answer already set *)
  | Zombie
  | Reaped

(** A suspended fibre, resumed with [unit]. *)
type fibre = (unit, unit) Effect.Deep.continuation

val no_fibre : fibre
(** The empty fibre slot: a continuation already used up, built once,
    so resuming it raises [Effect.Continuation_already_resumed] and a
    stale resume fails loudly. *)

val restart : Abi.Value.res
(** The answer a wake-up leaves in [res] for a parked call
    (BSD's ERESTART): built once, compared with [==], never returned
    to the application.  The woken fibre finds it and serves the same
    call again. *)

(** Per-process signal state. *)
type sigstate = {
  mutable handlers : Abi.Value.handler array;  (** index 1..31 *)
  mutable mask : int;
  mutable pending : int;
  mutable senders : (int * Obs.origin) list;
      (** the causal origin of each pending signal a kill made pending
          (DESIGN.md §3.9), at most one per signal: set with the
          pending bit, consumed by its delivery *)
}

(** The in-address-space interception state — what
    [task_set_emulation] manipulates.  Inherited on [fork] (the address
    space, and so the agent, goes with the child); cleared by a raw
    [execve]. *)
type emulation = {
  mutable vector : (Abi.Envelope.t -> Abi.Value.res) option array;
      (** the one handler table, indexed by system call number: slot
          [n] is the handler installed for [n], or [None] to send the
          call straight to the kernel.  Written only by
          [Uspace.task_set_emulation], which first copies a
          {!field-shared} vector; {!fork_copy} shares it and exec
          without [keep_emulation] replaces it. *)
  mutable shared : bool;
      (** [vector] may also be another process's: set in parent and
          child by {!fork_copy}, cleared by the copy before a write *)
  mutable sig_emul : (int -> unit) option;
}

(** Pid-keyed maps: a process's index of its children. *)
module Kids : Map.S with type key = int

type t = {
  pid : int;
  mutable ppid : int;
  mutable kids : t Kids.t;
      (** the unreaped processes whose [ppid] is [pid], in pid order.
          Invariant, maintained by [Kstate]: [kids] holds exactly the
          processes [q] in the table with [q.ppid = pid].  [wait4] and
          exit-time reparenting read it instead of scanning the table. *)
  mutable pgrp : int;
  mutable name : string;
  mutable cred : Vfs.Fs.cred;
  mutable cwd : int;            (** inode number *)
  mutable umask : int;
  mutable fds : File.fd_entry option array;
  sigs : sigstate;
  mutable emul : emulation;
  mutable state : state;
  me : t option;
      (** [Some] of this very process, built with it: the scheduler's
          run-queue entry and the shard's [cur] while it runs, so a
          turn allocates neither *)
  mutable start : (unit -> int) option;
      (** the program a fresh fibre enters at the process's next turn:
          a fork child's, or the image an exec loaded *)
  mutable fibre : fibre;
      (** the one place a suspended fibre is kept: queued after a
          yield, parked or stopped.  Never set together with
          {!field-start}.  The scheduler empties it before it resumes
          or discards the fibre, so a process never holds a
          continuation it will not resume *)
  mutable res : Abi.Value.res;
      (** the answer to a yielded trap: its result, or {!restart}... *)
  mutable deliver : int list;
      (** ...and the signals to deliver to user handlers before it
          returns (also the answer to a yielded CPU charge) *)
  mutable exit_status : int;    (** wait-status encoding, valid in Zombie *)
  mutable forked_by : Obs.origin option;
      (** a fork child's causal origin, the parent's fork trap, until
          its first instrumented trap completes the edge (DESIGN.md
          §3.9) *)
  mutable utime_us : int;       (** virtual user time (cpu_work, agent work) *)
  mutable stime_us : int;       (** virtual system time (in-kernel call cost) *)
  env_pool : Abi.Envelope.Pool.t option;
      (** free list of envelope records feeding
          [Envelope.at_boundary] and [Envelope.of_call] for this
          process's traps; a cache only, so [fork] gives the child a
          fresh one.  Always [Some]; option-typed so the trap stub can
          hand it to [?pool] without allocating a [Some] per trap *)
  mutable serving : Abi.Envelope.t;
      (** the envelope this process's innermost symbolic dispatch is
          serving, [Abi.Envelope.none] outside any.  The toolkit's
          [Symbolic.syscall] sets it around its dispatch and restores
          the outer value on return and on exception, so it follows
          the process's own stack: a fork child starts at [none], and
          an exec's discarded fibre restores it as it unwinds.  A
          pass-through default hands this envelope down when the call
          it would build is the one it holds (DESIGN.md §3.8) *)
}

val fd_table_size : int

val fresh_emulation : unit -> emulation

val create :
  pid:int -> ppid:int -> pgrp:int -> name:string -> cred:Vfs.Fs.cred
  -> cwd:int -> t

val fork_copy : t -> pid:int -> name:string -> t
(** Child copy: shares open files (references bumped by the caller),
    copies cwd/umask/credentials/signal dispositions, shares the
    emulation vector until either process writes it;
    pending signals are not inherited. *)

val fd : t -> int -> File.fd_entry option
(** Bounds-checked descriptor lookup. *)

val alloc_fd : ?from:int -> t -> int option
(** Lowest free descriptor ≥ [from] (default 0). *)

val handler : t -> int -> Abi.Value.handler

val set_handler : t -> int -> Abi.Value.handler -> unit

val set_sender : t -> int -> Obs.origin option -> unit
(** Set (or with [None] clear) the sender of signal [s]. *)

val take_sender : t -> int -> Obs.origin option
(** Consume the sender of signal [s], if it has one. *)
