(** Fault injection by interposition — the testing-tool species of the
    paper's "monitoring and emulating schemes" (§1.4): make a program's
    environment hostile without touching the program or the kernel.

    The {!agent} executes a deterministic {e plan} of injection
    {!site}s — fail the k-th matching call in pid P with errno E, or
    add virtual latency — which is what the [lib/fault] campaign driver
    sweeps, shrinks and replays.  It makes no random choice: matching
    is bookkeeping over per-site ordinals.  A site's one text form is
    [Fault.Plan]'s spec, e.g. [read#3=fail:EIO].

    An injected [EINTR] honours the kernel's restart policy
    ([Kernel.Syscalls.restartable]): on a call the scheduler would
    transparently re-issue, the injection becomes an invisible restart
    and the call passes down; only sleepus-class calls surface a blind
    EINTR.  The injected-error path charges the interception cost, so a
    faulted call is never cheaper than a successful one.  When [Obs] is
    enabled, every injection bumps the exact [injected] metrics counter
    and drops a [~kind:"inject"] mark on the trap's span.

    Declared delta: the plan restated as a mask — [May_fail] over each
    [Fail] site's call with its errno, [May_delay] for [Delay] sites.
    Restart-absorbed EINTR needs no mask: the application-visible span
    still succeeds. *)

(** What to do to a matched call. *)
type action =
  | Fail of Abi.Errno.t  (** fail with this errno ([EINTR] routes
                             through the restart policy) *)
  | Delay of int         (** charge this much added virtual latency
                             (µs, floored at the interception cost)
                             and pass the call through *)

(** One injection site of a plan. *)
type site = {
  s_pid : int;     (** only this pid; 0 = any process *)
  s_num : int;     (** syscall number to match *)
  s_kth : int;     (** fire on the k-th matching call (1-based);
                       0 = every matching call *)
  s_action : action;
}

val site : ?pid:int -> ?kth:int -> int -> action -> site
(** [site ~pid ~kth num action]; [pid] and [kth] default to 0. *)

class agent : plan:site list -> object
  inherit Toolkit.numeric_syscall

  method total_injected : int
  (** Faults surfaced to the application so far. *)

  method restarted : int
  (** Injected [EINTR]s the restart policy absorbed (the call was
      re-issued instead of failed). *)

  method delayed : int
  (** [Delay] sites that fired. *)
end

val create : site list -> agent
