(** The fault-campaign driver: discover injection sites from an
    obs-profiled fault-free run, sweep sites × errnos over a workload,
    classify every outcome against the {!Oracle}s, and shrink failing
    plans to minimal injection sets.

    Everything here is deterministic: workload generation is seeded,
    the plan-driven injector makes no random choices, and virtual time
    is simulated — the same sweep produces the same classification
    table on every run.  The workloads are {!Workloads.Table}'s
    [quick] rows; every run's kernel comes from its [prepare]. *)

(** How a run interacts with [record_replay]: [Record] journals the
    run's inputs (so failures can ship a repro bundle), [Replay] feeds
    a previous journal back, [Bare] does neither. *)
type mode = Bare | Record | Replay of string

type run = {
  r_sites : Agents.Faultinject.site list;
  r_outcome : Oracle.outcome;
  r_detail : string;
  r_report : Oracle.report;
  r_journal : string;   (** recorded journal ("" unless [Record]) *)
  r_injected : int;     (** faults surfaced to the application *)
  r_restarted : int;    (** injected EINTRs absorbed by the restart
                            policy *)
  r_delayed : int;
  r_desyncs : int;      (** replay desyncs ([Replay] mode only) *)
}

val run_plan :
  ?mode:mode -> clean:Oracle.report -> Workloads.Table.workload
  -> Agents.Faultinject.site list -> run
(** One session of [workload] under the plan, classified against the
    fault-free [clean] report.  Default mode [Record]. *)

val clean_run : ?mode:mode -> Workloads.Table.workload -> run
(** The fault-free run (classified against itself: always
    [Tolerated]).  Default mode [Bare]. *)

val default_errnos : Abi.Errno.t list
(** EIO, ENOENT, EINTR. *)

val conn_candidates : int list
(** accept, recv, send — the connection-level sites of a socket
    workload. *)

type baseline = {
  b_run : run;              (** the fault-free run, [Record]ed *)
  b_profile : (int * int) list;
    (** (sysno, calls) for each candidate the fault-free run actually
        issued — measured by the [Obs] engine *)
}

val baseline : ?candidates:int list -> Workloads.Table.workload -> baseline
(** Run the workload fault-free with the observability engine enabled
    and read the per-syscall call counts back as the injection-site
    profile.  Resets the [Obs] engine (state restored to enabled if it
    was). *)

val sites_from_profile :
  ?per_sysno:int -> (int * int) list -> errnos:Abi.Errno.t list
  -> Agents.Faultinject.site list
(** Cross the profile with the errno list: for each discovered call,
    its first, middle and last occurrence (at most [per_sysno] ordinals,
    default 3) × each errno. *)

type case = {
  c_workload : string;
  c_site : Agents.Faultinject.site;
  c_run : run;
}

val sweep :
  ?candidates:int list -> ?per_sysno:int -> ?errnos:Abi.Errno.t list
  -> Workloads.Table.workload -> baseline * case list
(** The whole campaign for one workload: baseline, site discovery,
    one classified run per site × errno. *)

val shrink :
  Workloads.Table.workload -> clean:Oracle.report -> outcome:Oracle.outcome
  -> Agents.Faultinject.site list -> Agents.Faultinject.site list
(** Greedy delta reduction of a failing plan: drop sites while the
    failure class [outcome] still reproduces, to a 1-minimal set. *)
