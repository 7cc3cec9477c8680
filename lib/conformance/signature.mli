(** Syscall signatures: the ordered trap stream of one run, reduced to
    what transparency must preserve.

    Each application-issued trap contributes one {!event} — its
    position, issuing pid, syscall number, canonical argument shape
    ({!Abi.Shape}), and errno-level outcome.  Everything value-level
    (payload bytes, timestamps, returned identifiers) is absent by
    construction, so an agent that lawfully rewrites values produces a
    signature {e identical} to the bare run's, while a dropped rewrite,
    a swallowed call, an extra call, or a changed outcome is a visible
    divergence.

    Signatures come from the obs engine's capture tap
    ([Obs.sig_capture]), which records every instrumented uspace trap
    exactly — independent of span sampling — so a signature is precise
    even when the flight recorder keeps 1-in-N spans. *)

(** What the application observed the call do. *)
type outcome =
  | Ok_            (** succeeded *)
  | Err of int     (** failed with this errno (as an int, so imported
                       traces can carry errnos outside {!Abi.Errno}) *)
  | Noreturn       (** never returned: [exit], successful [execve] *)
  | Masked         (** neutralized by a declared [May_fail] clause
                       during {!normalize} — compares equal to any
                       other masked outcome of the same call *)

type event = {
  x_seq : int;        (** 1-based position in the capture stream *)
  x_pid : int;
  x_sysno : int;
  x_shape : string;   (** {!Abi.Shape.of_wire} of the argument vector *)
  x_outcome : outcome;
}

type t

val empty : t
val events : t -> event list
val length : t -> int

val of_obs : Obs.sig_event list -> t
(** Adopt the engine's captured stream ([Obs.sig_events ()]); a still-
    pending errno (the trap never returned) becomes {!Noreturn}. *)

val counts : t -> ((int * string * outcome) * int) list
(** Aggregated (sysno, shape, outcome) → occurrence counts, sorted —
    the order-insensitive projection, for reporting. *)

(** {1 Serialization}

    Canonical single-line JSON: [{"version":1,"events":N,"stream":
    [[seq,pid,sysno,"shape","outcome"],...]}].  Round-trips exactly
    (qcheck-verified). *)

val to_string : t -> string
val of_string : string -> (t, string) result

val outcome_name : outcome -> string

(** {1 Normalization}

    [normalize delta t] quotients a signature by a stack's composed
    declared delta: [Renumbers] maps each foreign sysno to its native
    partner, [May_fail] collapses a listed call's Ok/declared-errno
    outcomes to {!Masked}; the value-level clauses ([Shifts_results],
    [Rewrites_results], [May_delay]) change nothing a signature
    retains.  Idempotent for any delta an agent can truthfully declare
    (renumbering domains are disjoint from their ranges — they map a
    foreign numbering onto the native one). *)

val normalize : Abi.Delta.t -> t -> t

val masked : t -> int
(** Events carrying {!Masked} (i.e. neutralized during normalization). *)

(** {1 Differencing} *)

type divergence = {
  d_index : int;           (** 0-based position where the streams split *)
  d_bare : event option;   (** the bare run's event there, if any *)
  d_under : event option;  (** the stacked run's event there, if any *)
  d_reason : string;
}

val diff : bare:t -> under:t -> divergence option
(** Lockstep comparison on (pid, sysno, shape, outcome); [None] means
    the signatures agree call-for-call.  The first mismatch — or the
    point where one stream ends — is returned with both sides'
    events. *)

val diff_processes : bare:t -> under:t -> divergence option
(** {!diff} applied per process: each pid's stream is compared in
    isolation, so the {e global} interleaving — scheduler state that
    shifts when an agent lawfully charges virtual time — is quotiented
    away, while every call each process makes (and its order within
    that process) is still exact.  A pid present on one side only is a
    divergence.  Only meaningful for workloads whose fork order (and
    hence pid assignment) is deterministic. *)

val divergence_to_string : divergence -> string
val divergence_to_json : divergence -> Obs.Json.t
