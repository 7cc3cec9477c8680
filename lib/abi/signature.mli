(** Syscall signatures: the ordered trap stream of one run, reduced to
    what transparency must preserve.

    Each application-issued trap contributes one {!event} — its
    position, issuing pid, syscall number, canonical argument shape
    ({!Shape}), and errno-level outcome.  Everything value-level
    (payload bytes, timestamps, returned identifiers) is absent by
    construction, so an agent that lawfully rewrites values produces a
    signature {e identical} to the bare run's, while a dropped rewrite,
    a swallowed call, an extra call, or a changed outcome is a visible
    divergence.

    A signature is the shard's record of its application interface,
    not observation state: a {!recorder} armed on the kernel
    ([Kernel.with_signature]) is fed by the uspace trap path, whether
    the obs engine is off or keeps 1 in N spans, so the same run gives
    the same signature at any observation setting. *)

(** What the application observed the call do. *)
type outcome =
  | Ok_            (** succeeded *)
  | Err of int     (** failed with this errno (as an int, so imported
                       traces can carry errnos outside {!Errno}) *)
  | Noreturn       (** never returned: [exit], successful [execve] *)
  | Masked         (** neutralized by a declared [May_fail] clause
                       during {!normalize} — compares equal to any
                       other masked outcome of the same call *)

type event = {
  x_seq : int;        (** 1-based position in the capture stream *)
  x_pid : int;
  x_sysno : int;
  x_shape : string;   (** {!Shape.of_wire} of the argument vector *)
  mutable x_outcome : outcome;
      (** set once, by {!returned}; {!Noreturn} until then *)
}

type t

val empty : t
val events : t -> event list
val length : t -> int

val of_events : event list -> t
(** The signature of these events, in the order given. *)

(** {1 Recording}

    One recorder per capture.  The trap path calls {!issue} when an
    application trap is issued and {!returned} when it returns, so the
    stream is in issue order: a call made by a signal handler inside an
    interrupted call comes after that call.  A trap that never returns
    ([exit], a successful [execve], a fibre unwound) keeps the
    {!Noreturn} it was issued with. *)

type recorder

val recorder : unit -> recorder

val issue : recorder -> pid:int -> Envelope.t -> event
(** Append the next event for this trap, its shape read with
    {!Envelope.shape} (no codec work), its outcome {!Noreturn}. *)

val returned : event -> Value.res -> unit
(** Set the event's outcome from the trap's result. *)

val recorded : recorder -> t
(** The events issued so far, in issue order. *)

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

val normalize : Delta.t -> t -> t

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
