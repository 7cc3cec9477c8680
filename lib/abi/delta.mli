(** Declared interposition deltas.

    An interposition agent may only change what it {e declares}; every
    other observable at the system interface must be preserved (the
    paper's transparency contract).  A {!t} is that declaration in
    machine-checkable form: a list of clauses naming the lawful
    divergences between a bare run's syscall signature and a run under
    the agent.  [lib/conformance] composes a stack's declarations,
    normalizes both signatures by them, and reports any residue as a
    violation.

    Clause semantics at signature level (capture records per-trap
    (sysno, arg shape, errno outcome) — never result {e values}):

    - {!Shifts_results}: result values of these calls may differ
      (timex's shifted [gettimeofday]).  Values are invisible to a
      signature, so this normalizes nothing — it documents the value
      delta honestly.
    - {!Rewrites_results}: result payloads may be rewritten in flight
      (crypt's XOR, union's merged directory reads, a replayer's
      journal-fed inputs).  Also value-level; normalizes nothing.
    - {!Renumbers}: calls issued under a foreign number are served as
      the paired native call (remap).  Normalization maps event sysnos
      through the pairs, so a foreign program's signature can be
      compared against a native baseline.
    - {!May_fail}: these calls may gain {e or lose} one of the listed
      errnos (faultinject's planned errors, sandbox denials, a synthfs
      mount resolving paths the bare kernel cannot).  Normalization
      masks the outcome of matching events on {e both} signatures.
    - {!May_delay}: added virtual latency only.  Time is invisible to a
      signature; normalizes nothing. *)

type clause =
  | Shifts_results of int list       (** sysnos whose result values shift *)
  | Rewrites_results of int list     (** sysnos whose result payloads rewrite *)
  | Renumbers of (int * int) list    (** (foreign, native) sysno pairs *)
  | May_fail of { sysnos : int list; errnos : Errno.t list }
      (** outcome of these sysnos may flip between success and a listed
          errno *)
  | May_delay of int list            (** sysnos that may only get slower *)

type t = clause list
(** Empty = "no visible delta": the agent claims full transparency. *)

val none : t

val compose : t list -> t
(** A stack's composed declaration (installation order is irrelevant:
    clauses are masks, not sequenced edits). *)

val to_string : t -> string
(** ["none"] or ["; "]-joined clauses, syscall numbers rendered via
    [Call.name]. *)
