(** strace(1) import: real Linux traces as signatures and scenarios.

    [parse] understands the common strace line form
    ["name(args) = ret [ERRNO (text)]"], including [-f] pid prefixes,
    [-y] descriptor annotations, truncated string literals, and the
    [*at] calling-convention (the [AT_FDCWD]/dirfd argument is
    dropped, matching the 4.3BSD surface).  Signal and exit notices,
    unfinished/resumed fragments and unparseable lines are ignored;
    syscalls with no native mapping are counted in [tr_skipped], never
    silently dropped.

    Two consumers: {!to_signature} renders the trace in the same
    shape/outcome vocabulary the simulator captures, and {!scenario}
    turns it into a deterministic process body that re-issues the
    calls against the simulated kernel — run it under
    {!Agents.Record_replay} and the trace becomes a reproducible
    replay subject. *)

type entry = {
  t_linux : string;          (** the call name as written in the trace *)
  t_sysno : int;             (** mapped native syscall number *)
  t_shape : string;          (** canonical {!Abi.Shape} token string *)
  t_path : string option;    (** a pathname call's first absolute path *)
  t_fd : int option;         (** leading descriptor argument *)
  t_size : int option;       (** trailing byte-count argument *)
  t_wflags : int;            (** for open: reconstructed [Flags.Open] bits *)
  t_ret : int;
  t_errno : Abi.Errno.t option;
}

type trace = {
  tr_entries : entry list;
  tr_skipped : int;          (** syscall lines with no native mapping *)
  tr_lines : int;            (** lines recognized as syscalls *)
}

val parse : string -> trace

val to_signature : ?pid:int -> trace -> Abi.Signature.t
(** The trace as an {!Abi.Signature.t} (default pid 1: strace of a single
    process). *)

val scenario : trace -> unit -> int
(** A process body re-issuing the trace's calls best-effort:
    descriptors translate through a live map (the simulator assigns
    its own numbers), payloads are synthesized at the recorded sizes,
    unsupported calls are skipped.  Deterministic: the same trace
    always issues the same call sequence.  Returns the number of calls
    issued. *)
