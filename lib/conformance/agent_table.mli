(** The agent table: every agent the loader can run, described once.

    [agentrun -a SPEC], each {!Conformance} stack and the benchmark's
    Table 3-2/3-3 and ablation set-ups build their agents from these
    rows.  A spec is [NAME] or [NAME:ARG]; the row parses [ARG] once,
    outside any session, and the agent is built inside the session.

    The sink rule: a file an agent writes to is opened for it and moved
    to the top of the descriptor table.  At the lowest free slot it
    would shift every descriptor the program later receives.

    Code in [lib/agents] that is not a row: [dfs_kernel] is a kernel
    hook, attached to a kernel rather than installed in a process;
    [dfs_record] is [dfs_trace]'s log format; [merged_dir] and [rle]
    are helpers of [union] and [compress]; [record_replay] is reached
    through agentrun's [--record] and [--replay], which wrap the whole
    stack. *)

type built
(** A parsed spec: an agent ready to be built in a session. *)

type row = {
  name : string;
  aliases : string list;
  usage : string;  (** e.g. ["trace[:FILE]"] *)
  parse : string -> (built, string) result;  (** from the argument *)
}

val rows : row list

val of_spec : string -> (built, string) result

val start : built -> Toolkit.Numeric.numeric_syscall * (unit -> unit)
(** Builds the agent, in the session, with its end-of-run report to
    stderr.  Raises {!Libc.Unistd.Unix_error} when the file a spec
    names cannot be opened. *)

val stack : string list -> unit -> Toolkit.Numeric.numeric_syscall list
(** [stack specs] parses [specs] now ([Invalid_argument] on a bad one)
    and returns the builder of their agents, bottom-most first. *)
