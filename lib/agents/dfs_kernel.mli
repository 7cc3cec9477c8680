(** The monolithic comparator for §3.5.3: DFSTrace-style collection
    compiled into the kernel.

    Where the original modified 26 kernel files under conditional
    compilation, our kernel exposes a single dispatch hook; this module
    is the collection code behind it.  It produces the same
    {!Dfs_record} stream as the {!Dfs_trace} agent, but records are
    stamped from kernel-side state (no extra system calls) and cost a
    few microseconds apiece — which is why it is fast and the agent is
    not, the tradeoff the paper quantifies. *)

type t

val install : ?cost_us:int -> Kernel.t -> t
(** Attach to the kernel's trace hook.  [cost_us] defaults to 18 µs per
    observed call (in-kernel bookkeeping). *)

val records : t -> Dfs_record.t list
(** Records collected so far, in order. *)
