(** The text form of deterministic injection plans.

    A plan is a list of {!Agents.Faultinject.site}s, written as specs
    separated by [;], each [ [pid@]sysname[#k]=fail:ERRNO|delay:US ]
    ([pid] absent = any process, [#k] absent = every matching call),
    e.g. ["read#3=fail:EIO;2@write=delay:500"].  It is the one text
    form of a site: [agentrun -a faultinject:SPEC] takes it, repro
    bundles store it, and campaign reports print it, so any printed
    site can be pasted back on the command line. *)

val of_spec : string -> (Agents.Faultinject.site list, string) result
(** Parse a plan spec; blank sites between [;]s are skipped, an empty
    plan is an error. *)

val to_spec : Agents.Faultinject.site list -> string
(** The inverse of {!of_spec}: [of_spec (to_spec sites) = Ok sites]
    for every nonempty [sites].  Raises [Invalid_argument] on a site
    no spec can carry: a syscall number with no name, or a negative
    pid, ordinal or delay. *)
