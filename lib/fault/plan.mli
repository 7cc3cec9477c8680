(** Serialized deterministic injection plans.

    A plan is a list of {!Agents.Faultinject.site}s.  The file form is
    one site per line:

    {v F <pid> <sysno> <kth> fail:<ERRNO>|delay:<US> v}

    ([pid] 0 = any process, [kth] 0 = every matching call).  The same
    grammar appears inside repro bundles; the command line uses the
    compact {!of_spec} form
    [ [pid@]sysname[#k]=fail:ERRNO|delay:US[;...] ], e.g.
    ["read#3=fail:EIO;2@write=delay:500"]. *)

val site_to_string : Agents.Faultinject.site -> string
val site_of_string : string -> Agents.Faultinject.site option

val to_string : Agents.Faultinject.site list -> string
(** One ["F ..."] line per site, newline-terminated. *)

val of_string : string -> (Agents.Faultinject.site list, string) result
(** Inverse of {!to_string}; blank lines and [#] comments skipped. *)

val of_spec : string -> (Agents.Faultinject.site list, string) result
(** Parse the command-line plan spec (sites separated by [;]). *)

val describe_site : Agents.Faultinject.site -> string
(** Human one-liner, e.g. ["fail:EIO read call #3"]. *)
