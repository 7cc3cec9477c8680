(** Chrome/Perfetto [trace_event] rendering of flight-recorder records
    (DESIGN.md §3.4).

    Each simulated pid becomes a trace process; each (depth, layer)
    pair a segment was recorded at becomes a thread within it (named
    ["d<depth> <layer>"], ordered outermost-first), with thread 0
    reserved for point events.  Segments render as complete events
    ([ph:"X"], [ts]/[dur] in virtual µs), trace-agent calls and
    signal/abort marks as instant events ([ph:"i"]); [ph:"M"] metadata
    events name the processes and threads.  The result is a bare JSON
    array of events, the form both [chrome://tracing] and Perfetto
    load directly. *)

val to_json :
  ?name:(int -> string) ->
  ?pid_label:(int -> string) ->
  Span.record list ->
  Json.t
(** [name] renders syscall numbers (callers pass [Abi.Call.name]; obs
    itself sits below [abi] and cannot).  [pid_label] names the trace
    process for a pid (default ["pid <n>"]; agentrun passes the
    image/workload name from the kernel's process table).
    {!Span.Edge} records render as causal flow events — a [ph:"s"]
    start on the source span's slice and a [ph:"f"] finish (binding
    point ["e"]) on the destination's, matched by id; edges whose
    endpoint spans are not among the records (ring-dropped or
    sampler-skipped) are omitted.  Metadata events first, then all
    events sorted by timestamp. *)

val to_string :
  ?name:(int -> string) ->
  ?pid_label:(int -> string) ->
  Span.record list ->
  string
(** [to_json] rendered compactly (no trailing newline). *)
