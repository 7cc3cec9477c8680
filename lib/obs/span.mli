(** Flight-recorder records: per-layer trap segments, trace-agent call
    events, point marks (signals, aborted spans) and causal edges, with
    one JSONL codec shared by [agentrun --trace-out], the [/obs/spans]
    and [/obs/stream] synthetic files, and the tests. *)

type segment = {
  span : int;       (** span id; unique per traced trap within a session *)
  pid : int;        (** simulated process that issued the trap *)
  sysno : int;      (** syscall number of the trap *)
  layer : string;   (** "uspace", an agent's name, "downlink", "kernel" *)
  depth : int;      (** nesting depth of this layer within the span, 0 = outermost *)
  start_us : int;   (** virtual-clock entry time *)
  self_us : int;    (** time in this layer minus enclosed layers *)
  total_us : int;   (** entry-to-exit time including enclosed layers *)
  decodes : int;    (** envelope decodes attributed to this layer *)
  encodes : int;    (** envelope encodes attributed to this layer *)
  rewrites : int;   (** in-flight call rewrites attributed to this layer *)
}

type call = {
  c_span : int;             (** enclosing span id, 0 when tracing is off *)
  c_pid : int;
  c_t_us : int;             (** virtual-clock time of the event *)
  c_name : string;          (** syscall name as the trace agent prints it *)
  c_args : string;          (** pre-rendered argument list *)
  c_result : string option; (** [None] = call entry, [Some r] = returned [r] *)
  c_rewrote : bool;         (** a layer below rewrote the call before it
                                returned — only meaningful on post events *)
}

type mark = {
  m_span : int;     (** enclosing span id, 0 when none *)
  m_pid : int;
  m_t_us : int;     (** virtual-clock time of the event *)
  m_kind : string;  (** ["signal"] or ["abort"] *)
  m_detail : string;(** signal name / aborted syscall number *)
}

type record =
  | Segment of segment
  | Call of call
  | Mark of mark
  | Edge of Causal.edge  (** a fork / signal / pipe cause (DESIGN.md §3.9) *)

val edges : record list -> Causal.edge list
(** The [Edge] records, sorted by {!Causal.sort}: the edge table of one
    shard's drain, or of several shards' drains concatenated. *)

val call_line : call -> string
(** The trace agent's line shapes (no trailing newline):
    ["name(args) ..."] on entry, ["... name -> res"] on return (with a
    [" [rewritten]"] suffix when [c_rewrote]).  Both
    [agentrun --agent trace] output and consumers of [--trace-out]
    JSONL render through this one function. *)

val to_line : record -> string
(** One compact JSON object (no trailing newline), with a
    ["type": "segment"|"call"|"mark"|"edge"] discriminator; an edge's
    fields are {!Causal.to_json}'s. *)

val of_line : string -> (record, string) result
