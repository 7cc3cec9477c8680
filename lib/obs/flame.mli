(** Flamegraph folding of flight-recorder segments (DESIGN.md §3.9).

    Groups segment self time by (sysno, layer path) and renders the
    collapsed-stack form flamegraph renderers consume (one line per
    stack: [frame;frame;... weight]).  Per-span self times sum to the
    trap's end-to-end total by engine invariant, so {!total} over a
    fold equals the sum of segment self times. *)

type fold = {
  fl_sysno : int;
  fl_stack : string list;  (** layer path, outermost first *)
  fl_self_us : int;        (** summed virtual self time *)
  fl_frames : int;         (** segments folded into this stack *)
}

val fold : Span.segment list -> fold list
(** Sorted by (sysno, stack).  Span ids are unique per engine only:
    fold one shard's segments. *)

val total : fold list -> int
(** Summed [fl_self_us] — equals the sum of folded segment self
    times (the bench gate checks this). *)

val to_string : ?name:(int -> string) -> fold list -> string
(** Collapsed-stack lines: [name(sysno);layer;...;layer weight], the
    weight in virtual self µs.  [name] renders syscall numbers
    (callers pass [Abi.Call.name]). *)
