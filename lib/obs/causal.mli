(** Causal edges between spans (DESIGN.md §3.9).

    One edge per observable cross-process cause: a fork trap caused
    the child's first trap ({!Fork}), a kill trap caused a delivery
    inside the receiver's current trap ({!Signal}), a pipe write trap
    produced the bytes a read trap consumed ({!Pipe}, matched by the
    ring's writer stamps at its own byte offsets).  The engine in {!Obs} records
    edges; this module owns the representation, the deterministic
    merge order, the JSONL codec and the transitive {!slice} query.

    Span ids are unique only per engine (per shard), so endpoints are
    (shard, span) pairs. *)

type kind = Fork | Signal | Pipe

val kind_name : kind -> string
(** ["fork"] / ["signal"] / ["pipe"]. *)

type edge = {
  ed_kind : kind;
  ed_src_shard : int;  (** shard owning the source span *)
  ed_src_span : int;   (** 0 when no span was open at the source *)
  ed_src_pid : int;
  ed_shard : int;      (** recording (destination) shard *)
  ed_dst_span : int;   (** always a sampled span: the engine records no
                           edge into an unsampled trap *)
  ed_dst_pid : int;
  ed_t_us : int;       (** virtual time the edge resolved, dst clock *)
  ed_seq : int;        (** the record's 1-based position in the
                           recording engine's log (its ring's
                           [pushed] count once the edge is in) *)
  ed_detail : string;  (** signal name / pipe byte range / [""] *)
}

val sort : edge list -> edge list
(** Sorted by [(t_us, shard, seq)] — the same merge rule that makes
    cross-shard signal delivery deterministic (DESIGN.md §3.6), so a
    merged multi-shard edge table is byte-stable across reruns. *)

val to_json : edge -> Json.t
(** The edge's fields after a ["type": "edge"] discriminator: the
    [Span] record codec's rendering of an [Edge]. *)

val of_json : Json.t -> edge option
(** The inverse of {!to_json}; [None] on a missing or malformed field
    (the discriminator is the caller's to check). *)

val slice : roots:(int * int) list -> edge list -> (int * int) list
(** All (shard, span) nodes transitively reachable from [roots] along
    edges, roots included, sorted.  Endpoints with non-positive span
    ids (sampler-skipped, or no span open at the source) never enter
    the graph. *)
