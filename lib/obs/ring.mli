(** Fixed-size flight-recorder ring buffer.

    Append is wait-free (one store, three integer updates — the
    simulator is single-domain, so no locking is ever needed) and the
    oldest entry is overwritten when the ring is full; overwrites are
    counted in {!dropped} so a drain can report how much history was
    lost rather than silently truncating. *)

type 'a t

val create : capacity:int -> 'a t
(** Capacities below 1 are clamped to 1.  The slots are made at the
    first {!push} and let go by {!clear}, so a ring that records
    nothing holds none. *)

val capacity : 'a t -> int
val length : 'a t -> int
(** Live (not yet drained, not overwritten) entries. *)

val dropped : 'a t -> int
(** Entries overwritten since the last {!clear}/{!drain}. *)

val pushed : 'a t -> int
(** Total entries ever pushed, monotone across {!clear}/{!drain}: the
    stable coordinate a {!Stream} cursor measures its position in.  A
    record's index in push order is [pushed - length .. pushed - 1]
    while it is still live. *)

val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Oldest first; non-destructive. *)

val drain : 'a t -> 'a list
(** {!to_list} then {!clear}: the read-and-reset used by
    [agentrun --trace-out] and the [/obs/spans] synthetic file. *)

val clear : 'a t -> unit
