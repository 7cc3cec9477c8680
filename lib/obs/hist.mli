(** Log2 latency histogram (32 buckets).

    Bucket 0 counts exactly-zero observations (negatives are clamped to
    zero); bucket [i >= 1] covers [[2^(i-1), 2^i)] µs; bucket 31
    absorbs everything at or above [2^30] µs. *)

type t

val buckets : int
(** Number of buckets (32). *)

val create : unit -> t
val observe : t -> int -> unit

val bucket_of_us : int -> int
(** Which bucket a latency falls in; total function over [int]. *)

val lower_bound : int -> int
(** Inclusive lower edge of a bucket, in µs (0 for bucket 0). *)

val count : t -> int
val sum_us : t -> int
val max_us : t -> int
val mean_us : t -> float
val bucket : t -> int -> int
(** Count in one bucket; 0 when the index is out of range. *)

val nonzero : t -> (int * int) list
(** [(bucket index, count)] for non-empty buckets, ascending. *)

val quantile : t -> float -> int
(** [quantile t q] estimates the [q]-quantile in µs as an
    {e upper-bucket-bound}: the bucket holding the ceil([q]·n)-th
    observation answers with its largest representable value
    ([2^i - 1]; 0 for bucket 0), except the overflow bucket, which
    answers with the exact observed {!max_us}.  Total: an empty
    histogram answers 0 and [q] is clamped to [[0, 1]] — never
    raises. *)

val copy : t -> t
