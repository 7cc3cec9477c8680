(** The numeric system interface wire format.

    Applications trap with a syscall {e number} and a vector of untyped
    argument values; this is what the lowest (numeric) toolkit layer
    sees and what [htg_unix_syscall] passes down, mirroring the paper's
    "single entry point accepting vectors of untyped numeric
    arguments".  Where the original passes raw machine words (some of
    which are pointers into the shared address space), we pass a small
    universal [value] type: buffers and out-cells model pointers into
    the caller's memory. *)

(** Signal handler disposition carried through [sigaction]. *)
type handler =
  | H_default
  | H_ignore
  | H_fn of (int -> unit)
      (** invoked in the context of the receiving process *)

type t =
  | Nil                                  (** absent optional argument *)
  | Int of int
  | Str of string
  | Buf of Bytes.t                       (** caller memory, in/out *)
  | Strs of string array                 (** argv/envp vectors *)
  | Body of (unit -> int)                (** a child's program text *)
  | Stat_ref of Stat.t option ref        (** struct stat out-pointer *)
  | Tv_ref of (int * int) option ref     (** struct timeval out-pointer *)
  | Handler of handler
  | Handler_ref of handler option ref    (** old-disposition out-pointer *)

(** The two return registers of a 4.3BSD system call ([rv[2]] in the
    paper's interfaces; e.g. [pipe] returns both descriptors, [fork]
    returns the pid and a parent/child flag). *)
type ret = { r0 : int; r1 : int }

val ret : ?r1:int -> int -> (ret, Errno.t) result
val ok : (ret, Errno.t) result
(** [ret 0]. *)

type res = (ret, Errno.t) result

(** A trapped system call: number plus untyped argument vector.  The
    fields are mutable only so pooled wires can be refilled in place
    ({!Pool}, [Call.encode_into]); every other consumer treats a wire
    as immutable for its lifetime. *)
type wire = { mutable num : int; mutable args : t array }

(** Free lists of {!wire} records for the zero-alloc trap boundary.

    Each process owns one pool ([Kernel.Proc.t]).  [Envelope.at_boundary]
    takes a wire from it instead of allocating, and [Envelope.release]
    recycles it once the trap completes — but only when the envelope
    still owns the wire exclusively: a wire that was handed out raw
    ([Envelope.wire]/[peek_wire]) or belongs to a rewritten (dirty)
    envelope is simply left to the GC, correctness over reuse.
    Recycled wires are scrubbed ([num = 0], every slot [Nil]) so no
    argument of one trap can leak into, or stay live because of, the
    next. *)
module Pool : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 64 wires; returns beyond it are dropped. *)

  val size : t -> int
  (** Wires currently on the free list. *)

  val take : t -> wire
  (** Pop a (scrubbed) wire, or allocate a fresh empty one when the
      pool is dry (counted as a miss).  A warm take allocates
      nothing. *)

  val recycle : t -> wire -> unit
  (** Scrub and push; silently drops the wire when the pool is full.
      The caller must guarantee nothing else references [w].  A
      non-full recycle allocates nothing. *)

  (** Hit/miss accounting aggregated over every pool of one kernel
      shard, in the same snapshot/diff style as [Envelope.Stats] (and
      under the same contract — see [envelope.mli]).  A counter set
      ({!Stats.t}) is owned by the shard and installed on entry; read
      it through [Kernel.pool_stats] or, outside any kernel, through
      {!Stats.snapshot_of}[ (installed ())]. *)
  module Stats : sig
    type snapshot = {
      hits : int;      (** takes served from a free list *)
      misses : int;    (** takes that fell back to allocation *)
      recycled : int;  (** wires returned for reuse *)
      dropped : int;   (** returns rejected by a full pool *)
    }

    type t
    (** A live counter set (one per kernel shard). *)

    val create : unit -> t
    val install : t -> unit
    (** Make [c] the set the pools bump; a default set is installed at
        program start. *)

    val installed : unit -> t
    val snapshot_of : t -> snapshot
    val reset_of : t -> unit

    val diff : snapshot -> snapshot -> snapshot
    val pp : Format.formatter -> snapshot -> unit

    val to_json : snapshot -> Obs.Json.t
    (** The ["wire_pool"] block of [Kernel.metrics_json] and
        [/obs/metrics]. *)
  end
end

val pp : Format.formatter -> t -> unit
(** Numeric-layer rendering: ints in decimal, strings quoted and
    truncated, buffers as [0xADDR[len]] style placeholders. *)

val pp_wire : Format.formatter -> wire -> unit
val res_to_string : res -> string
(** The strace-style result text: [5], [(3, 4)] when the second result
    register is set, [-1 ENOENT (No such file or directory)] on error. *)

val pp_res : Format.formatter -> res -> unit
(** {!res_to_string} as a printer. *)

(** Argument extraction used by the kernel decoder and the
    [bsd_numeric_syscall] toolkit layer.  Each returns [Error EFAULT]
    on an argument of the wrong shape (the moral equivalent of a bad
    pointer). *)
module Get : sig
  val int : wire -> int -> (int, Errno.t) result
  val str : wire -> int -> (string, Errno.t) result
  val buf : wire -> int -> (Bytes.t, Errno.t) result
  val strs : wire -> int -> (string array, Errno.t) result
  val body : wire -> int -> (unit -> int, Errno.t) result
  val stat_ref : wire -> int -> (Stat.t option ref, Errno.t) result
  val tv_ref : wire -> int -> ((int * int) option ref, Errno.t) result
  val handler_opt : wire -> int -> (handler option, Errno.t) result
  val handler_ref_opt
    : wire -> int -> (handler option ref option, Errno.t) result
end

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result)
  -> ('b, 'e) result
