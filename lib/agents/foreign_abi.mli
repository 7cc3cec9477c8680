(** A "foreign operating system" ABI, for the OS-emulation agent
    (§1.4: running ULTRIX / HP-UX / System V binaries on a different
    kernel by translating their system calls).

    The foreign system — call it VOS, a variant OS — differs from the
    native interface in its syscall numbering (a disjoint range) and
    in one calling convention: VOS [open] takes (mode, flags, path)
    in that order.  Programs "compiled for VOS" trap through the stubs
    below; on a bare native kernel every such trap fails with
    [ENOSYS], and under the {!Remap} agent they behave exactly like
    native calls. *)

val v_exit : int
val v_fork : int
val v_read : int
val v_write : int
val v_open : int
val v_close : int
val v_getpid : int
val v_gettimeofday : int
val v_wait : int
val v_stat : int

val numbers : int list
(** All foreign numbers, for [register_interest]. *)

val native_pairs : (int * int) list
(** The (foreign, native) renumbering {!to_native} performs, as data —
    [Remap]'s declared delta ([Abi.Delta.Renumbers]), and the table
    conformance checking uses to compare a VOS program's syscall
    signature against a native baseline. *)

val to_native : Abi.Value.wire -> (Abi.Value.wire, Abi.Errno.t) result
(** Translate one foreign trap into the equivalent native trap
    (renumbering, plus the [open] argument reordering). *)

(** The VOS "C library": stubs a foreign program image uses.  They
    trap with foreign numbers through the normal trap path, so they
    are interceptable like any other call. *)
module Stub : sig
  val exit : int -> Abi.Value.res
  val read : int -> Bytes.t -> int -> Abi.Value.res
  val write : int -> string -> Abi.Value.res
  val open_ : mode:int -> flags:int -> string -> Abi.Value.res
  val close : int -> Abi.Value.res
  val getpid : unit -> Abi.Value.res
  val gettimeofday : (int * int) option ref -> Abi.Value.res
  val wait : unit -> Abi.Value.res
  val stat : string -> Abi.Stat.t option ref -> Abi.Value.res
end
