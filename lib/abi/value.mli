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

(** A trapped system call: number plus untyped argument vector.  No
    code writes a wire's slots once it is built: a layer that wants a
    different call builds a new envelope ([Envelope.of_call],
    [Envelope.of_wire]). *)
type wire = { num : int; args : t array }

val pp : Format.formatter -> t -> unit
(** Numeric-layer rendering: ints in decimal, strings quoted and
    truncated, buffers as [0xADDR[len]] style placeholders. *)

val pp_wire : Format.formatter -> wire -> unit
val res_to_string : res -> string
(** The strace-style result text: [5], [(3, 4)] when the second result
    register is set, [-1 ENOENT (No such file or directory)] on error. *)

val pp_res : Format.formatter -> res -> unit
(** {!res_to_string} as a printer. *)

(** Argument extraction for agents that read a wire without decoding
    it ([Foreign_abi]'s renumbering, [Record_replay]'s out-pointers).
    Each returns [Error EFAULT] on an argument of the wrong shape (the
    moral equivalent of a bad pointer). *)
module Get : sig
  val int : wire -> int -> (int, Errno.t) result
  val str : wire -> int -> (string, Errno.t) result
  val buf : wire -> int -> (Bytes.t, Errno.t) result
  val stat_ref : wire -> int -> (Stat.t option ref, Errno.t) result
  val tv_ref : wire -> int -> ((int * int) option ref, Errno.t) result
end
