(** The document-formatting workload of Table 3-2.

    The paper formats a dissertation draft with Scribe: a single
    process making {e moderate} use of system calls (716 for the whole
    run) and spending most of its time computing.  This module provides
    the equivalent: a Scribe-flavoured markup formatter (@chapter /
    @section / @include directives, paragraph filling to 72 columns)
    plus a deterministic document generator sized so that a default run
    issues on the order of 700 system calls and ≈129 virtual seconds,
    the paper's baseline shape. *)

type params = {
  chapters : int;
  sections_per_chapter : int;
  paragraphs_per_section : int;
  words_per_paragraph : int;
  include_files : int;
  cpu_us_per_word : int;  (** formatting cost charged per word *)
}

val default_params : params
(** Tuned to the paper's baseline: ≈716 syscalls, ≈129 s virtual. *)

val quick_params : params
(** A small document for tests. *)

val output_path : string
(** [/doc/dissertation.out] *)

val setup : ?params:params -> ?seed:int -> Kernel.t -> unit
(** Write the generated document (and [/bin/scribe]) into a kernel's
    filesystem. *)

val register : Kernel.t -> unit
(** Register the ["scribe"] image ([scribe input output]). *)

val body : ?params:params -> unit -> int
(** The formatter as a direct process body reading the generated input and
    writing {!output_path}. *)
