(** Small Unix-style utilities, registered as executable images so
    that workloads, examples and tests can fork/exec them like real
    binaries.  All of them speak the simulated system interface only
    (via {!Libc}), so they run unmodified under any agent. *)

val install_all : Kernel.t -> unit
(** Register every utility image and write each into [/bin]
    (idempotent):

    - [cat file...] — concatenate to stdout ([-] unsupported)
    - [echo words...]
    - [ls [-l] dir...] — names (or ls -l lines) to stdout
    - [cp src dst]
    - [wc file...] — lines, words, bytes
    - [grep pattern file...] — substring match, prints matching lines
    - [head -n N file]
    - [touch file...]
    - [rm file...]
    - [mkdir dir...]
    - [ed [file]] — a tiny interactive line editor (a/p/d/r/w/q),
      reading commands from standard input
    - [true], [false]
    - [sh -c "cmd args | cmd args | ..."] — a minimal pipeline shell *)

val sh_split : string -> string list list
(** Plain pipeline splitting: stages as word lists (exposed for
    tests). *)

(** The [sh] image's full grammar (no quoting):
    [cmd ; cmd && cmd | cmd < in > out >> log]. *)

type sh_stage = {
  sh_words : string list;
  sh_rin : string option;
  sh_rout : (string * bool) option;  (** path, append? *)
}

type sh_cmd =
  | Sh_pipe of sh_stage list
  | Sh_and of sh_cmd * sh_cmd
  | Sh_seq of sh_cmd list
