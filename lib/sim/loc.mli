(** Statement counting for the Table 3-1 reproduction.

    The paper measures agent size in {e statements}, counted as
    semicolons in the C/C++ sources ("this gives a better measure of
    the actual number of statements present in the code than counting
    lines").  For OCaml the analogue of a statement is a top-level or
    [let]-bound definition plus each imperative statement; we report
    both a semicolon-flavoured count ([;] and [;;] occurrences plus
    [let]/[method]/[val] bindings, outside comments and strings) and a
    plain non-blank non-comment line count, so the bench table can show
    the paper's metric and a modern one side by side. *)

type count = {
  statements : int;  (** semicolon-analogue statement count *)
  lines : int;       (** non-blank, non-comment source lines *)
}

val zero : count
val add : count -> count -> count

val count_string : string -> count
(** Count statements in OCaml source given as a string. *)

val count_file : string -> count
(** Count statements in one [.ml]/[.mli] file. *)

val find_repo_root : unit -> string option
(** Walk upward from the current directory looking for [dune-project];
    lets benchmarks locate the sources they measure when run from a
    build sandbox. *)
