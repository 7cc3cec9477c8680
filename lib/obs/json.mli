(** Minimal JSON emitter/parser.

    The container ships no JSON library; this covers exactly the subset
    the observability stack needs — finite numbers, UTF-8 strings,
    arrays, objects — for span JSONL, [BENCH_<name>.json], and the
    schema validation of the bench gates. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Floats must be finite. *)

val to_lines : t -> string
(** {!to_string} with one top-level object field, and one element of
    each top-level array, per line, so a line diff of two documents
    names the field or row that changed.  Parses back to the same
    value. *)

val of_string : string -> (t, string) result
(** Parses a complete document; trailing non-whitespace is an error.
    [\uXXXX] escapes are decoded to UTF-8 (surrogate pairs are not
    recombined — we never emit them). *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects. *)

val to_int : t -> int option
val to_number : t -> float option
(** [Int] or [Float], as a float. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
