(** DFSTrace-style file-reference records.

    The Coda project's DFSTrace collected one record per
    filesystem-referencing operation, carrying the operation, pid,
    timestamp, pathname and outcome; analysis tools post-processed the
    stream.  This module defines our compatible record set with a
    stable one-line-per-record wire format and a parser, so traces
    written by either the agent-based collector ({!Dfs_trace}) or the
    in-kernel collector ({!Dfs_kernel}) can be compared and
    post-processed identically. *)

type op =
  | R_open of int          (** open flags *)
  | R_close of int * int   (** bytes read, bytes written *)
  | R_creat
  | R_stat
  | R_lstat
  | R_access
  | R_readlink
  | R_chdir
  | R_execve
  | R_unlink
  | R_rmdir
  | R_mkdir
  | R_chmod
  | R_chown
  | R_truncate
  | R_utimes
  | R_rename of string     (** destination *)
  | R_link of string
  | R_symlink of string    (** link target *)

type t = {
  serial : int;
  pid : int;
  time_us : int;
  path : string;
  op : op;
  result : int;  (** 0 on success, errno otherwise *)
}

val op_name : op -> string

val quote : string -> string
(** %-encode space, ['%'], control bytes and bytes above ['~'] as
    [%xx], so a text field is one space-free token on its line.  The
    record_replay journal encodes its payloads with it too. *)

val unquote : string -> string
(** Inverse of {!quote}. *)

val encode : t -> string
(** One line, newline-terminated. *)

val parse : string -> t option
(** Inverse of {!encode} (without the newline). *)

val parse_all : string -> t list
(** Parse a whole trace file, skipping malformed lines. *)
