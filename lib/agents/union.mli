(** The union-directory agent (§3.3.3): mounts a search list of
    directories so that the union of their contents appears to reside
    in a single directory — the motivating example being separate
    source and object directories appearing as one to [make].

    Structure mirrors the paper: a derived pathname resolution
    ([getpn]) that maps names under a union mount point onto the first
    member that contains them, and a derived directory object whose
    [next_direntry] iterates over every member's contents (duplicates
    suppressed, earlier members win).  New files are created in the
    first member.

    Declared delta: [Rewrites_results [getdirentries; stat; lstat]] —
    listings and identities under a mount reflect the union, not any
    single member (this covers the {!Merged_dir} machinery too). *)

type mount = {
  point : string;          (** absolute path of the union directory *)
  members : string list;   (** absolute member directories, priority order *)
}

val parse_mount_arg : string -> mount option (** of ["/PT=/M1:/M2"] *)

class agent : object
  inherit Toolkit.pathname_set

  method add_mount : point:string -> members:string list -> unit
  method mounts : mount list

  method translate : string -> string
  (** Where a pathname actually resolves (identity when the path is
      not under a union mount); exposed for tests. *)
end

val create : mounts:mount list -> unit -> agent
(** [init] also accepts arguments of the form
    ["/union=/dir1:/dir2:..."], as the loader would pass. *)
