(** The one "path lies in one of these subtrees" test the path-scoped
    agents share: [sandbox] for its readable, writable and executable
    prefixes, [crypt] and [compress] for the subtrees they store
    transformed. *)

val mem : string list -> string -> bool
(** [mem roots path]: [path] is one of [roots] or lies below one, by
    whole path components ("/" holds every path; "/tmp" holds
    "/tmp/x" but not "/tmpx").  Lexical, on the absolute paths the
    agents see; allocates nothing, since it runs on every open under
    these agents. *)
