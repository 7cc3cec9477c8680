(** Toolkit objects for the primary and secondary abstractions of the
    system interface: reference-counted open objects, descriptors,
    directories (with the [next_direntry] iteration the union agent
    hooks), and resolved pathnames.

    Methods that operate on an open file take the descriptor number
    explicitly ([~fd]) because several descriptors — after [dup] or
    [fork] — may share one object, and the underlying call must be
    made on the caller's own descriptor.

    Each default method makes its call on the next level down as the
    symbolic defaults do ([Downlink.pass3]): a call built from the
    arguments of the one being served goes down in that call's own
    envelope, and any other call in a new one. *)

class open_object : Downlink.t -> object
  method retain : unit
  method release : int
  (** Returns the remaining reference count. *)

  method on_last_close : unit
  (** Cleanup hook; default does nothing. *)

  method read : fd:int -> Bytes.t -> int -> Abi.Value.res
  method write : fd:int -> string -> Abi.Value.res
  method lseek : fd:int -> int -> int -> Abi.Value.res
  method fstat : fd:int -> Abi.Stat.t option ref -> Abi.Value.res
  method getdirentries : fd:int -> Bytes.t -> Abi.Value.res
  method ftruncate : fd:int -> int -> Abi.Value.res
  method fsync : fd:int -> Abi.Value.res
  method ioctl : fd:int -> int -> Bytes.t -> Abi.Value.res
  method close : fd:int -> Abi.Value.res
end

(** An open directory: [getdirentries] re-expressed through the
    [next_direntry] iterator so that derived classes can change what a
    directory appears to contain by overriding one method. *)
class directory : Downlink.t -> object
  inherit open_object

  method next_direntry : fd:int -> Abi.Dirent.t option
  (** The next entry of the (possibly transformed) directory; [None]
      at the end.  Default: iterate the underlying directory. *)

  method rewind : fd:int -> Abi.Value.res
  (** Restart iteration (an [lseek] to 0 routes here). *)
end

(** A slot in the descriptor name space, referencing an open object. *)
class descriptor : fd:int -> open_object -> object
  method fd : int
  method open_object : open_object
  method dup_onto : fd:int -> descriptor
  (** A new descriptor sharing (and retaining) the open object. *)

  method read : Bytes.t -> int -> Abi.Value.res
  method write : string -> Abi.Value.res
  method lseek : int -> int -> Abi.Value.res
  method fstat : Abi.Stat.t option ref -> Abi.Value.res
  method getdirentries : Bytes.t -> Abi.Value.res
  method ftruncate : int -> Abi.Value.res
  method fsync : Abi.Value.res
  method ioctl : int -> Bytes.t -> Abi.Value.res
  method close : Abi.Value.res
end

(** A resolved pathname: the per-object half of the pathname layer.
    The [pathname_set] resolves strings to these (via [getpn]) and
    invokes the corresponding method; agents change the interpretation
    of the name space by overriding [getpn], and the behaviour of the
    referenced objects by deriving from this class. *)
class pathname : Downlink.t -> string -> object
  method path : string
  (** The (possibly rewritten) pathname this object stands for. *)

  method open_ : int -> int -> Abi.Value.res
  method creat : int -> Abi.Value.res
  method stat : Abi.Stat.t option ref -> Abi.Value.res
  method lstat : Abi.Stat.t option ref -> Abi.Value.res
  method access : int -> Abi.Value.res
  method chmod : int -> Abi.Value.res
  method chown : int -> int -> Abi.Value.res
  method utimes : int -> int -> Abi.Value.res
  method truncate : int -> Abi.Value.res
  method readlink : Bytes.t -> Abi.Value.res
  method unlink : Abi.Value.res
  method rmdir : Abi.Value.res
  method mkdir : int -> Abi.Value.res
  method mknod : int -> int -> Abi.Value.res
  method chdir : Abi.Value.res
  method link_to : pathname -> Abi.Value.res
  (** [existing#link_to newpn]. *)

  method rename_to : pathname -> Abi.Value.res
  method symlink : target:string -> Abi.Value.res
  (** Create this path as a symbolic link to [target]. *)

  method execve : string array -> string array -> Abi.Value.res
end
