(* Calls whose last component is "." or "..", calls on "/" itself, and
   a symlink with an empty target, with the errnos Linux returns.  Each
   row was checked on Linux 6.18 through Python's os calls, in a fresh
   directory holding the same fixture: directories d and d/sub, and a
   file f.  The rows on "/" ran in a forked child chrooted into a fresh
   temporary directory, so the host's own root was never their target.
   test/vfs runs the rows on [Vfs.Fs]; test/kernel_extra copies this
   file and runs them through [Libc.Unistd].  Paths are relative to
   the fixture directory unless they start with "/", rows run in
   order, and none may change the fixture. *)

open Abi

type call =
  | Rmdir of string
  | Rename of string * string  (** source, destination *)
  | Unlink of string
  | Mkdir of string
  | Link of string * string  (** existing, new name *)
  | Symlink of string * string  (** target, new name *)

let show = function
  | Rmdir p -> "rmdir " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Unlink p -> "unlink " ^ p
  | Mkdir p -> "mkdir " ^ p
  | Link (a, b) -> Printf.sprintf "link %s %s" a b
  | Symlink (a, b) -> Printf.sprintf "symlink %S %s" a b

let rows =
  [ (Rmdir "d/..", Errno.ENOTEMPTY);
    (Rmdir "d/sub/..", Errno.ENOTEMPTY);
    (Rmdir "d/.", Errno.EINVAL);
    (Rename ("d/.", "e"), Errno.EBUSY);
    (Rename ("d/..", "e"), Errno.EBUSY);
    (Rename ("f", "d/."), Errno.EBUSY);
    (Rename ("f", "d/.."), Errno.EBUSY);
    (Rename ("missing", "d/."), Errno.EBUSY);
    (Unlink "d/.", Errno.EISDIR);
    (Unlink "d/..", Errno.EISDIR);
    (Unlink "d/./", Errno.EISDIR);
    (Mkdir "d/.", Errno.EEXIST);
    (Mkdir "d/..", Errno.EEXIST);
    (Link ("f", "d/."), Errno.EEXIST);
    (Symlink ("x", "d/."), Errno.EEXIST);
    (Symlink ("", "s"), Errno.ENOENT);
    (Rmdir "/", Errno.EBUSY);
    (Rmdir "//", Errno.EBUSY);
    (Unlink "/", Errno.EISDIR);
    (Rename ("/", "e"), Errno.EBUSY);
    (Rename ("f", "/"), Errno.EBUSY);
    (Rename ("missing", "/"), Errno.EBUSY);
    (Rename ("/", "missing/e"), Errno.ENOENT);
    (Mkdir "/", Errno.EEXIST);
    (Link ("f", "/"), Errno.EEXIST);
    (Symlink ("x", "/"), Errno.EEXIST) ]

(* a row's path: absolute as written, else under the fixture [dir] *)
let at dir p = if String.starts_with ~prefix:"/" p then p else dir ^ p

(* the fixture's names after every row: nothing renamed, removed or
   created *)
let present = [ "d"; "d/sub"; "f" ]
let absent = [ "e"; "s"; "d/e"; "d/s" ]
