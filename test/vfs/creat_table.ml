(* O_CREAT through a symlink, with the answers Linux gives.  Each row
   was checked on Linux 6.18 through Python's os calls, in a forked
   child chrooted into a fresh temporary directory holding the same
   fixture at /tmp/t, so absolute targets name the same files on both
   substrates.  test/vfs runs the rows on [Vfs.Fs]; test/kernel_extra
   copies this file and runs them through [Libc.Unistd].  Paths are
   relative to /tmp/t and rows run in order.

   A dangling link is followed and its target created, a relative
   target against the link's directory; O_EXCL does not follow it. *)

open Abi

type call =
  | Open_creat of string  (** O_WRONLY|O_CREAT *)
  | Open_excl of string  (** O_WRONLY|O_CREAT|O_EXCL *)
  | Open_rdonly of string  (** O_RDONLY|O_CREAT *)
  | Creat of string

let flags =
  let open Flags.Open in
  function
  | Open_creat _ -> o_wronly lor o_creat
  | Open_excl _ -> o_wronly lor o_creat lor o_excl
  | Open_rdonly _ -> o_rdonly lor o_creat
  | Creat _ -> o_wronly lor o_creat lor o_trunc

let path = function
  | Open_creat p | Open_excl p | Open_rdonly p | Creat p -> p

let show = function
  | Open_creat p -> "open O_CREAT " ^ p
  | Open_excl p -> "open O_CREAT|O_EXCL " ^ p
  | Open_rdonly p -> "open O_RDONLY|O_CREAT " ^ p
  | Creat p -> "creat " ^ p

(* the fixture: directories, a file, then (target, link) symlinks *)
let dirs = [ "d"; "d/sub" ]
let files = [ "f" ]

let links =
  [ ("new1", "dang");
    ("new2", "d/dang");
    ("/tmp/t/new3", "dang_abs");
    ("dang_c", "chain");
    ("new4", "dang_c");
    ("nodir/new5", "dang_nodir");
    ("f/new6", "dang_notdir");
    ("loop2", "loop1");
    ("loop1", "loop2");
    ("self", "self");
    ("new7", "dang_excl");
    ("new8/", "dang_slash");
    ("new9", "dang_creat");
    ("../new10", "d/up");
    ("sub/new11", "d/down");
    ("new12", "dang_ro");
    ("d/sub/", "dsub");
    ("f", "flink") ]

let rows =
  [ (Open_creat "dang", Ok ());
    (Open_creat "d/dang", Ok ());
    (Open_creat "dang_abs", Ok ());
    (Open_creat "chain", Ok ());
    (Open_creat "dang_nodir", Error Errno.ENOENT);
    (Open_creat "dang_notdir", Error Errno.ENOTDIR);
    (Open_creat "loop1", Error Errno.ELOOP);
    (Open_creat "self", Error Errno.ELOOP);
    (Open_excl "dang_excl", Error Errno.EEXIST);
    (Open_creat "dang_slash", Error Errno.EISDIR);
    (Creat "dang_creat", Ok ());
    (Open_creat "d/up", Ok ());
    (Open_creat "d/down", Ok ());
    (Open_rdonly "dang_ro", Ok ());
    (Open_creat "dsub/x", Ok ());
    (Open_creat "flink", Ok ()) ]

(* after the rows: the regular files the links created, and the names
   no row may have created *)
let created =
  [ "new1"; "d/new2"; "new3"; "new4"; "new9"; "new10"; "d/sub/new11";
    "new12"; "d/sub/x" ]

let absent = [ "new5"; "new6"; "new7"; "new8"; "d/new1"; "d/new10"; "x" ]

let outcome = function Ok () -> "ok" | Error e -> Errno.name e
