open Value

type t =
  | Exit of int
  | Fork of (unit -> int)
  | Read of int * Bytes.t * int
  | Write of int * string
  | Open of string * int * int
  | Close of int
  | Wait4 of int * int
  | Creat of string * int
  | Link of string * string
  | Unlink of string
  | Execve of string * string array * string array
  | Chdir of string
  | Fchdir of int
  | Mknod of string * int * int
  | Chmod of string * int
  | Chown of string * int * int
  | Sbrk of int
  | Lseek of int * int * int
  | Getpid
  | Setuid of int
  | Getuid
  | Geteuid
  | Alarm of int
  | Access of string * int
  | Sync
  | Kill of int * int
  | Stat of string * Stat.t option ref
  | Getppid
  | Lstat of string * Stat.t option ref
  | Dup of int
  | Pipe
  | Socketpair
  | Getegid
  | Sigaction of int * handler option * handler option ref option
  | Getgid
  | Sigprocmask of int * int
  | Sigpending
  | Sigsuspend of int
  | Ioctl of int * int * Bytes.t
  | Symlink of string * string
  | Readlink of string * Bytes.t
  | Umask of int
  | Fstat of int * Stat.t option ref
  | Getpagesize
  | Getpgrp
  | Setpgrp of int * int
  | Getdtablesize
  | Dup2 of int * int
  | Fcntl of int * int * int
  | Fsync of int
  | Socket
  | Bind of int * string
  | Listen of int * int
  | Accept of int
  | Connect of int * string
  | Send of int * string
  | Recv of int * Bytes.t * int
  | Shutdown of int * int
  | Select of int * int * int
  | Gettimeofday of (int * int) option ref
  | Getrusage of (int * int) option ref
  | Settimeofday of int * int
  | Rename of string * string
  | Truncate of string * int
  | Ftruncate of int * int
  | Mkdir of string * int
  | Rmdir of string
  | Utimes of string * int * int
  | Getdirentries of int * Bytes.t
  | Sleepus of int
  | Getcwd of Bytes.t

(* --- the system-call table --------------------------------------------- *)

(* Every call is one row: its number, its name, how its wire decodes,
   the Linux names strace(1) reports it under, and whether the
   toolkit's [descriptor_set] starts tracking the descriptor it
   returns.  A call's number and wire layout, decoding, the name
   lookups, the pathname and descriptor families and strace's name map
   are all read off these rows. *)

(* The kind of one argument slot, typed by what it decodes to.  [Fd]
   decodes as [Int] does and [Path] as [Str] does; they mark the
   arguments that put a call in the descriptor and pathname
   families. *)
module Slot = struct
  type _ t =
    | Int : int t
    | Fd : int t
    | Str : string t
    | Path : string t
    | Buf : Bytes.t t
    | Strs : string array t
    | Body : (unit -> int) t
    | Stat_ref : Stat.t option ref t
    | Tv_ref : (int * int) option ref t
    | Handler : handler option t          (* [Nil] is [None] *)
    | Handler_ref : handler option ref option t  (* [Nil] is [None] *)
end

(* A row's slots and the constructor that takes them, applied whole.
   A nullary row holds its [Ok] built once, so decoding it allocates
   nothing. *)
type spec =
  | A0 : (t, Errno.t) result -> spec
  | A1 : 'a Slot.t * ('a -> t) -> spec
  | A2 : 'a Slot.t * 'b Slot.t * ('a -> 'b -> t) -> spec
  | A3 : 'a Slot.t * 'b Slot.t * 'c Slot.t * ('a -> 'b -> 'c -> t) -> spec

type row = {
  num : int;
  name : string;
  linux : string list;  (* the strace names mapped to this call *)
  tracks : bool;        (* descriptor_set tracks the returned fd *)
  spec : spec;
}

let row ?(tracks = false) num name linux spec =
  { num; name; linux; tracks; spec }

(* in ascending order of number *)
let rows =
  let open Sysno in
  Slot.
    [ row sys_exit "exit" [ "exit"; "exit_group"; "_exit" ]
        (A1 (Int, fun code -> Exit code));
      row sys_fork "fork" [ "fork"; "vfork"; "clone"; "clone3" ]
        (A1 (Body, fun body -> Fork body));
      row sys_read "read" [ "read" ]
        (A3 (Fd, Buf, Int, fun fd buf n -> Read (fd, buf, n)));
      row sys_write "write" [ "write" ]
        (A2 (Fd, Str, fun fd data -> Write (fd, data)));
      row ~tracks:true sys_open "open" [ "open"; "openat" ]
        (A3 (Path, Int, Int, fun p flags mode -> Open (p, flags, mode)));
      row sys_close "close" [ "close" ] (A1 (Fd, fun fd -> Close fd));
      row sys_wait4 "wait4" [ "wait4"; "waitpid" ]
        (A2 (Int, Int, fun pid opts -> Wait4 (pid, opts)));
      row ~tracks:true sys_creat "creat" [ "creat" ]
        (A2 (Path, Int, fun p mode -> Creat (p, mode)));
      row sys_link "link" [ "link"; "linkat" ]
        (A2 (Path, Path, fun p q -> Link (p, q)));
      row sys_unlink "unlink" [ "unlink"; "unlinkat" ]
        (A1 (Path, fun p -> Unlink p));
      row sys_execve "execve" [ "execve" ]
        (A3 (Path, Strs, Strs, fun p argv envp -> Execve (p, argv, envp)));
      row sys_chdir "chdir" [ "chdir" ] (A1 (Path, fun p -> Chdir p));
      row sys_fchdir "fchdir" [ "fchdir" ] (A1 (Fd, fun fd -> Fchdir fd));
      row sys_mknod "mknod" [ "mknod"; "mknodat" ]
        (A3 (Path, Int, Int, fun p mode dev -> Mknod (p, mode, dev)));
      row sys_chmod "chmod" [ "chmod"; "fchmodat" ]
        (A2 (Path, Int, fun p mode -> Chmod (p, mode)));
      row sys_chown "chown" [ "chown"; "fchownat"; "lchown" ]
        (A3 (Path, Int, Int, fun p uid gid -> Chown (p, uid, gid)));
      row sys_sbrk "sbrk" [ "brk"; "sbrk" ] (A1 (Int, fun d -> Sbrk d));
      row sys_lseek "lseek" [ "lseek"; "_llseek" ]
        (A3 (Fd, Int, Int, fun fd off whence -> Lseek (fd, off, whence)));
      row sys_getpid "getpid" [ "getpid" ] (A0 (Ok Getpid));
      row sys_setuid "setuid" [ "setuid"; "setuid32" ]
        (A1 (Int, fun u -> Setuid u));
      row sys_getuid "getuid" [ "getuid"; "getuid32" ] (A0 (Ok Getuid));
      row sys_geteuid "geteuid" [ "geteuid"; "geteuid32" ] (A0 (Ok Geteuid));
      row sys_alarm "alarm" [ "alarm" ] (A1 (Int, fun s -> Alarm s));
      row sys_access "access" [ "access"; "faccessat"; "faccessat2" ]
        (A2 (Path, Int, fun p m -> Access (p, m)));
      row sys_sync "sync" [ "sync" ] (A0 (Ok Sync));
      row sys_kill "kill" [ "kill" ]
        (A2 (Int, Int, fun pid s -> Kill (pid, s)));
      row sys_stat "stat"
        [ "stat"; "stat64"; "newfstatat"; "fstatat64"; "statx" ]
        (A2 (Path, Stat_ref, fun p r -> Stat (p, r)));
      row sys_getppid "getppid" [ "getppid" ] (A0 (Ok Getppid));
      row sys_lstat "lstat" [ "lstat"; "lstat64" ]
        (A2 (Path, Stat_ref, fun p r -> Lstat (p, r)));
      row sys_dup "dup" [ "dup" ] (A1 (Fd, fun fd -> Dup fd));
      row ~tracks:true sys_pipe "pipe" [ "pipe"; "pipe2" ] (A0 (Ok Pipe));
      row sys_getegid "getegid" [ "getegid"; "getegid32" ] (A0 (Ok Getegid));
      row sys_sigaction "sigaction" [ "rt_sigaction"; "sigaction" ]
        (A3 (Int, Handler, Handler_ref, fun s h o -> Sigaction (s, h, o)));
      row sys_getgid "getgid" [ "getgid"; "getgid32" ] (A0 (Ok Getgid));
      row sys_sigprocmask "sigprocmask" [ "rt_sigprocmask"; "sigprocmask" ]
        (A2 (Int, Int, fun how m -> Sigprocmask (how, m)));
      row sys_sigpending "sigpending" [ "rt_sigpending"; "sigpending" ]
        (A0 (Ok Sigpending));
      row sys_sigsuspend "sigsuspend" [ "rt_sigsuspend"; "sigsuspend" ]
        (A1 (Int, fun m -> Sigsuspend m));
      row sys_ioctl "ioctl" [ "ioctl" ]
        (A3 (Fd, Int, Buf, fun fd op b -> Ioctl (fd, op, b)));
      (* the target is stored as the link's text, not resolved *)
      row sys_symlink "symlink" [ "symlink"; "symlinkat" ]
        (A2 (Str, Path, fun tgt p -> Symlink (tgt, p)));
      row sys_readlink "readlink" [ "readlink"; "readlinkat" ]
        (A2 (Path, Buf, fun p b -> Readlink (p, b)));
      row sys_umask "umask" [ "umask" ] (A1 (Int, fun m -> Umask m));
      row sys_fstat "fstat" [ "fstat"; "fstat64" ]
        (A2 (Fd, Stat_ref, fun fd r -> Fstat (fd, r)));
      row sys_getpagesize "getpagesize" [] (A0 (Ok Getpagesize));
      row sys_getpgrp "getpgrp" [ "getpgrp" ] (A0 (Ok Getpgrp));
      row sys_setpgrp "setpgrp" [ "setpgid" ]
        (A2 (Int, Int, fun pid pgrp -> Setpgrp (pid, pgrp)));
      row sys_getdtablesize "getdtablesize" [] (A0 (Ok Getdtablesize));
      row sys_dup2 "dup2" [ "dup2"; "dup3" ]
        (A2 (Fd, Fd, fun o n -> Dup2 (o, n)));
      row sys_fcntl "fcntl" [ "fcntl"; "fcntl64" ]
        (A3 (Fd, Int, Int, fun fd cmd arg -> Fcntl (fd, cmd, arg)));
      (* descriptor bitmasks, not descriptors *)
      row sys_select "select" [ "select"; "pselect6"; "_newselect" ]
        (A3 (Int, Int, Int, fun r w tmo -> Select (r, w, tmo)));
      row sys_fsync "fsync" [ "fsync"; "fdatasync" ]
        (A1 (Fd, fun fd -> Fsync fd));
      (* socket, accept and socketpair return descriptors that
         descriptor_set leaves untracked: its open objects are files
         and pipes, and a socket's traffic reaches the descriptor layer
         through send, recv and the other calls on its fd *)
      row sys_socket "socket" [] (A0 (Ok Socket));
      (* an address is a flat name, deliberately not a path *)
      row sys_connect "connect" []
        (A2 (Fd, Str, fun fd addr -> Connect (fd, addr)));
      row sys_accept "accept" [] (A1 (Fd, fun fd -> Accept fd));
      row sys_send "send" [] (A2 (Fd, Str, fun fd data -> Send (fd, data)));
      row sys_recv "recv" []
        (A3 (Fd, Buf, Int, fun fd buf n -> Recv (fd, buf, n)));
      row sys_bind "bind" [] (A2 (Fd, Str, fun fd addr -> Bind (fd, addr)));
      row sys_listen "listen" []
        (A2 (Fd, Int, fun fd backlog -> Listen (fd, backlog)));
      row sys_gettimeofday "gettimeofday"
        [ "gettimeofday"; "clock_gettime"; "time" ]
        (A1 (Tv_ref, fun r -> Gettimeofday r));
      row sys_getrusage "getrusage" [ "getrusage" ]
        (A1 (Tv_ref, fun r -> Getrusage r));
      row sys_settimeofday "settimeofday" [ "settimeofday" ]
        (A2 (Int, Int, fun s us -> Settimeofday (s, us)));
      row sys_rename "rename" [ "rename"; "renameat"; "renameat2" ]
        (A2 (Path, Path, fun p q -> Rename (p, q)));
      row sys_truncate "truncate" [ "truncate" ]
        (A2 (Path, Int, fun p len -> Truncate (p, len)));
      row sys_ftruncate "ftruncate" [ "ftruncate" ]
        (A2 (Fd, Int, fun fd len -> Ftruncate (fd, len)));
      row sys_shutdown "shutdown" []
        (A2 (Fd, Int, fun fd how -> Shutdown (fd, how)));
      row sys_socketpair "socketpair" [ "socketpair" ] (A0 (Ok Socketpair));
      row sys_mkdir "mkdir" [ "mkdir"; "mkdirat" ]
        (A2 (Path, Int, fun p mode -> Mkdir (p, mode)));
      row sys_rmdir "rmdir" [ "rmdir" ] (A1 (Path, fun p -> Rmdir p));
      row sys_utimes "utimes" [ "utimes"; "utimensat"; "utime" ]
        (A3 (Path, Int, Int, fun p at mt -> Utimes (p, at, mt)));
      row sys_getdirentries "getdirentries" [ "getdents"; "getdents64" ]
        (A2 (Fd, Buf, fun fd b -> Getdirentries (fd, b)));
      row sys_sleepus "sleepus" [ "nanosleep"; "clock_nanosleep"; "usleep" ]
        (A1 (Int, fun us -> Sleepus us));
      row sys_getcwd "getcwd" [ "getcwd" ] (A1 (Buf, fun b -> Getcwd b)) ]

let max_sysno = List.fold_left (fun m r -> max m r.num) 0 rows

(* Built once, when the module initialises, and never written after:
   every domain may read it. *)
let by_number =
  let a = Array.make (max_sysno + 1) None in
  List.iter (fun r -> a.(r.num) <- Some r) rows;
  a

let row_of n = if n >= 0 && n <= max_sysno then by_number.(n) else None

let name n =
  match row_of n with
  | Some r -> r.name
  | None -> Printf.sprintf "syscall#%d" n

let of_name s =
  List.find_map (fun r -> if r.name = s then Some r.num else None) rows

let all = List.map (fun r -> r.num) rows

let of_linux s =
  List.find_map (fun r -> if List.mem s r.linux then Some r.num else None) rows

(* --- a call's own row ----------------------------------------------------- *)

(* A call finds its row by how OCaml represents its constructor, which
   this relies on: [t] is an ordinary variant, with no inline records,
   no unboxed arguments and fewer than 246 block constructors.  A
   constant constructor is the immediate counting it among the constant
   ones; any other is a block whose tag counts it among the others and
   whose fields are its arguments, in order.  [by_const] indexes the
   rows by the one and [by_tag] by the other.  Both are built once,
   when the module initialises, from each row's constructor applied to
   a sample of each slot, and never written after.  A row whose
   constructor does not take its slots as its fields, two rows that
   build one constructor, and a constructor no row builds each fail
   the build. *)

let sample : type a. a Slot.t -> a = function
  | Slot.Int -> 0
  | Slot.Fd -> 0
  | Slot.Str -> ""
  | Slot.Path -> ""
  | Slot.Buf -> Bytes.empty
  | Slot.Strs -> [||]
  | Slot.Body -> fun () -> 0
  | Slot.Stat_ref -> ref None
  | Slot.Tv_ref -> ref None
  | Slot.Handler -> None
  | Slot.Handler_ref -> None

let arity = function A0 _ -> 0 | A1 _ -> 1 | A2 _ -> 2 | A3 _ -> 3

let built r =
  match r.spec with
  | A0 ok -> Result.get_ok ok
  | A1 (a, f) -> f (sample a)
  | A2 (a, b, f) -> f (sample a) (sample b)
  | A3 (a, b, d, f) -> f (sample a) (sample b) (sample d)

(* [keyed]'s rows in the order of their keys, which must run 0, 1, ...
   exactly. *)
let dense what keyed =
  List.sort (fun (k, _) (k', _) -> compare k k') keyed
  |> List.mapi (fun i (k, r) ->
         if k < i then
           failwith
             (Printf.sprintf "Call: %s %d is built by two rows, %s one" what
                k r.name);
         if k > i then
           failwith (Printf.sprintf "Call: %s %d is built by no row" what i);
         r)
  |> Array.of_list

let by_const, by_tag =
  let const, block =
    List.partition_map
      (fun r ->
        let c = Obj.repr (built r) and n = arity r.spec in
        if Obj.is_int c && n = 0 then Left ((Obj.obj c : int), r)
        else if Obj.is_block c && Obj.size c = n then Right (Obj.tag c, r)
        else failwith ("Call: row " ^ r.name ^ " takes other fields"))
      rows
  in
  (dense "constant constructor" const, dense "block tag" block)

let row_of_call (c : t) =
  let r = Obj.repr c in
  if Obj.is_int r then by_const.((Obj.obj r : int)) else by_tag.(Obj.tag r)

let number c = (row_of_call c).num

(* One field of a call as its wire value: the inverse of [get]. *)
let put : type a. a Slot.t -> a -> Value.t =
 fun s x ->
  match s with
  | Slot.Int -> Int x
  | Slot.Fd -> Int x
  | Slot.Str -> Str x
  | Slot.Path -> Str x
  | Slot.Buf -> Buf x
  | Slot.Strs -> Strs x
  | Slot.Body -> Body x
  | Slot.Stat_ref -> Stat_ref x
  | Slot.Tv_ref -> Tv_ref x
  | Slot.Handler -> (match x with Some h -> Handler h | None -> Nil)
  | Slot.Handler_ref -> (match x with Some r -> Handler_ref r | None -> Nil)

let field (c : t) i = Obj.obj (Obj.field (Obj.repr c) i)

let args r c =
  match r.spec with
  | A0 _ -> [||]
  | A1 (a, _) -> [| put a (field c 0) |]
  | A2 (a, b, _) -> [| put a (field c 0); put b (field c 1) |]
  | A3 (a, b, d, _) ->
    [| put a (field c 0); put b (field c 1); put d (field c 2) |]

let encode c =
  let r = row_of_call c in
  { Value.num = r.num; args = args r c }

let nargs c = arity (row_of_call c).spec

(* Whether [c] is call [n] built from exactly these arguments, each
   physically: then it cannot be told apart from [n] rebuilt from them,
   and a layer that would rebuild it may hand [c] on instead.  The size
   check comes first, so no field past [c]'s block is ever read. *)
let[@inline] shaped c n size =
  let r = Obj.repr c in
  Obj.is_block r && Obj.size r = size && number c = n

let same1 c n a = shaped c n 1 && field c 0 == a
let same2 c n a b = shaped c n 2 && field c 0 == a && field c 1 == b

let same3 c n a b d =
  shaped c n 3 && field c 0 == a && field c 1 == b && field c 2 == d

(* --- the families, read off the slots ----------------------------------- *)

(* A test of a slot's kind, whatever the slot decodes to. *)
type slot_test = { test : 'a. 'a Slot.t -> bool }

let is_path =
  { test =
      (fun (type a) (s : a Slot.t) ->
        match s with Slot.Path -> true | _ -> false) }

let is_fd =
  { test =
      (fun (type a) (s : a Slot.t) ->
        match s with Slot.Fd -> true | _ -> false) }

let any_slot { test } = function
  | A0 _ -> false
  | A1 (a, _) -> test a
  | A2 (a, b, _) -> test a || test b
  | A3 (a, b, c, _) -> test a || test b || test c

let first_slot { test } = function
  | A0 _ -> false
  | A1 (a, _) -> test a
  | A2 (a, _, _) -> test a
  | A3 (a, _, _, _) -> test a

(* ascending, as the rows are *)
let numbers_where p =
  List.filter_map (fun r -> if p r then Some r.num else None) rows

let pathname_calls = numbers_where (fun r -> any_slot is_path r.spec)

let descriptor_calls =
  numbers_where (fun r -> r.tracks || any_slot is_fd r.spec)

let file_calls = List.sort_uniq compare (pathname_calls @ descriptor_calls)

let fd_first n =
  match row_of n with Some r -> first_slot is_fd r.spec | None -> false

(* --- decoding ------------------------------------------------------------ *)

(* Each argument slot is read once, a missing slot reading as [Nil],
   and the row's constructor is applied to all of them at once: the
   only allocation is the typed call and its [Ok] (a nullary row's
   [Ok] is prebuilt).  A slot of the wrong shape, [Nil] included, is
   [EFAULT], except sigaction's two optional handler slots, where [Nil]
   means [None].  [get] is inlined into each arm: called out of line,
   once a slot, it made a decode about a third slower. *)
exception Fault

let[@inline] get : type a. a Slot.t -> Value.t -> a =
 fun s v ->
  match s, v with
  | Slot.Int, Int n -> n
  | Slot.Fd, Int n -> n
  | Slot.Str, Str x -> x
  | Slot.Path, Str x -> x
  | Slot.Buf, Buf b -> b
  | Slot.Strs, Strs v -> v
  | Slot.Body, Body f -> f
  | Slot.Stat_ref, Stat_ref r -> r
  | Slot.Tv_ref, Tv_ref r -> r
  | Slot.Handler, Handler h -> Some h
  | Slot.Handler, Nil -> None
  | Slot.Handler_ref, Handler_ref r -> Some r
  | Slot.Handler_ref, Nil -> None
  | _ -> raise_notrace Fault

let arg a i = if i < Array.length a then Array.unsafe_get a i else Nil
let efault = Error Errno.EFAULT

let decode (w : wire) : (t, Errno.t) result =
  match row_of w.num with
  | None -> Error Errno.ENOSYS
  | Some r ->
    let a = w.args in
    (try
       match r.spec with
       | A0 ok -> ok
       | A1 (s0, f) -> Ok (f (get s0 (arg a 0)))
       | A2 (s0, s1, f) ->
         let x0 = get s0 (arg a 0) in
         Ok (f x0 (get s1 (arg a 1)))
       | A3 (s0, s1, s2, f) ->
         let x0 = get s0 (arg a 0) in
         let x1 = get s1 (arg a 1) in
         Ok (f x0 x1 (get s2 (arg a 2)))
     with Fault -> efault)

let pp ppf c =
  let r = row_of_call c in
  Format.fprintf ppf "%s(" r.name;
  (match c with
   | Open (p, flags, mode) ->
     Format.fprintf ppf "%S, %a, 0%o" p Flags.Open.pp flags mode
   | Kill (pid, s) ->
     Format.fprintf ppf "%d, %s" pid (Signal.name s)
   | Sigaction (s, h, _) ->
     Format.fprintf ppf "%s, %a" (Signal.name s) Value.pp (put Slot.Handler h)
   | _ ->
     Array.iteri
       (fun i v ->
         if i > 0 then Format.fprintf ppf ", ";
         Value.pp ppf v)
       (args r c));
  Format.fprintf ppf ")"
