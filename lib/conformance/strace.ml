open Abi

(* Importing real strace(1) output.  A Linux trace parses into a
   stream of classified entries; those become (a) a Signature.t in the
   same shape vocabulary the simulator emits, and (b) a replayable
   scenario — a process body that re-issues the trace's calls against
   the simulated kernel, suitable for running under the record/replay
   agents.  Calls outside the 4.3BSD surface are counted, not
   dropped silently. *)

type entry = {
  t_linux : string;          (* the call name as written in the trace *)
  t_sysno : int;             (* mapped native syscall number *)
  t_shape : string;          (* canonical arg shape (Abi.Shape tokens) *)
  t_path : string option;    (* a pathname call's first absolute path *)
  t_fd : int option;         (* leading descriptor argument *)
  t_size : int option;       (* trailing byte-count argument *)
  t_wflags : int;            (* open intent: Flags.Open bits *)
  t_ret : int;
  t_errno : Errno.t option;
}

type trace = {
  tr_entries : entry list;
  tr_skipped : int;          (* calls with no native mapping *)
  tr_lines : int;            (* input lines that looked like syscalls *)
}

(* --- lexing one line ------------------------------------------------------ *)

(* split an argument list on top-level commas (quotes, brackets and
   braces nest; backslash escapes inside quoted strings) *)
let split_args s =
  let out = ref [] in
  let buf = Buffer.create 32 in
  let depth = ref 0 in
  let in_str = ref false in
  let n = String.length s in
  let flush () =
    let a = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if a <> "" then out := a :: !out
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (if !in_str then begin
       Buffer.add_char buf c;
       if c = '\\' && !i + 1 < n then begin
         Buffer.add_char buf s.[!i + 1];
         incr i
       end
       else if c = '"' then in_str := false
     end
     else
       match c with
       | '"' ->
         in_str := true;
         Buffer.add_char buf c
       | '(' | '[' | '{' ->
         incr depth;
         Buffer.add_char buf c
       | ')' | ']' | '}' ->
         decr depth;
         Buffer.add_char buf c
       | ',' when !depth = 0 -> flush ()
       | _ -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !out

let unquote_c s =
  (* strace C-style string literal, possibly "..."...-truncated *)
  let s =
    if String.length s >= 3 && String.sub s (String.length s - 3) 3 = "..."
    then String.sub s 0 (String.length s - 3)
    else s
  in
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"'
  then begin
    let body = String.sub s 1 (String.length s - 2) in
    let b = Buffer.create (String.length body) in
    let n = String.length body in
    let rec go i =
      if i < n then
        if body.[i] = '\\' && i + 1 < n then begin
          (match body.[i + 1] with
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | '0' -> Buffer.add_char b '\000'
           | c -> Buffer.add_char b c);
          go (i + 2)
        end
        else begin
          Buffer.add_char b body.[i];
          go (i + 1)
        end
    in
    go 0;
    Some (Buffer.contents b)
  end
  else None

let is_int_token s =
  s <> ""
  && (match int_of_string_opt s with Some _ -> true | None -> false)

(* classify one textual argument into a Shape token by synthesizing
   the Value.t the simulator would have carried *)
let token_of_arg ~name a =
  match unquote_c a with
  | Some s ->
    (* a read/write payload is buffer-class, not string-class *)
    if name = "read" || name = "write" then
      Shape.token (Value.Buf (Bytes.of_string s))
    else Shape.token (Value.Str s)
  | None ->
    if a = "NULL" then Shape.token Value.Nil
    else if is_int_token a then
      Shape.token (Value.Int (int_of_string a))
    else if String.length a > 0 && a.[0] = '{' then "st"
    else if String.length a > 0 && a.[0] = '[' then
      "v"
      ^ string_of_int
          (List.length (split_args (String.sub a 1 (String.length a - 2))))
    else "k" (* symbolic constant(s): O_RDONLY, AT_FDCWD, SEEK_SET... *)

let first_path args =
  List.find_map
    (fun a ->
      match unquote_c a with
      | Some s when String.length s > 0 && s.[0] = '/' -> Some s
      | _ -> None)
    args

(* the leading descriptor of a call whose first argument is one *)
let leading_fd sysno args =
  if Call.fd_first sysno then
    match args with
    | a :: _ when is_int_token a -> Some (int_of_string a)
    | a :: _ -> (
      (* strace -y renders "3</etc/passwd>" *)
      match String.index_opt a '<' with
      | Some i -> int_of_string_opt (String.sub a 0 i)
      | None -> None)
    | [] -> None
  else None

let trailing_size args =
  match List.rev args with
  | a :: _ when is_int_token a -> Some (int_of_string a)
  | _ -> None

let open_flags args =
  let spec = String.concat "|" args in
  let has f =
    (* substring test over the symbolic flag spec *)
    let fl = String.length f and sl = String.length spec in
    let rec go i = i + fl <= sl && (String.sub spec i fl = f || go (i + 1)) in
    go 0
  in
  let open Flags.Open in
  List.fold_left
    (fun acc (name, bit) -> if has name then acc lor bit else acc)
    (if has "O_RDWR" then o_rdwr
     else if has "O_WRONLY" then o_wronly
     else o_rdonly)
    [ ("O_CREAT", o_creat); ("O_TRUNC", o_trunc); ("O_APPEND", o_append) ]

(* one line: "name(args) = ret [ERRNO (text)]", or noise we skip *)
let parse_line line =
  let line = String.trim line in
  (* strip a leading "[pid NNN]" or bare-pid prefix from -f output *)
  let line =
    if String.length line > 0 && (line.[0] = '[' || is_int_token
        (match String.index_opt line ' ' with
         | Some i -> String.sub line 0 i
         | None -> ""))
    then
      match String.index_opt line ' ' with
      | Some i ->
        let rest = String.trim (String.sub line i (String.length line - i)) in
        if String.length line > 0 && line.[0] = '[' then
          (match String.index_opt line ']' with
           | Some j when j + 1 < String.length line ->
             String.trim (String.sub line (j + 1) (String.length line - j - 1))
           | _ -> rest)
        else rest
      | None -> line
    else line
  in
  if line = "" then `Noise
  else if String.length line >= 3 && String.sub line 0 3 = "+++" then `Noise
  else if String.length line >= 3 && String.sub line 0 3 = "---" then `Noise
  else
    match String.index_opt line '(' with
    | None -> `Noise
    | Some lp -> (
      let name = String.sub line 0 lp in
      let valid_name =
        name <> ""
        && String.for_all
             (fun c ->
               (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
             name
      in
      if not valid_name then `Noise
      else
        (* the result separator is the LAST " = " on the line *)
        let rec last_eq from acc =
          match String.index_from_opt line from '=' with
          | Some i when i > 0 && i + 1 < String.length line
                        && line.[i - 1] = ' ' && line.[i + 1] = ' ' ->
            last_eq (i + 1) (Some i)
          | Some i -> last_eq (i + 1) acc
          | None -> acc
        in
        match last_eq lp None with
        | None -> `Unfinished (* "<unfinished ...>" and friends *)
        | Some eq -> (
          match String.rindex_from_opt line eq ')' with
          | None -> `Noise
          | Some rp when rp <= lp -> `Noise
          | Some rp ->
            let args_s = String.sub line (lp + 1) (rp - lp - 1) in
            let ret_s =
              String.trim
                (String.sub line (eq + 1) (String.length line - eq - 1))
            in
            let ret_tok, errno =
              match String.split_on_char ' ' ret_s with
              | [] -> ("", None)
              | r :: rest ->
                let e =
                  List.find_map
                    (fun t ->
                      if String.length t > 1 && t.[0] = 'E' then
                        Errno.of_name t
                      else None)
                    rest
                in
                (r, e)
            in
            let ret =
              match int_of_string_opt ret_tok with
              | Some r -> r
              | None -> if ret_tok = "?" then 0 else 0
            in
            let args = split_args args_s in
            `Call (name, args, ret, errno)))

let parse text =
  let entries = ref [] in
  let skipped = ref 0 in
  let lines = ref 0 in
  List.iter
    (fun line ->
      match parse_line line with
      | `Noise | `Unfinished -> ()
      | `Call (name, args, ret, errno) -> (
        incr lines;
        match Call.of_linux name with
        | None -> incr skipped
        | Some sysno ->
          (* openat's AT_FDCWD and *at dirfds are calling-convention
             noise the 4.3BSD surface does not have *)
          let args =
            match args with
            | first :: rest
              when String.length name > 2
                   && (String.sub name (String.length name - 2) 2 = "at"
                       || name = "openat" || name = "newfstatat")
                   && (first = "AT_FDCWD" || is_int_token first) ->
              rest
            | _ -> args
          in
          let shape =
            String.concat "," (List.map (token_of_arg ~name) args)
          in
          entries :=
            {
              t_linux = name;
              t_sysno = sysno;
              t_shape = shape;
              t_path =
                (if List.mem sysno Call.pathname_calls then first_path args
                 else None);
              t_fd = leading_fd sysno args;
              t_size = trailing_size args;
              t_wflags = (if sysno = Sysno.sys_open then open_flags args else 0);
              t_ret = ret;
              t_errno = errno;
            }
            :: !entries))
    (String.split_on_char '\n' text);
  { tr_entries = List.rev !entries; tr_skipped = !skipped; tr_lines = !lines }

(* --- trace -> signature --------------------------------------------------- *)

let to_signature ?(pid = 1) tr =
  Signature.of_events
    (List.mapi
       (fun i e ->
         {
           Signature.x_seq = i + 1;
           x_pid = pid;
           x_sysno = e.t_sysno;
           x_shape = e.t_shape;
           x_outcome =
             (if e.t_linux = "execve" && e.t_ret = 0 then Signature.Noreturn
              else if e.t_linux = "exit" || e.t_linux = "exit_group" then
                Signature.Noreturn
              else
                match e.t_errno with
                | Some er -> Signature.Err (Errno.to_int er)
                | None -> Signature.Ok_);
         })
       tr.tr_entries)

(* --- trace -> replayable scenario ----------------------------------------- *)

(* The scenario re-issues the trace's calls against the simulated
   kernel, best-effort: descriptors are translated through a live map
   (the simulator will hand out different numbers), paths are used as
   recorded, data payloads are synthesized at the recorded size.
   Calls that cannot be re-issued (no mapped descriptor, unsupported
   shape) are skipped and counted; the function returns the number of
   calls actually issued.

   Determinism is the property that matters: two runs of the same
   scenario issue the same call sequence, so a journal recorded on the
   first run replays on the second with zero desyncs. *)
let scenario tr () =
  let open Libc.Unistd in
  let fdmap : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let issued = ref 0 in
  let issue (r : _ r) = incr issued; ignore r in
  List.iter
    (fun e ->
      let mapped = Option.bind e.t_fd (Hashtbl.find_opt fdmap) in
      let n = e.t_sysno in
      if n = Sysno.sys_open then (
        match e.t_path with
        | Some p -> (
          match open_ p e.t_wflags 0o644 with
          | Ok fd ->
            incr issued;
            if e.t_ret >= 0 then Hashtbl.replace fdmap e.t_ret fd
          | Error _ -> incr issued)
        | None -> ())
      else if n = Sysno.sys_close then (
        match mapped with
        | Some fd ->
          issue (close fd);
          (match e.t_fd with
           | Some tfd -> Hashtbl.remove fdmap tfd
           | None -> ())
        | None -> ())
      else if n = Sysno.sys_read then (
        match mapped with
        | Some fd ->
          let sz = max 0 (min 65536 (Option.value ~default:0 e.t_size)) in
          issue (read fd (Bytes.create sz) sz)
        | None -> ())
      else if n = Sysno.sys_write then (
        match mapped with
        | Some fd ->
          let sz = max 0 (min 65536 (Option.value ~default:0 e.t_size)) in
          issue (write fd (String.make sz 'x'))
        | None ->
          (* stdout/stderr exist without an open in the trace *)
          (match e.t_fd with
           | Some (1 | 2) ->
             let sz = max 0 (min 4096 (Option.value ~default:0 e.t_size)) in
             issue (write 2 (String.make sz 'x'))
           | _ -> ()))
      else if n = Sysno.sys_stat then (
        match e.t_path with Some p -> issue (stat p) | None -> ())
      else if n = Sysno.sys_lstat then (
        match e.t_path with Some p -> issue (lstat p) | None -> ())
      else if n = Sysno.sys_fstat then (
        match mapped with Some fd -> issue (fstat fd) | None -> ())
      else if n = Sysno.sys_access then (
        match e.t_path with Some p -> issue (access p 4) | None -> ())
      else if n = Sysno.sys_readlink then (
        match e.t_path with Some p -> issue (readlink p) | None -> ())
      else if n = Sysno.sys_unlink then (
        match e.t_path with Some p -> issue (unlink p) | None -> ())
      else if n = Sysno.sys_mkdir then (
        match e.t_path with Some p -> issue (mkdir p 0o755) | None -> ())
      else if n = Sysno.sys_rmdir then (
        match e.t_path with Some p -> issue (rmdir p) | None -> ())
      else if n = Sysno.sys_chdir then (
        match e.t_path with Some p -> issue (chdir p) | None -> ())
      else if n = Sysno.sys_getcwd then issue (getcwd ())
      else if n = Sysno.sys_getdirentries then (
        match mapped with
        | Some fd -> issue (getdirentries fd (Bytes.create 512))
        | None -> ())
      else if n = Sysno.sys_lseek then (
        match mapped with
        | Some fd ->
          let off =
            match e.t_linux with
            | "lseek" -> (
              (* lseek(fd, off, whence): off is the 2nd argument, but
                 we only kept the trailing size slot; seek to ret when
                 the call succeeded, else 0 *)
              match e.t_ret with r when r >= 0 -> r | _ -> 0)
            | _ -> 0
          in
          issue (lseek fd off Flags.Seek.set)
        | None -> ())
      else if n = Sysno.sys_getpid then (incr issued; ignore (getpid ()))
      else if n = Sysno.sys_getppid then (incr issued; ignore (getppid ()))
      else if n = Sysno.sys_getuid then (incr issued; ignore (getuid ()))
      else if n = Sysno.sys_geteuid then (incr issued; ignore (geteuid ()))
      else if n = Sysno.sys_getgid then (incr issued; ignore (getgid ()))
      else if n = Sysno.sys_gettimeofday then issue (gettimeofday ())
      else if n = Sysno.sys_sleepus then issue (sleep_us 1000)
      else ( (* unsupported in replay: fork/execve/signals/... *) ))
    tr.tr_entries;
  Hashtbl.iter (fun _ fd -> ignore (close fd)) fdmap;
  !issued
