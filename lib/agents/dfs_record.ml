type op =
  | R_open of int
  | R_close of int * int
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
  | R_rename of string
  | R_link of string
  | R_symlink of string

type t = {
  serial : int;
  pid : int;
  time_us : int;
  path : string;
  op : op;
  result : int;
}

let op_name = function
  | R_open _ -> "open"
  | R_close _ -> "close"
  | R_creat -> "creat"
  | R_stat -> "stat"
  | R_lstat -> "lstat"
  | R_access -> "access"
  | R_readlink -> "readlink"
  | R_chdir -> "chdir"
  | R_execve -> "execve"
  | R_unlink -> "unlink"
  | R_rmdir -> "rmdir"
  | R_mkdir -> "mkdir"
  | R_chmod -> "chmod"
  | R_chown -> "chown"
  | R_truncate -> "truncate"
  | R_utimes -> "utimes"
  | R_rename _ -> "rename"
  | R_link _ -> "link"
  | R_symlink _ -> "symlink"

(* Pathnames are %-encoded so the record stays one space-separated
   line regardless of the characters in the name; the record_replay
   journal encodes its payloads the same way. *)
let quote s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = ' ' || c = '%' || Char.code c < 32 || Char.code c > 126 then
        Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c))
      else Buffer.add_char b c)
    s;
  Buffer.contents b

let unquote s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
         | Some code -> Buffer.add_char b (Char.chr (code land 0xff))
         | None -> Buffer.add_char b s.[i]);
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let extra = function
  | R_open flags -> string_of_int flags
  | R_close (r, w) -> Printf.sprintf "%d:%d" r w
  | R_rename dst | R_link dst -> quote dst
  | R_symlink target -> quote target
  | R_creat | R_stat | R_lstat | R_access | R_readlink | R_chdir
  | R_execve | R_unlink | R_rmdir | R_mkdir | R_chmod | R_chown
  | R_truncate | R_utimes -> "-"

let encode t =
  Printf.sprintf "D %d %d %d %s %d %s %s\n" t.serial t.pid t.time_us
    (op_name t.op) t.result (quote t.path) (extra t.op)

let op_of_name name extra =
  match name with
  | "open" -> Option.map (fun n -> R_open n) (int_of_string_opt extra)
  | "close" ->
    (match String.split_on_char ':' extra with
     | [ r; w ] ->
       (match int_of_string_opt r, int_of_string_opt w with
        | Some r, Some w -> Some (R_close (r, w))
        | _ -> None)
     | _ -> None)
  | "creat" -> Some R_creat
  | "stat" -> Some R_stat
  | "lstat" -> Some R_lstat
  | "access" -> Some R_access
  | "readlink" -> Some R_readlink
  | "chdir" -> Some R_chdir
  | "execve" -> Some R_execve
  | "unlink" -> Some R_unlink
  | "rmdir" -> Some R_rmdir
  | "mkdir" -> Some R_mkdir
  | "chmod" -> Some R_chmod
  | "chown" -> Some R_chown
  | "truncate" -> Some R_truncate
  | "utimes" -> Some R_utimes
  | "rename" -> Some (R_rename (unquote extra))
  | "link" -> Some (R_link (unquote extra))
  | "symlink" -> Some (R_symlink (unquote extra))
  | _ -> None

let parse line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "D"; serial; pid; time_us; name; result; path; extra ] ->
    (match
       ( int_of_string_opt serial,
         int_of_string_opt pid,
         int_of_string_opt time_us,
         int_of_string_opt result,
         op_of_name name extra )
     with
     | Some serial, Some pid, Some time_us, Some result, Some op ->
       Some { serial; pid; time_us; path = unquote path; op; result }
     | _ -> None)
  | _ -> None

let parse_all content =
  String.split_on_char '\n' content |> List.filter_map parse
