(* Pathname translation as it stood before [Fs] walked paths in place:
   the path is split into a list of components, a symlink's target is
   split too and prepended to what is left, and parent resolution
   rebuilds the prefix as a string and resolves it again.  Kept only
   as the oracle the in-place walker must agree with. *)

open Abi
open Vfs

let max_symlinks = 8
let max_name = 255
let max_path = 1024

let get fs ino =
  match Fs.get_exn fs ino with
  | inode -> Some inode
  | exception Invalid_argument _ -> None

let searchable fs cred inode = Fs.access_ok fs cred inode Flags.Access.x_ok

let split_path path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let ( let* ) = Result.bind

let resolve fs cred ~cwd ~follow_last path =
  if path = "" then Error Errno.ENOENT
  else if String.length path >= max_path then Error Errno.ENAMETOOLONG
  else begin
    let start = if path.[0] = '/' then Fs.root_ino fs else cwd in
    let trailing_dir = path.[String.length path - 1] = '/' in
    let rec walk dir_ino comps links =
      match get fs dir_ino with
      | None -> Error Errno.ENOENT
      | Some dir ->
        match comps with
        | [] ->
          if trailing_dir && not (Inode.is_dir dir) then Error Errno.ENOTDIR
          else Ok dir
        | name :: rest ->
          if String.length name > max_name then Error Errno.ENAMETOOLONG
          else
            let* d = Inode.dir dir in
            if not (searchable fs cred dir) then Error Errno.EACCES
            else begin
              match Inode.Names.find_opt name d.entries with
              | None -> Error Errno.ENOENT
              | Some ino ->
                match get fs ino with
                | None -> Error Errno.ENOENT
                | Some entry ->
                  match entry.Inode.kind with
                  | Inode.Symlink target
                    when rest <> [] || follow_last || trailing_dir ->
                    if links >= max_symlinks then Error Errno.ELOOP
                    else begin
                      let base =
                        if target <> "" && target.[0] = '/' then
                          Fs.root_ino fs
                        else dir_ino
                      in
                      walk base (split_path target @ rest) (links + 1)
                    end
                  | _ ->
                    if rest = [] then
                      if trailing_dir && not (Inode.is_dir entry) then
                        Error Errno.ENOTDIR
                      else Ok entry
                    else walk ino rest links
            end
    in
    walk start (split_path path) 0
  end

(* The trailing-slash rule, stated here rather than derived: the flag
   is whether the path's last character is a slash. *)
let resolve_parent fs cred ~cwd path =
  if path = "" then Error Errno.ENOENT
  else if String.length path >= max_path then Error Errno.ENAMETOOLONG
  else begin
    match List.rev (split_path path) with
    | [] -> Ok (Fs.get_exn fs (Fs.root_ino fs), "/", true)
    | last :: rev_prefix ->
      if String.length last > max_name then Error Errno.ENAMETOOLONG
      else begin
        let prefix = List.rev rev_prefix in
        let* parent =
          if prefix = [] then
            if path.[0] = '/' then Ok (Fs.get_exn fs (Fs.root_ino fs))
            else
              match get fs cwd with
              | Some d -> Ok d
              | None -> Error Errno.ENOENT
          else
            resolve fs cred ~cwd ~follow_last:true
              ((if path.[0] = '/' then "/" else "") ^ String.concat "/" prefix)
        in
        if not (Inode.is_dir parent) then Error Errno.ENOTDIR
        else Ok (parent, last, path.[String.length path - 1] = '/')
      end
  end
