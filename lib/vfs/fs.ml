open Abi

type cred = { uid : int; gid : int }

let root_cred = { uid = 0; gid = 0 }

type t = {
  inodes : (int, Inode.t) Hashtbl.t;
  opens : (int, int) Hashtbl.t;  (* ino -> open-file references *)
  mutable next_ino : int;
  now : unit -> int;
  dev : int;
}

let root_ino _ = 2  (* the historical UFS root inode number *)

let max_symlinks = 8
let max_name = 255
(* MAXPATHLEN, which counts the terminating NUL: the longest path is
   1,023 bytes, as Linux refuses 4,096 of its PATH_MAX *)
let max_path = 1024

let alloc_ino t =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  ino

let new_inode t ~ino kind ~perm ~(cred : cred) =
  let now = t.now () in
  let inode = {
    Inode.ino; kind; perm = perm land 0o7777; uid = cred.uid;
    gid = cred.gid; nlink = 0; atime = now; mtime = now; ctime = now }
  in
  Hashtbl.replace t.inodes ino inode;
  inode

let create ?(now = fun () -> 0) () =
  let t = {
    inodes = Hashtbl.create 256;
    opens = Hashtbl.create 64;
    next_ino = 3;
    now;
    dev = 1;
  } in
  let entries = Inode.Names.(add "." 2 (singleton ".." 2)) in
  let root =
    new_inode t ~ino:2 (Inode.Dir { entries }) ~perm:0o755 ~cred:root_cred
  in
  root.Inode.nlink <- 2;
  t

let get t ino = Hashtbl.find_opt t.inodes ino

let get_exn t ino =
  match get t ino with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Fs.get_exn: dangling ino %d" ino)

let live_inodes t = Hashtbl.length t.inodes

let open_refs t = Hashtbl.fold (fun _ n acc -> acc + n) t.opens 0

let open_count t ino =
  Option.value ~default:0 (Hashtbl.find_opt t.opens ino)

let maybe_reclaim t (inode : Inode.t) =
  if inode.nlink <= 0 && open_count t inode.ino = 0 then begin
    Hashtbl.remove t.inodes inode.ino;
    Hashtbl.remove t.opens inode.ino
  end

(* Walk the tree from the root, checking directory structure and
   accumulating observed link counts; then compare against the inode
   table. *)
let fsck t =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let observed_links : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump ino =
    Hashtbl.replace observed_links ino
      (1 + Option.value ~default:0 (Hashtbl.find_opt observed_links ino))
  in
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec walk ~parent_ino ~path ino =
    if not (Hashtbl.mem visited ino) then begin
      Hashtbl.replace visited ino ();
      match Hashtbl.find_opt t.inodes ino with
      | None -> complain "%s: dangling inode %d" path ino
      | Some inode ->
        (match inode.Inode.kind with
         | Inode.Dir { entries } ->
           (* "." and ".." *)
           (match Inode.Names.find_opt "." entries with
            | Some self when self = ino -> ()
            | Some self -> complain "%s: '.' points to %d" path self
            | None -> complain "%s: missing '.'" path);
           (match Inode.Names.find_opt ".." entries with
            | Some up when up = parent_ino -> ()
            | Some up ->
              complain "%s: '..' points to %d, expected %d" path up
                parent_ino
            | None -> complain "%s: missing '..'" path);
           (* each entry links its target; '.' counts for self, '..'
              for the parent *)
           Inode.Names.iter
             (fun name child ->
               if name <> "." && name <> ".." then begin
                 bump child;
                 let child_path =
                   if path = "/" then "/" ^ name else path ^ "/" ^ name
                 in
                 match Hashtbl.find_opt t.inodes child with
                 | Some { Inode.kind = Inode.Dir _; _ } ->
                   walk ~parent_ino:ino ~path:child_path child
                 | Some _ -> ()
                 | None ->
                   complain "%s: dangling entry (inode %d)" child_path
                     child
               end)
             entries
         | Inode.Reg _ | Inode.Symlink _ | Inode.Chardev _ | Inode.Fifo _
           -> complain "%s: walked into a non-directory" path)
    end
  in
  let root = root_ino t in
  bump root;  (* the root's ".." self-link stands in for a parent *)
  walk ~parent_ino:root ~path:"/" root;
  (* directory nlink = 2 + number of subdirectories; add those now *)
  Hashtbl.iter
    (fun ino () ->
      match Hashtbl.find_opt t.inodes ino with
      | Some { Inode.kind = Inode.Dir { entries }; _ } ->
        bump ino;  (* "." *)
        (* ".." contributions: each subdirectory links its parent *)
        Inode.Names.iter
          (fun name child ->
            if name <> "." && name <> ".." then
              match Hashtbl.find_opt t.inodes child with
              | Some { Inode.kind = Inode.Dir _; _ } ->
                ignore name;
                bump ino
              | _ -> ())
          entries
      | _ -> ())
    visited;
  (* compare counts *)
  Hashtbl.iter
    (fun ino (inode : Inode.t) ->
      let expected = Option.value ~default:0 (Hashtbl.find_opt observed_links ino) in
      if Hashtbl.mem visited ino || expected > 0 then begin
        if inode.nlink <> expected then
          complain "inode %d: nlink %d, expected %d" ino inode.nlink
            expected
      end
      else if open_count t ino = 0 then
        complain "inode %d: unreachable with no open references" ino)
    t.inodes;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (List.rev ps)

let incr_opens t ino = Hashtbl.replace t.opens ino (open_count t ino + 1)

let decr_opens t ino =
  let n = open_count t ino - 1 in
  if n <= 0 then begin
    Hashtbl.remove t.opens ino;
    match get t ino with
    | Some inode -> maybe_reclaim t inode
    | None -> ()
  end
  else Hashtbl.replace t.opens ino n

(* --- permissions ----------------------------------------------------- *)

let access_ok _t cred (inode : Inode.t) bits =
  if cred.uid = 0 then true
  else begin
    let shift =
      if cred.uid = inode.uid then 6
      else if cred.gid = inode.gid then 3
      else 0
    in
    let granted = (inode.perm lsr shift) land 0o7 in
    bits land 0o7 land lnot granted = 0
  end

let searchable t cred inode = access_ok t cred inode Flags.Access.x_ok
let writable_dir t cred inode = access_ok t cred inode Flags.Access.w_ok

(* Sticky-directory deletion rule: in a sticky directory only the file
   owner, the directory owner or root may remove an entry. *)
let may_delete t cred (dir : Inode.t) (victim : Inode.t) =
  writable_dir t cred dir
  && (dir.perm land Flags.Mode.isvtx = 0
      || cred.uid = 0
      || cred.uid = victim.uid
      || cred.uid = dir.uid)

(* --- resolution ------------------------------------------------------ *)

(* Namei walks the pathname in place.  A segment is a string, an offset
   and an end; components are the runs between slashes, and each is
   copied out only as the key of its directory lookup.  A followed
   symlink pushes what is left of the current segment (when a component
   remains in it) and continues with the link's target as a new
   segment, so expansion never rebuilds or re-splits a path.  Every
   pushed segment holds at least one component, so the final component
   is the one that ends its segment with nothing pushed. *)

let rec skip_slashes s i lim =
  if i < lim && s.[i] = '/' then skip_slashes s (i + 1) lim
  else i

let rec name_end s i lim =
  if i < lim && s.[i] <> '/' then name_end s (i + 1) lim
  else i

(* [slash]: the path ends in '/', so every symlink is followed and the
   result must be a directory. *)
let rec walk t cred ~follow_last ~slash (dir : Inode.t) s i lim rest links =
  let i = skip_slashes s i lim in
  if i = lim then
    match rest with
    | (s, i, lim) :: rest ->
      walk t cred ~follow_last ~slash dir s i lim rest links
    | [] ->
      if slash && not (Inode.is_dir dir) then Error Errno.ENOTDIR
      else Ok dir
  else begin
    let j = name_end s i lim in
    if j - i > max_name then Error Errno.ENAMETOOLONG
    else
      match dir.kind with
      | Inode.Dir { entries } ->
        if not (searchable t cred dir) then Error Errno.EACCES
        else begin
          match Inode.Names.find (String.sub s i (j - i)) entries with
          | exception Not_found -> Error Errno.ENOENT
          | ino ->
            match Hashtbl.find t.inodes ino with
            | exception Not_found -> Error Errno.ENOENT
            | entry ->
              let k = skip_slashes s j lim in
              let last =
                k = lim && (match rest with [] -> true | _ :: _ -> false)
              in
              match entry.Inode.kind with
              | Inode.Symlink target when (not last) || follow_last || slash ->
                if links >= max_symlinks then Error Errno.ELOOP
                else begin
                  let rest = if k = lim then rest else (s, k, lim) :: rest in
                  let base =
                    if target <> "" && target.[0] = '/' then
                      get_exn t (root_ino t)
                    else dir
                  in
                  walk t cred ~follow_last ~slash base target 0
                    (String.length target) rest (links + 1)
                end
              | _ ->
                if not last then
                  walk t cred ~follow_last ~slash entry s k lim rest links
                else if slash && not (Inode.is_dir entry) then
                  Error Errno.ENOTDIR
                else Ok entry
        end
      | Inode.Reg _ | Inode.Symlink _ | Inode.Chardev _ | Inode.Fifo _ ->
        Error Errno.ENOTDIR
  end

(* Walk [path] up to [lim] from the root or the working directory. *)
let walk_path t cred ~cwd ~follow_last ~slash path lim =
  if path.[0] = '/' then
    walk t cred ~follow_last ~slash (get_exn t (root_ino t)) path 0 lim [] 0
  else
    match Hashtbl.find t.inodes cwd with
    | exception Not_found -> Error Errno.ENOENT
    | dir -> walk t cred ~follow_last ~slash dir path 0 lim [] 0

let resolve t cred ~cwd ?(follow_last = true) path =
  let n = String.length path in
  if n = 0 then Error Errno.ENOENT
  else if n >= max_path then Error Errno.ENAMETOOLONG
  else
    walk_path t cred ~cwd ~follow_last ~slash:(path.[n - 1] = '/') path n

let rec trim_slashes s e =
  if e > 0 && s.[e - 1] = '/' then trim_slashes s (e - 1) else e

let rec name_start s i =
  if i > 0 && s.[i - 1] <> '/' then name_start s (i - 1) else i

(* Parent resolution: every component but the last, on the same walker,
   following symlinks along the way.  The last component comes back
   with whether a slash followed it: "mkdir a/b/" behaves like
   "mkdir a/b", and each creating or removing call applies its own
   trailing-slash rule.  A last component of "." or ".." comes back
   too, as Linux's LAST_DOT and LAST_DOTDOT do: the directory already
   holds both names, so creating calls find them taken (EEXIST) and
   unlink finds a directory (EISDIR), while rmdir and rename refuse
   them outright ([is_dots]).  A path of slashes alone comes back as
   the root and the name "/", Linux's LAST_ROOT, which [lookup_in]
   finds as the root itself and which those calls treat alike. *)
let resolve_parent t cred ~cwd path =
  let n = String.length path in
  if n = 0 then Error Errno.ENOENT
  else if n >= max_path then Error Errno.ENAMETOOLONG
  else begin
    let e = trim_slashes path n in
    if e = 0 then Ok (get_exn t (root_ino t), "/", true)
    else begin
      let b = name_start path e in
      if e - b > max_name then Error Errno.ENAMETOOLONG
      else
        match walk_path t cred ~cwd ~follow_last:true ~slash:false path b with
        | Error err -> Error err
        | Ok parent ->
          if not (Inode.is_dir parent) then Error Errno.ENOTDIR
          else Ok (parent, String.sub path b (e - b), e < n)
    end
  end

let is_dots name = name = "." || name = ".." || name = "/"

let path_of_ino t ino =
  let rec up ino acc depth =
    if depth > 64 then None
    else if ino = root_ino t then
      Some ("/" ^ String.concat "/" acc)
    else
      match get t ino with
      | None -> None
      | Some inode ->
        match Inode.dir inode with
        | Error _ -> None
        | Ok d ->
          match Inode.Names.find_opt ".." d.entries with
          | None -> None
          | Some parent_ino ->
            match get t parent_ino with
            | None -> None
            | Some parent ->
              match Inode.dir parent with
              | Error _ -> None
              | Ok pd ->
                (* the one entry naming [ino], "." and ".." aside *)
                let name =
                  Inode.Names.fold
                    (fun n i found ->
                      match found with
                      | None when i = ino && n <> "." && n <> ".." -> Some n
                      | _ -> found)
                    pd.entries None
                in
                match name with
                | None -> None
                | Some n -> up parent_ino (n :: acc) (depth + 1)
  in
  match get t ino with
  | Some inode when Inode.is_dir inode -> up ino [] 0
  | _ -> None

(* --- creation helpers ------------------------------------------------- *)

let add_entry t (dir : Inode.t) name ino =
  match Inode.dir dir with
  | Error _ -> ()
  | Ok d ->
    d.entries <- Inode.Names.add name ino d.entries;
    let now = t.now () in
    dir.mtime <- now;
    dir.ctime <- now

let remove_entry t (dir : Inode.t) name =
  match Inode.dir dir with
  | Error _ -> ()
  | Ok d ->
    d.entries <- Inode.Names.remove name d.entries;
    let now = t.now () in
    dir.mtime <- now;
    dir.ctime <- now

let create_in t cred (parent : Inode.t) name kind ~perm =
  if not (writable_dir t cred parent) then Error Errno.EACCES
  else begin
    let inode = new_inode t ~ino:(alloc_ino t) kind ~perm ~cred in
    inode.Inode.nlink <- 1;
    add_entry t parent name inode.Inode.ino;
    Ok inode
  end

let lookup_in (parent : Inode.t) name =
  if name = "/" then Ok parent.Inode.ino
  else
    match Inode.dir parent with
    | Error e -> Error e
    | Ok d ->
      (match Inode.Names.find_opt name d.entries with
       | Some ino -> Ok ino
       | None -> Error Errno.ENOENT)

(* --- namespace operations --------------------------------------------- *)

let ( let* ) = Result.bind

(* The access-mode check and O_TRUNC of an open, once the inode is
   known. *)
let open_finish t cred ~flags ~created (inode : Inode.t) =
  let open Flags.Open in
  let need =
    (if readable flags then Flags.Access.r_ok else 0)
    lor (if writable flags then Flags.Access.w_ok else 0)
  in
  if Inode.is_dir inode && writable flags then Error Errno.EISDIR
  else if not (access_ok t cred inode need) then Error Errno.EACCES
  else begin
    (match inode.kind with
     | Inode.Reg data when flags land o_trunc <> 0 && writable flags ->
       Filedata.truncate data 0;
       let now = t.now () in
       inode.mtime <- now;
       inode.ctime <- now
     | _ -> ());
    Ok (inode, created)
  end

(* O_CREAT of a last component that is absent or a dangling symlink.
   O_EXCL does not follow the link, so it is EEXIST; otherwise, as in
   Linux, the link is followed and its target created, a relative
   target against the link's directory, up to [max_symlinks] links. *)
let rec create_last t cred ~flags ~perm parent name links =
  match lookup_in parent name with
  | Error Errno.ENOENT ->
    let* inode =
      create_in t cred parent name (Inode.Reg (Filedata.create ())) ~perm
    in
    open_finish t cred ~flags ~created:true inode
  | Error e -> Error e
  | Ok _ when flags land Flags.Open.o_excl <> 0 -> Error Errno.EEXIST
  | Ok ino ->
    match (get_exn t ino).Inode.kind with
    | Inode.Symlink _ when links >= max_symlinks -> Error Errno.ELOOP
    | Inode.Symlink target -> (
      match resolve_parent t cred ~cwd:parent.Inode.ino target with
      | Error e -> Error e
      | Ok (_, _, true) -> Error Errno.EISDIR
      | Ok (parent, name, false) ->
        create_last t cred ~flags ~perm parent name (links + 1))
    | _ -> Error Errno.EEXIST

(* With O_CREAT, Linux answers EISDIR for a name followed by a slash
   once its parent resolves, whether or not the name exists, and for an
   existing directory without O_EXCL; "/", "." and ".." are no names to
   create, so they get the existing-directory answers. *)
let open_lookup t cred ~cwd path ~flags ~perm =
  let open Flags.Open in
  let creat = flags land o_creat <> 0 in
  match resolve t cred ~cwd path with
  | Ok inode when creat ->
    let slash_name =
      path.[String.length path - 1] = '/'
      && (match resolve_parent t cred ~cwd path with
          | Ok (_, name, slash) -> slash && not (is_dots name)
          | Error _ -> false)
    in
    if slash_name then Error Errno.EISDIR
    else if flags land o_excl <> 0 then Error Errno.EEXIST
    else if Inode.is_dir inode then Error Errno.EISDIR
    else open_finish t cred ~flags ~created:false inode
  | Ok inode -> open_finish t cred ~flags ~created:false inode
  | Error ((Errno.ENOENT | Errno.ENOTDIR) as err) when creat -> (
    match resolve_parent t cred ~cwd path with
    | Error e -> Error e
    (* a name with a trailing slash asks for a directory *)
    | Ok (_, _, true) -> Error Errno.EISDIR
    | Ok _ when err = Errno.ENOTDIR -> Error err
    | Ok (parent, name, false) -> create_last t cred ~flags ~perm parent name 0)
  | Error e -> Error e

(* Create [kind] under a name that must not exist yet.  Only a
   directory may be named with a trailing slash; any other kind gets
   ENOENT for a new name, as Linux's filename_create does. *)
let make_node t cred ~cwd path kind ~perm =
  let* parent, name, slash = resolve_parent t cred ~cwd path in
  match lookup_in parent name with
  | Ok _ -> Error Errno.EEXIST
  | Error Errno.ENOENT ->
    (match kind with
     | Inode.Reg _ | Inode.Symlink _ | Inode.Chardev _ | Inode.Fifo _
       when slash -> Error Errno.ENOENT
     | _ ->
       let* inode = create_in t cred parent name kind ~perm in
       Ok (parent, inode))
  | Error e -> Error e

let mkdir t cred ~cwd path ~perm =
  let d = { Inode.entries = Inode.Names.empty } in
  (* fill in "." and ".." now that we know our parent *)
  let* parent, inode = make_node t cred ~cwd path (Inode.Dir d) ~perm in
  d.entries <-
    Inode.Names.(add "." inode.Inode.ino (singleton ".." parent.Inode.ino));
  inode.Inode.nlink <- 2;
  parent.Inode.nlink <- parent.Inode.nlink + 1;
  Ok inode

let mkfifo t cred ~cwd path ~perm =
  let kind = Inode.Fifo (Pipebuf.create ()) in
  let* _, inode = make_node t cred ~cwd path kind ~perm in
  Ok inode

let mkchardev t cred ~cwd path ~perm ~rdev =
  let* _, inode = make_node t cred ~cwd path (Inode.Chardev rdev) ~perm in
  Ok inode

(* an empty target names nothing: Linux refuses it before it looks at
   the new name *)
let symlink t cred ~cwd ~target path =
  if target = "" then Error Errno.ENOENT
  else
    let* _ = make_node t cred ~cwd path (Inode.Symlink target) ~perm:0o777 in
    Ok ()

let readlink t cred ~cwd path =
  let* inode = resolve t cred ~cwd ~follow_last:false path in
  match inode.Inode.kind with
  | Inode.Symlink target -> Ok target
  | _ -> Error Errno.EINVAL

let link t cred ~cwd ~existing path =
  let* src = resolve t cred ~cwd existing in
  if Inode.is_dir src then Error Errno.EPERM
  else begin
    let* parent, name, slash = resolve_parent t cred ~cwd path in
    match lookup_in parent name with
    | Ok _ -> Error Errno.EEXIST
    | Error Errno.ENOENT ->
      (* [src] is never a directory, so a trailing slash names nothing *)
      if slash then Error Errno.ENOENT
      else if not (writable_dir t cred parent) then Error Errno.EACCES
      else begin
        add_entry t parent name src.Inode.ino;
        src.Inode.nlink <- src.Inode.nlink + 1;
        src.Inode.ctime <- t.now ();
        Ok ()
      end
    | Error e -> Error e
  end

let unlink t cred ~cwd path =
  let* parent, name, slash = resolve_parent t cred ~cwd path in
  let* ino = lookup_in parent name in
  let victim = get_exn t ino in
  if Inode.is_dir victim then Error Errno.EISDIR
  else if slash then Error Errno.ENOTDIR
  else if not (may_delete t cred parent victim) then Error Errno.EACCES
  else begin
    remove_entry t parent name;
    victim.Inode.nlink <- victim.Inode.nlink - 1;
    victim.Inode.ctime <- t.now ();
    maybe_reclaim t victim;
    Ok ()
  end

let dir_is_empty (inode : Inode.t) =
  match Inode.dir inode with
  | Ok d -> Inode.Names.for_all (fun n _ -> n = "." || n = "..") d.entries
  | Error _ -> true

let rmdir t cred ~cwd path =
  let* parent, name, _ = resolve_parent t cred ~cwd path in
  let* () =
    if name = "." then Error Errno.EINVAL
    else if name = ".." then Error Errno.ENOTEMPTY
    else if name = "/" then Error Errno.EBUSY
    else Ok ()
  in
  let* ino = lookup_in parent name in
  let victim = get_exn t ino in
  if not (Inode.is_dir victim) then Error Errno.ENOTDIR
  else if not (dir_is_empty victim) then Error Errno.ENOTEMPTY
  else if not (may_delete t cred parent victim) then Error Errno.EACCES
  else begin
    remove_entry t parent name;
    victim.Inode.nlink <- 0;
    parent.Inode.nlink <- parent.Inode.nlink - 1;
    maybe_reclaim t victim;
    Ok ()
  end

(* Is [anc] an ancestor of (or equal to) directory [ino]?  Used to
   reject renaming a directory into its own subtree. *)
let is_ancestor t ~anc ino =
  let rec up ino depth =
    if depth > 64 then false
    else if ino = anc then true
    else
      match get t ino with
      | None -> false
      | Some inode ->
        match Inode.dir inode with
        | Error _ -> false
        | Ok d ->
          match Inode.Names.find_opt ".." d.entries with
          | Some parent when parent <> ino -> up parent (depth + 1)
          | _ -> false
  in
  up ino 0

(* Both parents resolve before either name is looked up, so ".", ".."
   or "/" on either side is EBUSY whether or not the source exists, as
   in Linux. *)
let rename t cred ~cwd ~src dst =
  let* sparent, sname, sslash = resolve_parent t cred ~cwd src in
  let* dparent, dname, dslash = resolve_parent t cred ~cwd dst in
  let* () =
    if is_dots sname || is_dots dname then Error Errno.EBUSY else Ok ()
  in
  let* sino = lookup_in sparent sname in
  let victim = get_exn t sino in
  (* only a directory may be named with a trailing slash, on either side *)
  if (sslash || dslash) && not (Inode.is_dir victim) then Error Errno.ENOTDIR
  else if not (may_delete t cred sparent victim)
     || not (writable_dir t cred dparent)
  then Error Errno.EACCES
  else if Inode.is_dir victim && is_ancestor t ~anc:sino dparent.Inode.ino
  then Error Errno.EINVAL
  else begin
    let replace_ok =
      match lookup_in dparent dname with
      | Error Errno.ENOENT -> Ok None
      | Error e -> Error e
      | Ok dino when dino = sino -> Ok None  (* rename to itself: no-op *)
      | Ok dino ->
        let existing = get_exn t dino in
        (match Inode.is_dir victim, Inode.is_dir existing with
         | true, false -> Error Errno.ENOTDIR
         | false, true -> Error Errno.EISDIR
         | true, true when not (dir_is_empty existing) ->
           Error Errno.ENOTEMPTY
         | _ -> Ok (Some existing))
    in
    let* replaced = replace_ok in
    (match replaced with
     | Some existing ->
       remove_entry t dparent dname;
       if Inode.is_dir existing then begin
         existing.Inode.nlink <- 0;
         dparent.Inode.nlink <- dparent.Inode.nlink - 1
       end
       else existing.Inode.nlink <- existing.Inode.nlink - 1;
       maybe_reclaim t existing
     | None -> ());
    remove_entry t sparent sname;
    add_entry t dparent dname sino;
    (* a moved directory's ".." must follow it *)
    if Inode.is_dir victim && sparent.Inode.ino <> dparent.Inode.ino
    then begin
      (match Inode.dir victim with
       | Ok d -> d.entries <- Inode.Names.add ".." dparent.Inode.ino d.entries
       | Error _ -> ());
      sparent.Inode.nlink <- sparent.Inode.nlink - 1;
      dparent.Inode.nlink <- dparent.Inode.nlink + 1
    end;
    victim.Inode.ctime <- t.now ();
    Ok ()
  end

let stat_inode t inode = Inode.to_stat ~dev:t.dev inode

let stat_path t cred ~cwd ~follow path =
  match resolve t cred ~cwd ~follow_last:follow path with
  | Ok inode -> Ok (stat_inode t inode)
  | Error e -> Error e

let chmod t cred ~cwd path ~perm =
  let* inode = resolve t cred ~cwd path in
  if cred.uid <> 0 && cred.uid <> inode.Inode.uid then Error Errno.EPERM
  else begin
    inode.Inode.perm <- perm land 0o7777;
    inode.Inode.ctime <- t.now ();
    Ok ()
  end

let chown t cred ~cwd path ~uid ~gid =
  let* inode = resolve t cred ~cwd path in
  (* 4.3BSD: only the superuser may change ownership *)
  if cred.uid <> 0 then Error Errno.EPERM
  else begin
    if uid >= 0 then inode.Inode.uid <- uid;
    if gid >= 0 then inode.Inode.gid <- gid;
    inode.Inode.ctime <- t.now ();
    Ok ()
  end

let utimes t cred ~cwd path ~atime ~mtime =
  let* inode = resolve t cred ~cwd path in
  if cred.uid <> 0 && cred.uid <> inode.Inode.uid then Error Errno.EPERM
  else begin
    inode.Inode.atime <- atime;
    inode.Inode.mtime <- mtime;
    inode.Inode.ctime <- t.now ();
    Ok ()
  end

let truncate t cred ~cwd path len =
  if len < 0 then Error Errno.EINVAL
  else
    let* inode = resolve t cred ~cwd path in
    if not (access_ok t cred inode Flags.Access.w_ok) then
      Error Errno.EACCES
    else
      match inode.Inode.kind with
      | Inode.Reg data ->
        Filedata.truncate data len;
        let now = t.now () in
        inode.Inode.mtime <- now;
        inode.Inode.ctime <- now;
        Ok ()
      | Inode.Dir _ -> Error Errno.EISDIR
      | Inode.Symlink _ | Inode.Chardev _ | Inode.Fifo _ ->
        Error Errno.EINVAL

let access t cred ~cwd path bits =
  let* inode = resolve t cred ~cwd path in
  if access_ok t cred inode bits then Ok () else Error Errno.EACCES

let chdir_lookup t cred ~cwd path =
  let* inode = resolve t cred ~cwd path in
  if not (Inode.is_dir inode) then Error Errno.ENOTDIR
  else if not (searchable t cred inode) then Error Errno.EACCES
  else Ok inode

let touch_atime t (inode : Inode.t) = inode.atime <- t.now ()

let touch_mtime t (inode : Inode.t) =
  let now = t.now () in
  inode.mtime <- now;
  inode.ctime <- now
