open Abi

type decision = [ `Commit | `Abort ]

(* --- small down-path helpers -------------------------------------------- *)

let d_int dl c =
  match Toolkit.Downlink.down_call dl c with
  | Ok { Value.r0; _ } -> Ok r0
  | Error e -> Error e

let d_unit dl c =
  match Toolkit.Downlink.down_call dl c with
  | Ok _ -> Ok ()
  | Error e -> Error e

let exists dl path = Result.is_ok (d_unit dl (Call.Access (path, 0)))

let lstat_of dl path =
  let cell = ref None in
  match d_unit dl (Call.Lstat (path, cell)), !cell with
  | Ok (), Some st -> Some st
  | _ -> None

let mkdir_p dl path =
  let comps =
    List.filter (fun s -> s <> "") (String.split_on_char '/' path)
  in
  ignore
    (List.fold_left
       (fun prefix comp ->
         let dir = prefix ^ "/" ^ comp in
         ignore (d_unit dl (Call.Mkdir (dir, 0o755)));
         dir)
       "" comps)

let copy_file dl ~src ~dst =
  match d_int dl (Call.Open (src, Flags.Open.o_rdonly, 0)) with
  | Error e -> Error e
  | Ok sfd ->
    let wflags = Flags.Open.(o_wronly lor o_creat lor o_trunc) in
    (match d_int dl (Call.Open (dst, wflags, 0o644)) with
     | Error e ->
       ignore (d_unit dl (Call.Close sfd));
       Error e
     | Ok dfd ->
       let buf = Bytes.create 4096 in
       let rec pump () =
         match d_int dl (Call.Read (sfd, buf, Bytes.length buf)) with
         | Error e -> Error e
         | Ok 0 -> Ok ()
         | Ok n ->
           (match
              d_unit dl (Call.Write (dfd, Bytes.sub_string buf 0 n))
            with
            | Ok () -> pump ()
            | Error e -> Error e)
       in
       let result = pump () in
       ignore (d_unit dl (Call.Close sfd));
       ignore (d_unit dl (Call.Close dfd));
       (* carry the permission bits across *)
       (match lstat_of dl src with
        | Some st ->
          ignore
            (d_unit dl (Call.Chmod (dst, Flags.Mode.perm_bits st.st_mode)))
        | None -> ());
       result)

let read_dir dl path =
  match d_int dl (Call.Open (path, Flags.Open.o_rdonly, 0)) with
  | Error _ -> []
  | Ok fd ->
    let buf = Bytes.create 1024 in
    let rec go acc =
      match
        Toolkit.Downlink.down_call dl (Call.Getdirentries (fd, buf))
      with
      | Ok { Value.r0 = 0; _ } | Error _ -> List.rev acc
      | Ok { Value.r0 = n; _ } ->
        go (List.rev_append (Dirent.decode_all buf ~len:n) acc)
    in
    let entries = go [] in
    ignore (d_unit dl (Call.Close fd));
    List.filter
      (fun e -> e.Dirent.d_name <> "." && e.Dirent.d_name <> "..")
      entries

(* --- the overlay-aware pathname object ----------------------------------- *)

type overlay = {
  dl : Toolkit.Downlink.t;
  shadow : string -> string;
  resolve_read : string -> (string, Errno.t) result;
  prepare_write : string -> creating:bool -> (string, Errno.t) result;
  mark_deleted : string -> unit;
  clear_deleted : string -> unit;
  is_deleted : string -> bool;
}

class txn_pathname (ov : overlay) (path : string) =
  object (self)
    inherit Toolkit.pathname ov.dl path

    method private down c = Toolkit.Downlink.down_call ov.dl c

    method private on_read : 'a. (string -> Value.res) -> Value.res =
      fun f ->
        match ov.resolve_read path with
        | Ok p -> f p
        | Error e -> Error e

    method private on_write ~creating (f : string -> Value.res) =
      match ov.prepare_write path ~creating with
      | Ok sp -> f sp
      | Error e -> Error e

    method! open_ flags mode =
      if Flags.Open.writable flags || flags land Flags.Open.o_creat <> 0
      then
        self#on_write ~creating:(flags land Flags.Open.o_creat <> 0)
          (fun sp -> self#down (Call.Open (sp, flags, mode)))
      else self#on_read (fun p -> self#down (Call.Open (p, flags, mode)))

    method! creat mode =
      self#on_write ~creating:true (fun sp -> self#down (Call.Creat (sp, mode)))

    method! stat r = self#on_read (fun p -> self#down (Call.Stat (p, r)))
    method! lstat r = self#on_read (fun p -> self#down (Call.Lstat (p, r)))
    method! access bits =
      self#on_read (fun p -> self#down (Call.Access (p, bits)))
    method! readlink buf =
      self#on_read (fun p -> self#down (Call.Readlink (p, buf)))
    method! chdir = self#on_read (fun p -> self#down (Call.Chdir p))

    method! execve argv envp =
      match ov.resolve_read path with
      | Ok p -> Toolkit.Boilerplate.do_execve ov.dl p argv envp
      | Error e -> Error e

    method! unlink =
      if ov.is_deleted path then Error Errno.ENOENT
      else begin
        let shadow = ov.shadow path in
        let had_shadow = exists ov.dl shadow in
        let had_orig = exists ov.dl path in
        if not (had_shadow || had_orig) then Error Errno.ENOENT
        else begin
          if had_shadow then ignore (d_unit ov.dl (Call.Unlink shadow));
          if had_orig then ov.mark_deleted path;
          Value.ret 0
        end
      end

    method! rmdir =
      if ov.is_deleted path then Error Errno.ENOENT
      else begin
        let shadow = ov.shadow path in
        let had_shadow = exists ov.dl shadow in
        let had_orig = exists ov.dl path in
        if not (had_shadow || had_orig) then Error Errno.ENOENT
        else begin
          if had_shadow then ignore (d_unit ov.dl (Call.Rmdir shadow));
          if had_orig then ov.mark_deleted path;
          Value.ret 0
        end
      end

    method! mkdir mode =
      if (not (ov.is_deleted path)) && exists ov.dl path then
        Error Errno.EEXIST
      else begin
        ov.clear_deleted path;
        let shadow = ov.shadow path in
        mkdir_p ov.dl (Filename.dirname shadow);
        self#down (Call.Mkdir (shadow, mode))
      end

    method! chmod mode =
      self#on_write ~creating:false (fun sp ->
        self#down (Call.Chmod (sp, mode)))

    method! chown uid gid =
      self#on_write ~creating:false (fun sp ->
        self#down (Call.Chown (sp, uid, gid)))

    method! utimes atime mtime =
      self#on_write ~creating:false (fun sp ->
        self#down (Call.Utimes (sp, atime, mtime)))

    method! truncate len =
      self#on_write ~creating:false (fun sp ->
        self#down (Call.Truncate (sp, len)))

    method! symlink ~target =
      self#on_write ~creating:true (fun sp ->
        self#down (Call.Symlink (target, sp)))

    method! mknod mode dev =
      self#on_write ~creating:true (fun sp ->
        self#down (Call.Mknod (sp, mode, dev)))

    (* links and renames become overlay copies plus whiteouts *)
    method! link_to (newpn : Toolkit.Objects.pathname) =
      match ov.resolve_read path with
      | Error e -> Error e
      | Ok src ->
        (match ov.prepare_write newpn#path ~creating:true with
         | Error e -> Error e
         | Ok dst ->
           (match copy_file ov.dl ~src ~dst with
            | Ok () -> Value.ret 0
            | Error e -> Error e))

    method! rename_to (newpn : Toolkit.Objects.pathname) =
      match self#link_to newpn with
      | Ok _ -> self#unlink
      | Error e -> Error e
  end

(* --- the agent ------------------------------------------------------------ *)

class agent ?(decide : (unit -> decision) = fun () -> `Commit) () =
  object (self)
    inherit Toolkit.pathname_set as super

    val mutable shadow_root = ""
    val deleted : (string, unit) Hashtbl.t = Hashtbl.create 16
    val mutable finished = false
    val mutable session_pid = -1
    val mutable pending_dir : (string * string option) option = None

    method! agent_name = "txn"
    method shadow_root = shadow_root
    method finished = finished

    method deleted_paths =
      List.sort compare
        (Hashtbl.fold (fun p () acc -> p :: acc) deleted [])

    method private overlay : overlay =
      { dl = self#downlink;
        shadow = (fun p -> shadow_root ^ p);
        resolve_read = self#resolve_read;
        prepare_write = self#prepare_write;
        mark_deleted = (fun p -> Hashtbl.replace deleted p ());
        clear_deleted = (fun p -> Hashtbl.remove deleted p);
        is_deleted = (fun p -> Hashtbl.mem deleted p) }

    method! init argv =
      (* buffers file mutations; the sys_exit commit hook is part of
         the loader's boilerplate minimum, so file calls suffice *)
      List.iter self#register_interest Call.file_calls;
      ignore argv;
      (match self#down Call.Getpid with
       | Ok { Value.r0; _ } -> session_pid <- r0
       | Error _ -> ());
      (* distinguish stacked txn agents of the same process by probing
         the shard's own filesystem for a free shadow root, instead of
         a module-global serial -- keeps the agent shard-scoped *)
      let rec pick k =
        let root = Printf.sprintf "/tmp/.txn.%d.%d" session_pid k in
        if exists self#downlink root then pick (k + 1) else root
      in
      shadow_root <- pick 1;
      mkdir_p self#downlink shadow_root

    method private resolve_read path =
      if Hashtbl.mem deleted path then Error Errno.ENOENT
      else begin
        let sp = shadow_root ^ path in
        if exists self#downlink sp then Ok sp else Ok path
      end

    method private prepare_write path ~creating =
      if Hashtbl.mem deleted path then
        if creating then begin
          Hashtbl.remove deleted path;
          let sp = shadow_root ^ path in
          mkdir_p self#downlink (Filename.dirname sp);
          (* any stale shadow must not leak previous content *)
          ignore (d_unit self#downlink (Call.Unlink sp));
          Ok sp
        end
        else Error Errno.ENOENT
      else begin
        let sp = shadow_root ^ path in
        if exists self#downlink sp then Ok sp
        else begin
          mkdir_p self#downlink (Filename.dirname sp);
          if exists self#downlink path then
            match lstat_of self#downlink path with
            | Some st when Flags.Mode.is_reg st.st_mode ->
              (match copy_file self#downlink ~src:path ~dst:sp with
               | Ok () -> Ok sp
               | Error e -> Error e)
            | Some st when Flags.Mode.is_dir st.st_mode ->
              (* writing "into" a directory path: expose the shadow dir *)
              ignore (d_unit self#downlink (Call.Mkdir (sp, 0o755)));
              Ok sp
            | Some _ | None ->
              if creating then Ok sp else Error Errno.EINVAL
          else if creating then Ok sp
          else Error Errno.ENOENT
        end
      end

    method! make_pathname path =
      (new txn_pathname self#overlay path :> Toolkit.Objects.pathname)

    (* Directory listings must merge the real directory with its
       shadow and hide whiteouts. *)
    method! sys_open path flags mode =
      if not (Flags.Open.writable flags) then begin
        let is_dir p =
          match lstat_of self#downlink p with
          | Some st -> Flags.Mode.is_dir st.st_mode
          | None -> false
        in
        if Hashtbl.mem deleted path then Error Errno.ENOENT
        else begin
          let sp = shadow_root ^ path in
          let orig_dir = is_dir path in
          let shadow_dir = is_dir sp in
          if orig_dir || shadow_dir then begin
            let primary, extra =
              if orig_dir then path, (if shadow_dir then Some sp else None)
              else sp, None
            in
            pending_dir <- Some (path, extra);
            let res =
              self#track_new_fd ~path:(Some path) ~flags
                (self#down (Call.Open (primary, flags, mode)))
            in
            pending_dir <- None;
            res
          end
          else super#sys_open path flags mode
        end
      end
      else super#sys_open path flags mode

    method! make_open_object ~fd ~path ~flags =
      match pending_dir with
      | Some (dirpath, extra) ->
        let prefix = if dirpath = "/" then "/" else dirpath ^ "/" in
        let hide name = Hashtbl.mem deleted (prefix ^ name) in
        (new Merged_dir.merged_directory self#downlink
           ~extra_paths:(Option.to_list extra)
           ~hide ()
          :> Toolkit.Objects.open_object)
      | None -> super#make_open_object ~fd ~path ~flags

    (* --- session end ------------------------------------------------- *)

    method private remove_shadow_tree =
      let rec remove path =
        List.iter
          (fun (e : Dirent.t) ->
            let child = path ^ "/" ^ e.d_name in
            match lstat_of self#downlink child with
            | Some st when Flags.Mode.is_dir st.st_mode -> remove child
            | Some _ -> ignore (d_unit self#downlink (Call.Unlink child))
            | None -> ())
          (read_dir self#downlink path);
        ignore (d_unit self#downlink (Call.Rmdir path))
      in
      remove shadow_root

    method commit =
      if not finished then begin
        finished <- true;
        (* whiteouts first, then replay the shadow tree *)
        List.iter
          (fun p ->
            match lstat_of self#downlink p with
            | Some st when Flags.Mode.is_dir st.st_mode ->
              ignore (d_unit self#downlink (Call.Rmdir p))
            | Some _ -> ignore (d_unit self#downlink (Call.Unlink p))
            | None -> ())
          self#deleted_paths;
        let rec replay rel =
          let sdir = shadow_root ^ rel in
          List.iter
            (fun (e : Dirent.t) ->
              let srel = rel ^ "/" ^ e.d_name in
              let spath = shadow_root ^ srel in
              match lstat_of self#downlink spath with
              | Some st when Flags.Mode.is_dir st.st_mode ->
                ignore (d_unit self#downlink (Call.Mkdir (srel, 0o755)));
                replay srel
              | Some st when Flags.Mode.is_lnk st.st_mode ->
                let buf = Bytes.create 1024 in
                (match d_int self#downlink (Call.Readlink (spath, buf)) with
                 | Ok n ->
                   ignore (d_unit self#downlink (Call.Unlink srel));
                   ignore
                     (d_unit self#downlink
                        (Call.Symlink (Bytes.sub_string buf 0 n, srel)))
                 | Error _ -> ())
              | Some _ ->
                ignore (copy_file self#downlink ~src:spath ~dst:srel)
              | None -> ())
            (read_dir self#downlink sdir)
        in
        replay "";
        self#remove_shadow_tree;
        Hashtbl.reset deleted
      end

    method abort =
      if not finished then begin
        finished <- true;
        self#remove_shadow_tree;
        Hashtbl.reset deleted
      end

    method! sys_exit code =
      (if not finished then
         let pid =
           match self#down Call.Getpid with
           | Ok { Value.r0; _ } -> r0
           | Error _ -> -1
         in
         if pid = session_pid then
           match decide () with
           | `Commit -> self#commit
           | `Abort -> self#abort);
      super#sys_exit code
  end

let create ?decide () = new agent ?decide ()
