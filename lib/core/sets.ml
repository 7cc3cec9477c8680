open Abi

class descriptor_set =
  object (self)
    inherit Symbolic.symbolic_syscall as super

    val mutable descs : Objects.descriptor option array =
      Array.make 64 None

    method descriptor_of fd =
      if fd >= 0 && fd < Array.length descs then descs.(fd) else None

    method install_descriptor fd (d : Objects.descriptor) =
      if fd >= 0 then begin
        if fd >= Array.length descs then begin
          let bigger = Array.make (fd + 16) None in
          Array.blit descs 0 bigger 0 (Array.length descs);
          descs <- bigger
        end;
        descs.(fd) <- Some d
      end

    method drop_descriptor fd =
      match self#descriptor_of fd with
      | None -> ()
      | Some d ->
        descs.(fd) <- None;
        if d#open_object#release = 0 then d#open_object#on_last_close

    method make_open_object ~fd:_ ~path:_ ~flags:_ =
      new Objects.open_object self#downlink

    method track_new_fd ~path ~flags (res : Value.res) =
      (match res with
       | Ok { Value.r0 = fd; _ } ->
         self#drop_descriptor fd;  (* a stale slot, if any *)
         let oo = self#make_open_object ~fd ~path ~flags in
         self#install_descriptor fd (new Objects.descriptor ~fd oo)
       | Error _ -> ());
      res

    (* The tracked descriptor behind [fd], charging the descriptor
       layer when there is one: a descriptor call goes through its
       object then, and passes through untouched otherwise.  The slot
       is read and returned as stored, so an untracked descriptor
       crosses this layer without allocating. *)
    method private tracked fd =
      match self#descriptor_of fd with
      | Some _ as slot ->
        Boilerplate.charge Cost_model.descriptor_layer_us;
        slot
      | None -> None

    method! sys_open path flags mode =
      self#track_new_fd ~path:(Some path) ~flags
        (super#sys_open path flags mode)

    method! sys_creat path mode =
      self#track_new_fd ~path:(Some path)
        ~flags:Flags.Open.(o_wronly lor o_creat lor o_trunc)
        (super#sys_creat path mode)

    method! sys_pipe () =
      match super#sys_pipe () with
      | Ok { Value.r0 = rfd; r1 = wfd } as res ->
        ignore
          (self#track_new_fd ~path:None ~flags:Flags.Open.o_rdonly
             (Value.ret rfd));
        ignore
          (self#track_new_fd ~path:None ~flags:Flags.Open.o_wronly
             (Value.ret wfd));
        res
      | Error _ as res -> res

    method! sys_dup fd =
      match super#sys_dup fd with
      | Ok { Value.r0 = nfd; _ } as res ->
        (match self#descriptor_of fd with
         | Some d ->
           self#drop_descriptor nfd;
           self#install_descriptor nfd (d#dup_onto ~fd:nfd)
         | None -> ());
        res
      | Error _ as res -> res

    method! sys_dup2 ofd nfd =
      match super#sys_dup2 ofd nfd with
      | Ok _ as res ->
        if ofd <> nfd then begin
          self#drop_descriptor nfd;
          match self#descriptor_of ofd with
          | Some d -> self#install_descriptor nfd (d#dup_onto ~fd:nfd)
          | None -> ()
        end;
        res
      | Error _ as res -> res

    method! sys_fcntl fd cmd arg =
      match super#sys_fcntl fd cmd arg with
      | Ok { Value.r0 = nfd; _ } as res when cmd = Flags.Fcntl.f_dupfd ->
        (match self#descriptor_of fd with
         | Some d ->
           self#drop_descriptor nfd;
           self#install_descriptor nfd (d#dup_onto ~fd:nfd)
         | None -> ());
        res
      | (Ok _ | Error _) as res -> res

    method! sys_close fd =
      match self#descriptor_of fd with
      | Some d ->
        descs.(fd) <- None;
        d#close
      | None -> super#sys_close fd

    method! sys_read fd buf cnt =
      match self#tracked fd with
      | Some d -> d#read buf cnt
      | None -> super#sys_read fd buf cnt

    method! sys_write fd data =
      match self#tracked fd with
      | Some d -> d#write data
      | None -> super#sys_write fd data

    method! sys_lseek fd off whence =
      match self#tracked fd with
      | Some d -> d#lseek off whence
      | None -> super#sys_lseek fd off whence

    method! sys_fstat fd r =
      match self#tracked fd with
      | Some d -> d#fstat r
      | None -> super#sys_fstat fd r

    method! sys_getdirentries fd buf =
      match self#tracked fd with
      | Some d -> d#getdirentries buf
      | None -> super#sys_getdirentries fd buf

    method! sys_ftruncate fd len =
      match self#tracked fd with
      | Some d -> d#ftruncate len
      | None -> super#sys_ftruncate fd len

    method! sys_fsync fd =
      match self#tracked fd with
      | Some d -> d#fsync
      | None -> super#sys_fsync fd

    method! sys_ioctl fd op buf =
      match self#tracked fd with
      | Some d -> d#ioctl op buf
      | None -> super#sys_ioctl fd op buf
  end

class pathname_set =
  object (self)
    inherit descriptor_set

    method make_pathname path = new Objects.pathname self#downlink path

    method getpn path : (Objects.pathname, Errno.t) result =
      Boilerplate.charge Cost_model.pathname_layer_us;
      Ok (self#make_pathname path)

    method private with_pn
        : 'a. string -> (Objects.pathname -> Value.res) -> Value.res =
      fun path f ->
        match self#getpn path with
        | Ok pn -> f pn
        | Error e -> Error e

    method! sys_open path flags mode =
      self#with_pn path (fun pn ->
        self#track_new_fd ~path:(Some pn#path) ~flags (pn#open_ flags mode))

    method! sys_creat path mode =
      self#with_pn path (fun pn ->
        self#track_new_fd ~path:(Some pn#path)
          ~flags:Flags.Open.(o_wronly lor o_creat lor o_trunc)
          (pn#creat mode))

    method! sys_stat path r = self#with_pn path (fun pn -> pn#stat r)
    method! sys_lstat path r = self#with_pn path (fun pn -> pn#lstat r)
    method! sys_access path bits = self#with_pn path (fun pn -> pn#access bits)
    method! sys_chmod path mode = self#with_pn path (fun pn -> pn#chmod mode)

    method! sys_chown path uid gid =
      self#with_pn path (fun pn -> pn#chown uid gid)

    method! sys_utimes path atime mtime =
      self#with_pn path (fun pn -> pn#utimes atime mtime)

    method! sys_truncate path len =
      self#with_pn path (fun pn -> pn#truncate len)

    method! sys_readlink path buf =
      self#with_pn path (fun pn -> pn#readlink buf)

    method! sys_unlink path = self#with_pn path (fun pn -> pn#unlink)
    method! sys_rmdir path = self#with_pn path (fun pn -> pn#rmdir)
    method! sys_mkdir path mode = self#with_pn path (fun pn -> pn#mkdir mode)

    method! sys_mknod path mode dev =
      self#with_pn path (fun pn -> pn#mknod mode dev)

    method! sys_chdir path = self#with_pn path (fun pn -> pn#chdir)

    method! sys_link existing path =
      self#with_pn existing (fun pn ->
        self#with_pn path (fun newpn -> pn#link_to newpn))

    method! sys_rename src dst =
      self#with_pn src (fun pn ->
        self#with_pn dst (fun newpn -> pn#rename_to newpn))

    method! sys_symlink target path =
      self#with_pn path (fun pn -> pn#symlink ~target)

    method! sys_execve path argv envp =
      self#with_pn path (fun pn -> pn#execve argv envp)
  end
