open Abi

class open_object (dl : Downlink.t) =
  object
    val mutable refs = 1
    method retain = refs <- refs + 1
    method release =
      refs <- refs - 1;
      refs
    method on_last_close = ()

    method read ~fd buf cnt =
      Downlink.pass3 dl Sysno.sys_read
        (fun a b c -> Call.Read (a, b, c)) fd buf cnt
    method write ~fd data =
      Downlink.pass2 dl Sysno.sys_write (fun a b -> Call.Write (a, b)) fd data
    method lseek ~fd off whence =
      Downlink.pass3 dl Sysno.sys_lseek
        (fun a b c -> Call.Lseek (a, b, c)) fd off whence
    method fstat ~fd r =
      Downlink.pass2 dl Sysno.sys_fstat (fun a b -> Call.Fstat (a, b)) fd r
    method getdirentries ~fd buf =
      Downlink.pass2 dl Sysno.sys_getdirentries
        (fun a b -> Call.Getdirentries (a, b)) fd buf
    method ftruncate ~fd len =
      Downlink.pass2 dl Sysno.sys_ftruncate
        (fun a b -> Call.Ftruncate (a, b)) fd len
    method fsync ~fd =
      Downlink.pass1 dl Sysno.sys_fsync (fun a -> Call.Fsync a) fd
    method ioctl ~fd op buf =
      Downlink.pass3 dl Sysno.sys_ioctl
        (fun a b c -> Call.Ioctl (a, b, c)) fd op buf
    method close ~fd =
      Downlink.pass1 dl Sysno.sys_close (fun a -> Call.Close a) fd
  end

class directory (dl : Downlink.t) =
  object (self)
    inherit open_object dl as super

    val iobuf = Bytes.create 512
    val mutable pending : Dirent.t list = []
    val mutable lookahead : Dirent.t option = None
    val mutable at_eof = false
    val mutable index = 0  (* logical entry index, the basep we report *)

    method next_direntry ~fd : Dirent.t option =
      Boilerplate.charge Cost_model.directory_layer_us;
      match pending with
      | e :: rest ->
        pending <- rest;
        Some e
      | [] ->
        if at_eof then None
        else begin
          (match super#getdirentries ~fd iobuf with
           | Ok { Value.r0 = 0; _ } | Error _ -> at_eof <- true
           | Ok { Value.r0 = n; _ } ->
             pending <- Dirent.decode_all iobuf ~len:n);
          if at_eof then None else self#next_direntry ~fd
        end

    method rewind ~fd : Value.res =
      pending <- [];
      lookahead <- None;
      at_eof <- false;
      index <- 0;
      super#lseek ~fd 0 Flags.Seek.set

    (* The public byte-stream view, rebuilt from the iterator so that a
       derived next_direntry changes what readdir sees. *)
    method! getdirentries ~fd buf =
      let next () =
        match lookahead with
        | Some e ->
          lookahead <- None;
          Some e
        | None -> self#next_direntry ~fd
      in
      let rec fill pos count =
        match next () with
        | None -> pos, count
        | Some e ->
          if Dirent.fits buf ~pos e then
            fill (Dirent.encode buf ~pos e) (count + 1)
          else begin
            lookahead <- Some e;
            pos, count
          end
      in
      let bytes, consumed = fill 0 0 in
      if bytes = 0 && lookahead <> None then Error Errno.EINVAL
      else begin
        index <- index + consumed;
        Ok { Value.r0 = bytes; r1 = index }
      end

    method! lseek ~fd off whence =
      if off = 0 && whence = Flags.Seek.set then self#rewind ~fd
      else super#lseek ~fd off whence
  end

class descriptor ~(fd : int) (oo : open_object) =
  object
    method fd = fd
    method open_object = oo

    method dup_onto ~fd:nfd =
      oo#retain;
      new descriptor ~fd:nfd oo

    method read buf cnt = oo#read ~fd buf cnt
    method write data = oo#write ~fd data
    method lseek off whence = oo#lseek ~fd off whence
    method fstat r = oo#fstat ~fd r
    method getdirentries buf = oo#getdirentries ~fd buf
    method ftruncate len = oo#ftruncate ~fd len
    method fsync = oo#fsync ~fd
    method ioctl op buf = oo#ioctl ~fd op buf

    method close =
      let res = oo#close ~fd in
      if oo#release = 0 then oo#on_last_close;
      res
  end

class pathname (dl : Downlink.t) (path : string) =
  object
    method path = path

    method open_ flags mode =
      Downlink.pass3 dl Sysno.sys_open
        (fun a b c -> Call.Open (a, b, c)) path flags mode
    method creat mode =
      Downlink.pass2 dl Sysno.sys_creat (fun a b -> Call.Creat (a, b)) path mode
    method stat r =
      Downlink.pass2 dl Sysno.sys_stat (fun a b -> Call.Stat (a, b)) path r
    method lstat r =
      Downlink.pass2 dl Sysno.sys_lstat (fun a b -> Call.Lstat (a, b)) path r
    method access bits =
      Downlink.pass2 dl Sysno.sys_access
        (fun a b -> Call.Access (a, b)) path bits
    method chmod mode =
      Downlink.pass2 dl Sysno.sys_chmod (fun a b -> Call.Chmod (a, b)) path mode
    method chown uid gid =
      Downlink.pass3 dl Sysno.sys_chown
        (fun a b c -> Call.Chown (a, b, c)) path uid gid
    method utimes atime mtime =
      Downlink.pass3 dl Sysno.sys_utimes
        (fun a b c -> Call.Utimes (a, b, c)) path atime mtime
    method truncate len =
      Downlink.pass2 dl Sysno.sys_truncate
        (fun a b -> Call.Truncate (a, b)) path len
    method readlink buf =
      Downlink.pass2 dl Sysno.sys_readlink
        (fun a b -> Call.Readlink (a, b)) path buf
    method unlink =
      Downlink.pass1 dl Sysno.sys_unlink (fun a -> Call.Unlink a) path
    method rmdir =
      Downlink.pass1 dl Sysno.sys_rmdir (fun a -> Call.Rmdir a) path
    method mkdir mode =
      Downlink.pass2 dl Sysno.sys_mkdir (fun a b -> Call.Mkdir (a, b)) path mode
    method mknod mode dev =
      Downlink.pass3 dl Sysno.sys_mknod
        (fun a b c -> Call.Mknod (a, b, c)) path mode dev
    method chdir =
      Downlink.pass1 dl Sysno.sys_chdir (fun a -> Call.Chdir a) path

    method link_to (newpn : pathname) =
      Downlink.pass2 dl Sysno.sys_link
        (fun a b -> Call.Link (a, b)) path newpn#path

    method rename_to (newpn : pathname) =
      Downlink.pass2 dl Sysno.sys_rename
        (fun a b -> Call.Rename (a, b)) path newpn#path

    method symlink ~target =
      Downlink.pass2 dl Sysno.sys_symlink
        (fun a b -> Call.Symlink (a, b)) target path

    method execve argv envp = Boilerplate.do_execve dl path argv envp
  end
