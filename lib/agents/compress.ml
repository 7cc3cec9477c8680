open Abi

let header = "RLE1\n"

let split_header content =
  let hl = String.length header in
  if String.length content >= hl && String.sub content 0 hl = header then
    Some (String.sub content hl (String.length content - hl))
  else None

class compress_object (dl : Toolkit.Downlink.t) ~(path : string)
  ~(flags : int) =
  object (self)
    inherit Toolkit.open_object dl as super

    val data = Vfs.Filedata.create ()
    val mutable pos = 0
    val mutable loaded = false
    val mutable dirty = false

    method private down c = Toolkit.Downlink.down_call dl c

    method private load_raw =
      (* read the stored bytes through a private descriptor so the
         application's offset is untouched *)
      match self#down (Call.Open (path, Flags.Open.o_rdonly, 0)) with
      | Error _ -> ""
      | Ok { Value.r0 = rfd; _ } ->
        let buf = Bytes.create 4096 in
        let collected = Buffer.create 256 in
        let rec slurp () =
          match self#down (Call.Read (rfd, buf, Bytes.length buf)) with
          | Ok { Value.r0 = 0; _ } | Error _ -> ()
          | Ok { Value.r0 = n; _ } ->
            Buffer.add_subbytes collected buf 0 n;
            slurp ()
        in
        slurp ();
        ignore (self#down (Call.Close rfd));
        Buffer.contents collected

    method private ensure_loaded =
      if not loaded then begin
        loaded <- true;
        if flags land Flags.Open.o_trunc = 0 then begin
          let raw = self#load_raw in
          let plain =
            match split_header raw with
            | Some payload ->
              (match Rle.decode payload with
               | Ok s -> s
               | Error _ -> raw)  (* corrupt: expose the stored bytes *)
            | None -> raw         (* legacy plaintext file *)
          in
          ignore (Vfs.Filedata.write data ~pos:0 plain)
        end
      end

    method private flush ~fd =
      if dirty then begin
        dirty <- false;
        let encoded = header ^ Rle.encode (Vfs.Filedata.to_string data) in
        ignore (self#down (Call.Lseek (fd, 0, Flags.Seek.set)));
        ignore (self#down (Call.Ftruncate (fd, 0)));
        ignore (self#down (Call.Write (fd, encoded)))
      end

    method! read ~fd buf cnt =
      ignore fd;
      self#ensure_loaded;
      let cnt = max 0 (min cnt (Bytes.length buf)) in
      let n = Vfs.Filedata.read data ~pos buf ~off:0 ~len:cnt in
      pos <- pos + n;
      Value.ret n

    method! write ~fd s =
      ignore fd;
      self#ensure_loaded;
      if flags land Flags.Open.o_append <> 0 then
        pos <- Vfs.Filedata.size data;
      let n = Vfs.Filedata.write data ~pos s in
      pos <- pos + n;
      dirty <- true;
      Value.ret n

    method! lseek ~fd off whence =
      ignore fd;
      self#ensure_loaded;
      let base =
        if whence = Flags.Seek.set then Some 0
        else if whence = Flags.Seek.cur then Some pos
        else if whence = Flags.Seek.end_ then Some (Vfs.Filedata.size data)
        else None
      in
      (match base with
       | Some b when b + off >= 0 ->
         pos <- b + off;
         Value.ret pos
       | Some _ | None -> Error Errno.EINVAL)

    method! ftruncate ~fd len =
      ignore fd;
      if len < 0 then Error Errno.EINVAL
      else begin
        self#ensure_loaded;
        Vfs.Filedata.truncate data len;
        dirty <- true;
        Value.ret 0
      end

    method! fstat ~fd r =
      self#ensure_loaded;
      match super#fstat ~fd r with
      | Ok _ as res ->
        (match !r with
         | Some st ->
           r := Some { st with Stat.st_size = Vfs.Filedata.size data }
         | None -> ());
        res
      | Error _ as res -> res

    method! close ~fd =
      self#flush ~fd;
      super#close ~fd
  end

class agent ~(subtrees : string list) =
  object (self)
    inherit Toolkit.Sets.descriptor_set as super

    val mutable handled = 0

    method! agent_name = "compress"

    (* on-disk form is compressed: payloads and observed sizes (stat,
       lseek results) differ from the bare filesystem's *)
    method! declared_delta =
      [ Delta.Rewrites_results
          [ Sysno.sys_read; Sysno.sys_write; Sysno.sys_stat;
            Sysno.sys_lstat; Sysno.sys_lseek ] ]
    method files_handled = handled
    (* a descriptor_set layer: descriptor calls (incl. open/creat) only *)
    method! init _argv =
      List.iter self#register_interest Call.descriptor_calls

    method! make_open_object ~fd ~path ~flags =
      match path with
      | Some p when Subtree.mem subtrees p ->
        handled <- handled + 1;
        (new compress_object self#downlink ~path:p ~flags
          :> Toolkit.Objects.open_object)
      | Some _ | None -> super#make_open_object ~fd ~path ~flags
  end

let create ~subtrees = new agent ~subtrees
