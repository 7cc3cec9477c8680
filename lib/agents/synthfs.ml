open Abi

type generator = unit -> string

let synth_ino name = 0x50000 lor (Hashtbl.hash name land 0xFFFF)

let synth_stat ~name ~size ~dir =
  { Stat.zero with
    st_dev = 0x51;
    st_ino = synth_ino name;
    st_mode =
      (if dir then Flags.Mode.ifdir lor 0o555
       else Flags.Mode.ifreg lor 0o444);
    st_nlink = 1;
    st_size = size }

(* A read-only descriptor whose bytes live in agent memory.  The
   underlying descriptor is a /dev/null placeholder; only [close]
   reaches it. *)
class synth_object (dl : Toolkit.Downlink.t) ~(name : string)
  ~(content : string) =
  object
    inherit Toolkit.open_object dl

    val data = Vfs.Filedata.of_string content
    val mutable pos = 0

    method! read ~fd:_ buf cnt =
      let cnt = max 0 (min cnt (Bytes.length buf)) in
      let n = Vfs.Filedata.read data ~pos buf ~off:0 ~len:cnt in
      pos <- pos + n;
      Value.ret n

    method! write ~fd:_ _ = Error Errno.EROFS

    method! lseek ~fd:_ off whence =
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

    method! fstat ~fd:_ r =
      r := Some (synth_stat ~name ~size:(Vfs.Filedata.size data) ~dir:false);
      Value.ret 0

    method! ftruncate ~fd:_ _ = Error Errno.EROFS
    method! getdirentries ~fd:_ _ = Error Errno.ENOTDIR
  end

class agent ?(mount = "/proc") () =
  object (self)
    inherit Toolkit.pathname_set as super

    val files : (string, generator) Hashtbl.t = Hashtbl.create 8
    val mutable served = 0
    val mutable pending : [ `File of string * string | `Dir ] option = None

    method! agent_name = "synthfs"

    (* the mount adds paths the bare kernel cannot resolve (ENOENT
       flips to success under the agent), and reads there serve
       generated bytes *)
    method! declared_delta =
      [ Delta.May_fail { sysnos = Call.file_calls; errnos = [ Errno.ENOENT ] };
        Delta.Rewrites_results
          [ Sysno.sys_read; Sysno.sys_stat; Sysno.sys_getdirentries ] ]
    method mount = mount
    method opens_served = served

    method register_file name gen =
      if name <> "" && not (String.contains name '/') then
        Hashtbl.replace files name gen

    method names =
      List.sort compare
        (Hashtbl.fold (fun name _ acc -> name :: acc) files [])

    (* serves synthetic files: file calls only *)
    method! init _argv = List.iter self#register_interest Call.file_calls

    method private entry path =
      if path = mount then Some `Dir
      else begin
        let ml = String.length mount in
        if
          String.length path > ml + 1
          && String.sub path 0 ml = mount
          && path.[ml] = '/'
        then begin
          let name = String.sub path (ml + 1) (String.length path - ml - 1) in
          match Hashtbl.find_opt files name with
          | Some gen -> Some (`File (name, gen))
          | None -> None
        end
        else None
      end

    method private placeholder_fd flags =
      match self#down (Call.Open ("/dev/null", Flags.Open.o_rdonly, 0)) with
      | Ok { Value.r0 = fd; _ } ->
        ignore flags;
        Ok fd
      | Error e -> Error e

    method! sys_open path flags mode =
      match self#entry path with
      | Some (`File (name, gen)) ->
        if Flags.Open.writable flags then Error Errno.EROFS
        else begin
          match self#placeholder_fd flags with
          | Error e -> Error e
          | Ok fd ->
            served <- served + 1;
            pending <- Some (`File (name, gen ()));
            self#drop_descriptor fd;
            let oo = self#make_open_object ~fd ~path:(Some path) ~flags in
            self#install_descriptor fd (new Toolkit.Objects.descriptor ~fd oo);
            pending <- None;
            Value.ret fd
        end
      | Some `Dir ->
        if Flags.Open.writable flags then Error Errno.EISDIR
        else begin
          (* the mount may not exist in the real filesystem at all;
             iterate a placeholder and splice the synthetic names in *)
          match self#placeholder_fd flags with
          | Error e -> Error e
          | Ok fd ->
            pending <- Some `Dir;
            self#drop_descriptor fd;
            let oo = self#make_open_object ~fd ~path:(Some path) ~flags in
            self#install_descriptor fd (new Toolkit.Objects.descriptor ~fd oo);
            pending <- None;
            Value.ret fd
        end
      | None -> super#sys_open path flags mode

    method! make_open_object ~fd ~path ~flags =
      match pending with
      | Some (`File (name, content)) ->
        (new synth_object self#downlink ~name ~content
          :> Toolkit.Objects.open_object)
      | Some `Dir ->
        (new Merged_dir.merged_directory self#downlink ~extra_paths:[]
           ~hide:(fun _ -> false)
           ~extra_names:self#names ()
          :> Toolkit.Objects.open_object)
      | None -> super#make_open_object ~fd ~path ~flags

    method! sys_stat path r =
      match self#entry path with
      | Some (`File (name, gen)) ->
        r := Some (synth_stat ~name ~size:(String.length (gen ())) ~dir:false);
        Value.ret 0
      | Some `Dir ->
        r := Some (synth_stat ~name:mount ~size:0 ~dir:true);
        Value.ret 0
      | None -> super#sys_stat path r

    method! sys_lstat path r = self#sys_stat path r

    method! sys_access path bits =
      match self#entry path with
      | Some _ ->
        if bits land Flags.Access.w_ok <> 0 then Error Errno.EROFS
        else Value.ret 0
      | None -> super#sys_access path bits

    method! sys_unlink path =
      match self#entry path with
      | Some _ -> Error Errno.EROFS
      | None -> super#sys_unlink path
  end

(* --- built-in generators --------------------------------------------------- *)

let create ?mount () =
  let a = new agent ?mount () in
  a#register_file "uptime" (fun () ->
    let cell = ref None in
    match
      Toolkit.Downlink.down_call a#downlink (Call.Gettimeofday cell), !cell
    with
    | Ok _, Some (sec, usec) -> Printf.sprintf "%d.%06d\n" sec usec
    | _ -> "0.000000\n");
  a#register_file "loadavg" (fun () -> "0.42 0.17 0.05 1/3\n");
  a#register_file "self" (fun () ->
    match Toolkit.Downlink.down_call a#downlink Call.Getpid with
    | Ok { Value.r0; _ } -> Printf.sprintf "%d\n" r0
    | Error _ -> "?\n");
  a#register_file "agents" (fun () -> "synthfs\n");
  a
