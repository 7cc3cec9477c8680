open Abi

type emitter = Dfs_record.op -> string -> Value.res -> Value.res

class dfs_pathname (dl : Toolkit.Downlink.t) (log : emitter) (path : string) =
  object (_self)
    inherit Toolkit.pathname dl path as super

    method! creat mode = log Dfs_record.R_creat path (super#creat mode)
    method! stat r = log Dfs_record.R_stat path (super#stat r)
    method! lstat r = log Dfs_record.R_lstat path (super#lstat r)
    method! access bits = log Dfs_record.R_access path (super#access bits)
    method! readlink buf =
      log Dfs_record.R_readlink path (super#readlink buf)
    method! chdir = log Dfs_record.R_chdir path super#chdir
    method! unlink = log Dfs_record.R_unlink path super#unlink
    method! rmdir = log Dfs_record.R_rmdir path super#rmdir
    method! mkdir mode = log Dfs_record.R_mkdir path (super#mkdir mode)
    method! chmod mode = log Dfs_record.R_chmod path (super#chmod mode)
    method! chown uid gid =
      log Dfs_record.R_chown path (super#chown uid gid)
    method! truncate len =
      log Dfs_record.R_truncate path (super#truncate len)
    method! utimes atime mtime =
      log Dfs_record.R_utimes path (super#utimes atime mtime)
    method! link_to newpn =
      log (Dfs_record.R_link newpn#path) path (super#link_to newpn)
    method! rename_to newpn =
      log (Dfs_record.R_rename newpn#path) path (super#rename_to newpn)
    method! symlink ~target =
      log (Dfs_record.R_symlink target) path (super#symlink ~target)
    method! execve argv envp =
      (* log first: a successful exec does not return *)
      let _ = log Dfs_record.R_execve path (Value.ret 0) in
      super#execve argv envp
  end

(* Counts the traffic through a descriptor so the close record can
   carry byte totals, as DFSTrace's close records do. *)
class counting_object (dl : Toolkit.Downlink.t) (log : emitter)
  (path : string) =
  object
    inherit Toolkit.open_object dl as super

    val mutable bytes_read = 0
    val mutable bytes_written = 0

    method! read ~fd buf cnt =
      match super#read ~fd buf cnt with
      | Ok r as res ->
        bytes_read <- bytes_read + r.Value.r0;
        res
      | Error _ as res -> res

    method! write ~fd data =
      match super#write ~fd data with
      | Ok r as res ->
        bytes_written <- bytes_written + r.Value.r0;
        res
      | Error _ as res -> res

    method! on_last_close =
      ignore
        (log (Dfs_record.R_close (bytes_read, bytes_written)) path
           (Value.ret 0))
  end

class agent =
  object (self)
    inherit Toolkit.pathname_set as super

    val mutable log_fd = -1
    val mutable log_path = "/tmp/dfstrace.log"
    val mutable serial = 0

    method! agent_name = "dfs_trace"
    method set_log_fd fd = log_fd <- fd
    method records_emitted = serial

    method! init argv =
      (* only file references are logged — no reason to see the rest *)
      List.iter self#register_interest Call.file_calls;
      Array.iter
        (fun arg ->
          match String.index_opt arg '=' with
          | Some i when String.sub arg 0 i = "log" ->
            log_path <- String.sub arg (i + 1) (String.length arg - i - 1)
          | _ -> ())
        argv;
      match
        self#down
          (Call.Open
             ( log_path,
               Flags.Open.(o_wronly lor o_creat lor o_append),
               0o644 ))
      with
      | Ok { Value.r0 = fd; _ } ->
        (* deliberately NOT close-on-exec: the agent survives execve
           (the toolkit keeps the emulation state), so its log must
           survive too.  It moves to the top of the descriptor table,
           as agentrun's trace sink does: left at the lowest free
           descriptor, it would renumber every descriptor the program
           opens after it.  If the move fails the log stays put. *)
        let high =
          match self#down Call.Getdtablesize with
          | Ok { Value.r0 = n; _ } -> n - 1
          | Error _ -> fd
        in
        log_fd <-
          (if high <> fd && Result.is_ok (self#down (Call.Dup2 (fd, high)))
           then begin
             ignore (self#down (Call.Close fd));
             high
           end
           else fd)
      | Error _ -> log_fd <- -1

    (* One record per reference, stamped like the original: a getpid
       and a gettimeofday per record, written immediately. *)
    method private emit op path (res : Value.res) : Value.res =
      if log_fd >= 0 then begin
        serial <- serial + 1;
        let pid =
          match self#down Call.Getpid with
          | Ok { Value.r0; _ } -> r0
          | Error _ -> 0
        in
        let cell = ref None in
        let time_us =
          match self#down (Call.Gettimeofday cell), !cell with
          | Ok _, Some (sec, usec) -> (sec * 1_000_000) + usec
          | _ -> 0
        in
        let result =
          match res with
          | Ok _ -> 0
          | Error e -> Errno.to_int e
        in
        let record =
          { Dfs_record.serial; pid; time_us; path; op; result }
        in
        ignore (self#down (Call.Write (log_fd, Dfs_record.encode record)))
      end;
      res

    method! make_pathname path =
      (new dfs_pathname self#downlink
         (fun op p res -> self#emit op p res)
         path
        :> Toolkit.Objects.pathname)

    method! make_open_object ~fd ~path ~flags =
      ignore fd;
      ignore flags;
      match path with
      | Some p ->
        (new counting_object self#downlink
           (fun op p' res -> self#emit op p' res)
           p
          :> Toolkit.Objects.open_object)
      | None -> super#make_open_object ~fd ~path ~flags

    method! sys_open path flags mode =
      match super#sys_open path flags mode with
      | res -> self#emit (Dfs_record.R_open flags) path res
  end

let create () = new agent
