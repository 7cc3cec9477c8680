open Abi

type policy = {
  readable : string list;
  writable : string list;
  executable : string list;
  max_children : int;
  max_write_bytes : int;
  allow_kill_outside : bool;
  emulate_denied : bool;
}

let open_policy = {
  readable = [];
  writable = [ "/" ];
  executable = [ "/" ];
  max_children = max_int;
  max_write_bytes = -1;
  allow_kill_outside = true;
  emulate_denied = false;
}

let default_policy = {
  readable = [];
  writable = [ "/tmp" ];
  executable = [];
  max_children = 0;
  max_write_bytes = 1024 * 1024;
  allow_kill_outside = false;
  emulate_denied = false;
}

(* Enforces the write budget on every tracked descriptor. *)
class budget_object (dl : Toolkit.Downlink.t) (note : int -> bool) =
  object
    inherit Toolkit.open_object dl as super

    method! write ~fd data =
      if note (String.length data) then super#write ~fd data
      else Error Errno.ENOSPC
  end

class agent (policy : policy) =
  object (self)
    inherit Toolkit.pathname_set as super

    val mutable violations : string list = []  (* newest first *)
    val mutable written = 0
    val mutable children = 0
    val descendants : (int, unit) Hashtbl.t = Hashtbl.create 8

    method! agent_name = "sandbox"
    method policy = policy

    (* exactly the calls the policy guards may flip outcome: hidden
       paths read as ENOENT, denials as EPERM (or emulated success),
       byte/process budgets as ENOSPC/EAGAIN.  A policy wide enough
       for the workload leaves the mask unused — full transparency. *)
    method! declared_delta =
      [ Delta.May_fail
          { sysnos =
              Sysno.sys_kill :: Sysno.sys_settimeofday :: Call.file_calls;
            errnos = [ Errno.ENOENT; Errno.EPERM; Errno.ENOSPC; Errno.EAGAIN ] } ]
    method violations = List.rev violations
    method bytes_written = written
    method children_spawned = children

    (* Policy only touches file calls plus the two it explicitly
       guards (kill, settimeofday); everything else can take the
       uninterested fast path. *)
    method! init _argv =
      List.iter self#register_interest
        (Sysno.sys_kill :: Sysno.sys_settimeofday :: Call.file_calls)

    method private violate what =
      violations <- what :: violations

    method private readable_path path =
      policy.readable = [] || Subtree.mem policy.readable path

    method private writable_path path = Subtree.mem policy.writable path

    (* hide everything outside the readable set *)
    method! getpn path =
      if self#readable_path path then super#getpn path
      else begin
        self#violate (Printf.sprintf "read %s" path);
        Error Errno.ENOENT
      end

    (* a denied destructive call: emulate or refuse *)
    method private deny what : Value.res =
      self#violate what;
      if policy.emulate_denied then Value.ret 0 else Error Errno.EPERM

    method private guard_write path what (run : unit -> Value.res) =
      if not (self#readable_path path) then begin
        self#violate (Printf.sprintf "read %s" path);
        Error Errno.ENOENT
      end
      else if self#writable_path path then run ()
      else self#deny what

    method! sys_open path flags mode =
      if Flags.Open.writable flags || flags land Flags.Open.o_creat <> 0
      then
        if not (self#readable_path path) then begin
          self#violate (Printf.sprintf "read %s" path);
          Error Errno.ENOENT
        end
        else if self#writable_path path then super#sys_open path flags mode
        else begin
          self#violate (Printf.sprintf "open-for-write %s" path);
          if policy.emulate_denied then
            (* pretend: hand out a descriptor whose writes vanish *)
            super#sys_open "/dev/null" Flags.Open.o_wronly 0
          else Error Errno.EPERM
        end
      else super#sys_open path flags mode

    method! sys_creat path mode =
      self#sys_open path Flags.Open.(o_wronly lor o_creat lor o_trunc) mode

    method! sys_unlink path =
      self#guard_write path
        (Printf.sprintf "unlink %s" path)
        (fun () -> super#sys_unlink path)

    method! sys_rmdir path =
      self#guard_write path
        (Printf.sprintf "rmdir %s" path)
        (fun () -> super#sys_rmdir path)

    method! sys_mkdir path mode =
      self#guard_write path
        (Printf.sprintf "mkdir %s" path)
        (fun () -> super#sys_mkdir path mode)

    method! sys_mknod path mode dev =
      self#guard_write path
        (Printf.sprintf "mknod %s" path)
        (fun () -> super#sys_mknod path mode dev)

    method! sys_chmod path mode =
      self#guard_write path
        (Printf.sprintf "chmod %s" path)
        (fun () -> super#sys_chmod path mode)

    method! sys_chown path uid gid =
      self#guard_write path
        (Printf.sprintf "chown %s" path)
        (fun () -> super#sys_chown path uid gid)

    method! sys_truncate path len =
      self#guard_write path
        (Printf.sprintf "truncate %s" path)
        (fun () -> super#sys_truncate path len)

    method! sys_utimes path atime mtime =
      self#guard_write path
        (Printf.sprintf "utimes %s" path)
        (fun () -> super#sys_utimes path atime mtime)

    method! sys_link existing path =
      self#guard_write path
        (Printf.sprintf "link %s" path)
        (fun () -> super#sys_link existing path)

    method! sys_symlink target path =
      self#guard_write path
        (Printf.sprintf "symlink %s" path)
        (fun () -> super#sys_symlink target path)

    method! sys_rename src dst =
      if self#writable_path src && self#writable_path dst then
        super#sys_rename src dst
      else self#deny (Printf.sprintf "rename %s -> %s" src dst)

    method! sys_fork body =
      if children >= policy.max_children then begin
        self#violate "fork";
        Error Errno.EAGAIN
      end
      else begin
        children <- children + 1;
        match super#sys_fork body with
        | Ok r as res ->
          Hashtbl.replace descendants r.Value.r0 ();
          res
        | Error _ as res -> res
      end

    method! sys_execve path argv envp =
      if Subtree.mem policy.executable path then super#sys_execve path argv envp
      else begin
        self#violate (Printf.sprintf "execve %s" path);
        Error Errno.EPERM
      end

    method! sys_kill pid s =
      let self_pid =
        match self#down Call.Getpid with
        | Ok { Value.r0; _ } -> r0
        | Error _ -> -1
      in
      if
        policy.allow_kill_outside || pid = self_pid
        || Hashtbl.mem descendants pid
      then super#sys_kill pid s
      else self#deny (Printf.sprintf "kill %d %s" pid (Signal.name s))

    method! sys_settimeofday sec usec =
      if policy.allow_kill_outside then super#sys_settimeofday sec usec
      else self#deny "settimeofday"

    (* route every tracked descriptor through the byte budget *)
    method! make_open_object ~fd ~path ~flags =
      ignore fd;
      ignore path;
      ignore flags;
      let note n =
        if
          policy.max_write_bytes >= 0
          && written + n > policy.max_write_bytes
        then begin
          self#violate "write budget exhausted";
          false
        end
        else begin
          written <- written + n;
          true
        end
      in
      (new budget_object self#downlink note :> Toolkit.Objects.open_object)
  end

let create policy = new agent policy
