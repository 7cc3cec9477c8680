open Abi

type t = {
  mutable collected : Dfs_record.t list;  (* newest first *)
  mutable serial : int;
}

let result_of = function
  | Ok _ -> 0
  | Error e -> Errno.to_int e

let op_of_call (call : Call.t) (res : Value.res) =
  match call with
  | Call.Open (path, flags, _) -> Some (path, Dfs_record.R_open flags)
  | Call.Creat (path, _) -> Some (path, Dfs_record.R_creat)
  | Call.Close _ ->
    (* byte totals live in per-descriptor state the hook does not see;
       the kernel implementation logs close without them *)
    ignore res;
    None
  | Call.Stat (path, _) -> Some (path, Dfs_record.R_stat)
  | Call.Lstat (path, _) -> Some (path, Dfs_record.R_lstat)
  | Call.Access (path, _) -> Some (path, Dfs_record.R_access)
  | Call.Readlink (path, _) -> Some (path, Dfs_record.R_readlink)
  | Call.Chdir path -> Some (path, Dfs_record.R_chdir)
  | Call.Execve (path, _, _) -> Some (path, Dfs_record.R_execve)
  | Call.Unlink path -> Some (path, Dfs_record.R_unlink)
  | Call.Rmdir path -> Some (path, Dfs_record.R_rmdir)
  | Call.Mkdir (path, _) -> Some (path, Dfs_record.R_mkdir)
  | Call.Chmod (path, _) -> Some (path, Dfs_record.R_chmod)
  | Call.Chown (path, _, _) -> Some (path, Dfs_record.R_chown)
  | Call.Truncate (path, _) -> Some (path, Dfs_record.R_truncate)
  | Call.Utimes (path, _, _) -> Some (path, Dfs_record.R_utimes)
  | Call.Rename (src, dst) -> Some (src, Dfs_record.R_rename dst)
  | Call.Link (existing, path) -> Some (existing, Dfs_record.R_link path)
  | Call.Symlink (target, path) ->
    Some (path, Dfs_record.R_symlink target)
  | _ -> None

let install ?(cost_us = 18) kernel =
  let t = { collected = []; serial = 0 } in
  Kernel.set_trace_hook kernel ~cost_us
    (Some
       (fun proc call res ->
         match op_of_call call res with
         | None -> ()
         | Some (path, op) ->
           t.serial <- t.serial + 1;
           t.collected <-
             { Dfs_record.serial = t.serial;
               pid = proc.Kernel.Proc.pid;
               time_us = Sim.Clock.now_us (Kernel.clock kernel);
               path;
               op;
               result = result_of res }
             :: t.collected));
  t

let records t = List.rev t.collected
