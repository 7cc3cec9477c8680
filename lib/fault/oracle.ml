open Abi

type report = {
  status : int;
  deadlocks : int;
  fsck_errors : string list;
  open_refs : int;
  unreaped : int;
  output : string;
  console : string;
  virtual_s : float;
  syscalls : int;
}

type outcome = Tolerated | Wrong_result | Hang | Crash

let outcome_name = function
  | Tolerated -> "tolerated"
  | Wrong_result -> "wrong-result"
  | Hang -> "hang"
  | Crash -> "crash"

let outcome_of_name = function
  | "tolerated" -> Some Tolerated
  | "wrong-result" -> Some Wrong_result
  | "hang" -> Some Hang
  | "crash" -> Some Crash
  | _ -> None

let observe k ~status ~output_path =
  let fs = Kernel.fs k in
  let fsck_errors =
    match Vfs.Fs.fsck fs with Ok () -> [] | Error problems -> problems
  in
  (* pid 1's own zombie is the session's return value, not a leak;
     everything else still in the table — zombies nobody waited for,
     or processes somehow alive after quiescence — is an unreaped
     child *)
  let unreaped =
    Hashtbl.fold
      (fun pid (p : Kernel.Proc.t) acc ->
        match p.Kernel.Proc.state with
        | Kernel.Proc.Reaped -> acc
        | Kernel.Proc.Zombie -> if pid = 1 then acc else acc + 1
        | Kernel.Proc.Runnable | Kernel.Proc.Parked _
        | Kernel.Proc.Stopped -> acc + 1)
      k.Kernel.Kstate.procs 0
  in
  {
    status;
    deadlocks = Kernel.deadlock_kills k;
    fsck_errors;
    open_refs = Vfs.Fs.open_refs fs;
    unreaped;
    output = Option.value ~default:"" (Kernel.read_file k output_path);
    console = Kernel.console_output k;
    virtual_s = Kernel.elapsed_seconds k;
    syscalls = Kernel.total_syscalls k;
  }

(* The classification is total: every report lands in exactly one of
   the four classes, checked most-severe first.  "Tolerated" covers
   both a fault absorbed outright (run indistinguishable from the
   fault-free one) and a fault the program detected and reported with
   a clean nonzero exit — in both cases the system behaved correctly
   under the fault.  "Wrong-result" is the silent failures: exit 0
   with diverging output, broken VFS invariants, leaked references or
   unreaped children. *)
let classify ~clean r =
  if r.deadlocks > 0 then
    Hang, Printf.sprintf "%d process(es) killed as deadlocked" r.deadlocks
  else if Flags.Wait.wifsignaled r.status then
    Crash,
    Printf.sprintf "killed by %s" (Signal.name (Flags.Wait.wtermsig r.status))
  else if not (Flags.Wait.wifexited r.status) then
    Crash, Printf.sprintf "abnormal wait status 0x%x" r.status
  else if r.fsck_errors <> [] then
    Wrong_result,
    Printf.sprintf "vfs invariants violated: %s"
      (String.concat "; " r.fsck_errors)
  else if r.open_refs > clean.open_refs then
    Wrong_result,
    Printf.sprintf "%d leaked open-file reference(s)"
      (r.open_refs - clean.open_refs)
  else if r.unreaped > clean.unreaped then
    Wrong_result,
    Printf.sprintf "%d unreaped child process(es)"
      (r.unreaped - clean.unreaped)
  else begin
    let code = Flags.Wait.wexitstatus r.status in
    if code <> 0 then
      Tolerated, Printf.sprintf "failure detected and reported (exit %d)" code
    else if r.output <> clean.output then
      Wrong_result, "exit 0 but output diverges from the fault-free run"
    else if r.console <> clean.console then
      Wrong_result, "exit 0 but console output diverges from the fault-free run"
    else Tolerated, "fault absorbed"
  end
