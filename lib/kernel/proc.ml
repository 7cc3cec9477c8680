type cond =
  | On_chan of File.Wchan.t
  | On_chans of File.Wchan.t list  (* select: any of these *)
  | On_time of int
  | On_signal of int       (* sigsuspend: the mask to restore *)

type state =
  | Runnable
  | Parked of cond
  | Stopped
  | Zombie
  | Reaped

type fibre = (unit, unit) Effect.Deep.continuation

(* The empty fibre slot: a continuation already used up, so resuming it
   raises [Effect.Continuation_already_resumed].  Built once, by
   discontinuing a fibre at its one perform. *)
type _ Effect.t += Spent : unit Effect.t

let no_fibre : fibre =
  let open Effect.Deep in
  let slot : fibre option ref = ref None in
  match_with
    (fun () -> Effect.perform Spent)
    ()
    { retc = (fun () -> ());
      exnc = (fun _ -> ());
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Spent ->
            Some
              (fun (k : fibre) ->
                slot := Some k;
                discontinue k Exit)
          | _ -> None) };
  Option.get !slot

(* BSD's ERESTART: a block built at run time, so no result a call
   returns is physically equal to it. *)
let restart : Abi.Value.res = Error (Sys.opaque_identity Abi.Errno.EINTR)

type sigstate = {
  mutable handlers : Abi.Value.handler array;
  mutable mask : int;
  mutable pending : int;
  mutable senders : (int * Obs.origin) list;
      (* signal -> the kill that made it pending, at most one each *)
}

type emulation = {
  mutable vector : (Abi.Envelope.t -> Abi.Value.res) option array;
      (* The one handler table: the trap stub reads slot [n] once, and
         [None] sends the call straight to the kernel. *)
  mutable shared : bool;
      (* [vector] may be another process's too (fork shares it), so its
         writer copies it first *)
  mutable sig_emul : (int -> unit) option;
}

module Kids = Map.Make (Int)

type t = {
  pid : int;
  mutable ppid : int;
  mutable kids : t Kids.t;
      (* the unreaped processes whose [ppid] is [pid], keyed by pid;
         [Kstate] keeps it in step with [ppid] *)
  mutable pgrp : int;
  mutable name : string;
  mutable cred : Vfs.Fs.cred;
  mutable cwd : int;
  mutable umask : int;
  mutable fds : File.fd_entry option array;
  sigs : sigstate;
  mutable emul : emulation;
  mutable state : state;
  me : t option;
      (* [Some] of this process, built once: the run-queue entry and
         the shard's [cur] while it runs *)
  mutable start : (unit -> int) option;
  mutable fibre : fibre;
  mutable res : Abi.Value.res;
  mutable deliver : int list;
  mutable exit_status : int;
  mutable forked_by : Obs.origin option;
  mutable utime_us : int;
  mutable stime_us : int;
  env_pool : Abi.Envelope.Pool.t option;
      (* Always [Some] in practice; option-typed so the trap stub can
         pass it to [Envelope.at_boundary ?pool] without wrapping a
         fresh [Some] on every trap. *)
  mutable serving : Abi.Envelope.t;
      (* the envelope the innermost symbolic dispatch on this
         process's stack is serving; [Envelope.none] outside one *)
}

let fd_table_size = 64

let fresh_emulation () =
  { vector = Array.make (Abi.Call.max_sysno + 1) None; shared = false;
    sig_emul = None }

let fresh_sigstate () =
  { handlers = Array.make (Abi.Signal.max_signal + 1) Abi.Value.H_default;
    mask = 0;
    pending = 0;
    senders = [] }

let create ~pid ~ppid ~pgrp ~name ~cred ~cwd =
  let rec p =
    { pid; ppid; kids = Kids.empty; pgrp; name; cred; cwd;
      umask = 0o022;
      fds = Array.make fd_table_size None;
      sigs = fresh_sigstate ();
      emul = fresh_emulation ();
      state = Runnable;
      me = Some p;
      start = None;
      fibre = no_fibre;
      res = Abi.Value.ok;
      deliver = [];
      exit_status = 0;
      forked_by = None;
      utime_us = 0;
      stime_us = 0;
      env_pool = Some (Abi.Envelope.Pool.create ());
      serving = Abi.Envelope.none }
  in
  p

let fork_copy t ~pid ~name =
  (* parent and child share the vector until one of them writes it *)
  t.emul.shared <- true;
  let fds = Array.map
      (Option.map (fun (e : File.fd_entry) ->
         { File.file = e.file; cloexec = e.cloexec }))
      t.fds
  in
  let rec p =
    { pid;
      ppid = t.pid;
      kids = Kids.empty;
      pgrp = t.pgrp;
      name;
      cred = t.cred;
      cwd = t.cwd;
      umask = t.umask;
      fds;
      sigs = { handlers = Array.copy t.sigs.handlers;
               mask = t.sigs.mask;
               pending = 0;
               senders = [] };
      emul = { vector = t.emul.vector; shared = true;
               sig_emul = t.emul.sig_emul };
      state = Runnable;
      me = Some p;
      start = None;
      fibre = no_fibre;
      res = Abi.Value.ok;
      deliver = [];
      exit_status = 0;
      forked_by = None;
      utime_us = 0;
      stime_us = 0;
      (* The pool is a cache, not address-space state: the child starts
         with an empty one rather than stealing the parent's records. *)
      env_pool = Some (Abi.Envelope.Pool.create ());
      (* the child's fibre starts outside any dispatch *)
      serving = Abi.Envelope.none }
  in
  p

let fd t n =
  if n >= 0 && n < Array.length t.fds then t.fds.(n) else None

let alloc_fd ?(from = 0) t =
  let rec go i =
    if i >= Array.length t.fds then None
    else if t.fds.(i) = None then Some i
    else go (i + 1)
  in
  go (max 0 from)

let handler t s =
  if Abi.Signal.is_valid s then t.sigs.handlers.(s) else Abi.Value.H_default

let set_handler t s h =
  if Abi.Signal.is_valid s then t.sigs.handlers.(s) <- h

let set_sender t s origin =
  let rest = List.remove_assoc s t.sigs.senders in
  t.sigs.senders <-
    (match origin with Some o -> (s, o) :: rest | None -> rest)

let take_sender t s =
  match List.assoc_opt s t.sigs.senders with
  | None -> None
  | Some _ as sender ->
    t.sigs.senders <- List.remove_assoc s t.sigs.senders;
    sender
