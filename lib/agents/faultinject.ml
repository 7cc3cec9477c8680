open Abi

type action =
  | Fail of Errno.t
  | Delay of int

type site = {
  s_pid : int;
  s_num : int;
  s_kth : int;
  s_action : action;
}

let site ?(pid = 0) ?(kth = 0) num action =
  { s_pid = pid; s_num = num; s_kth = kth; s_action = action }

let note_obs env num what =
  if Obs.enabled () then begin
    Obs.note_injected ();
    Obs.record_mark ~span:(Envelope.span env) ~kind:"inject"
      ~detail:(Printf.sprintf "%s:%s" (Call.name num) what) ()
  end

class agent ~(plan : site list) =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val sites = Array.of_list plan
    val matched = Array.make (List.length plan) 0

    (* one truth source: interest registration and the hot per-trap
       test both read this set, so they cannot diverge and sites that
       repeat a call are absorbed *)
    val candidates =
      let b = Bitset.create (Call.max_sysno + 1) in
      List.iter (fun s -> Bitset.set b s.s_num) plan;
      b

    val mutable injected = 0
    val mutable restarted = 0
    val mutable delayed = 0

    method! agent_name = "faultinject"

    (* the plan, restated as a declaration: Fail sites may flip the
       matched call's outcome to their errno (an injected EINTR the
       restart policy absorbs stays invisible and needs no mask),
       Delay sites only add virtual latency *)
    method! declared_delta =
      List.concat_map
        (fun s ->
          match s.s_action with
          | Fail e ->
            [ Delta.May_fail { sysnos = [ s.s_num ]; errnos = [ e ] } ]
          | Delay _ -> [ Delta.May_delay [ s.s_num ] ])
        plan

    method total_injected = injected
    method restarted = restarted
    method delayed = delayed

    method! init _argv = Bitset.iter self#register_interest candidates

    method! syscall env =
      let num = Envelope.number env in
      if not (Bitset.mem candidates num) then super#syscall env
      else begin
        let pid = (Kernel.Uspace.self ()).Kernel.Proc.pid in
        (* every matching site advances its ordinal, whether or not it
           fires — the k-th-call bookkeeping must not depend on which
           other sites exist.  The first site (in plan order) whose
           ordinal reaches its k wins the trap. *)
        let action = ref None in
        Array.iteri
          (fun i s ->
            if s.s_num = num && (s.s_pid = 0 || s.s_pid = pid) then begin
              matched.(i) <- matched.(i) + 1;
              if !action = None && (s.s_kth = 0 || matched.(i) = s.s_kth)
              then action := Some s.s_action
            end)
          sites;
        match !action with
        | None -> super#syscall env
        | Some (Fail errno) ->
          (* An injected failure is not free: the victim still crossed
             into the agent and back, so it is charged the interception
             cost even though the call never reaches the kernel
             (otherwise a faulted read is cheaper than a successful
             one).  An injected EINTR obeys the kernel's restart policy
             ([Kernel.Syscalls.restartable]): on a call the scheduler
             would transparently re-issue it becomes an invisible
             restart and the call passes down; only the sleepus-class
             calls surface it, as a real interruption would. *)
          Toolkit.Boilerplate.charge Cost_model.intercept_us;
          if errno = Errno.EINTR && Kernel.Syscalls.restartable ~errno num
          then begin
            restarted <- restarted + 1;
            note_obs env num "EINTR-restart";
            super#syscall env
          end
          else begin
            injected <- injected + 1;
            note_obs env num (Errno.name errno);
            Error errno
          end
        | Some (Delay us) ->
          delayed <- delayed + 1;
          Toolkit.Boilerplate.charge (max Cost_model.intercept_us us);
          note_obs env num (Printf.sprintf "delay:%d" us);
          super#syscall env
      end
  end

let create plan = new agent ~plan
