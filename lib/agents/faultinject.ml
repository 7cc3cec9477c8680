open Abi

(* --- deterministic injection plans ------------------------------------- *)

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

(* --- rate-based configuration (the original coin-flip mode) ------------ *)

type config = {
  seed : int;
  failure_rate : float;
  errno : Errno.t;
  candidates : int list;
}

let default_config = {
  seed = 1;
  failure_rate = 0.1;
  errno = Errno.EIO;
  candidates = [ Sysno.sys_read; Sysno.sys_write; Sysno.sys_open ];
}

(* --- shared injection machinery ---------------------------------------- *)

let candidate_set nums =
  let b = Bitset.create (Call.max_sysno + 1) in
  List.iter (Bitset.set b) nums;
  b

let note_obs env num what =
  if Obs.enabled () then begin
    Obs.note_injected ();
    Obs.record_mark ~span:(Envelope.span env) ~kind:"inject"
      ~detail:(Printf.sprintf "%s:%s" (Call.name num) what) ()
  end

(* Deliver an injected error.  Two invariants live here:

   - An injected failure is not free: the victim still crossed into the
     agent and back, so the path charges the interception cost even
     though the call never reaches the kernel (otherwise a faulted read
     is *cheaper* than a successful one and faulted-vs-clean virtual
     time comparisons are skewed).

   - Injected EINTR obeys the kernel's restart policy
     ([Kernel.Syscalls.restartable]): for a call the scheduler would
     transparently re-issue, the injected interruption becomes an
     invisible restart — the call is passed down and the application
     never sees a blind EINTR.  Only the sleepus-class calls surface
     it, exactly as a real interruption would. *)
let deliver ~down ~count ~restart env num errno =
  Toolkit.Boilerplate.charge Cost_model.intercept_us;
  if errno = Errno.EINTR && Kernel.Syscalls.restartable ~errno num then begin
    restart ();
    note_obs env num "EINTR-restart";
    down ()
  end
  else begin
    count ();
    note_obs env num (Errno.name errno);
    Error errno
  end

(* --- the rate-based agent ---------------------------------------------- *)

class agent (config : config) =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val rng = Sim.Rng.create config.seed

    (* one truth source: interest registration and the hot per-trap
       decision both read this set, so they cannot diverge and
       duplicate candidate entries are absorbed *)
    val candidates = candidate_set config.candidates

    val counts : (int, int) Hashtbl.t = Hashtbl.create 8
    val mutable restarted = 0

    method! agent_name = "faultinject"

    (* every candidate call may surface the configured errno *)
    method! declared_delta =
      if config.failure_rate <= 0.0 then Delta.none
      else
        [ Delta.May_fail
            { sysnos = Bitset.to_list candidates; errnos = [ config.errno ] } ]

    method injected =
      Hashtbl.fold (fun num n acc -> (num, n) :: acc) counts []
      |> List.sort compare

    method total_injected =
      Hashtbl.fold (fun _ n acc -> acc + n) counts 0

    method restarted = restarted

    method! init _argv = Bitset.iter self#register_interest candidates

    method! syscall env =
      let num = Envelope.number env in
      if
        Bitset.mem candidates num
        && config.failure_rate > 0.0
        && float_of_int (Sim.Rng.int rng 1_000_000)
           < config.failure_rate *. 1e6
      then
        deliver env num config.errno
          ~down:(fun () -> super#syscall env)
          ~count:(fun () ->
            Hashtbl.replace counts num
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts num)))
          ~restart:(fun () -> restarted <- restarted + 1)
      else super#syscall env
  end

let create config = new agent config

(* --- the plan-driven agent ---------------------------------------------- *)

class planned ~(plan : site list) =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val sites = Array.of_list plan
    val matched = Array.make (max 1 (List.length plan)) 0
    val candidates = candidate_set (List.map (fun s -> s.s_num) plan)

    val counts : (int, int) Hashtbl.t = Hashtbl.create 8
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
        (Array.to_list sites)

    method plan = Array.to_list sites

    method injected =
      Hashtbl.fold (fun num n acc -> (num, n) :: acc) counts []
      |> List.sort compare

    method total_injected =
      Hashtbl.fold (fun _ n acc -> acc + n) counts 0

    method restarted = restarted
    method delayed = delayed

    method matches =
      Array.to_list (Array.mapi (fun i n -> (i, n)) matched)

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
          deliver env num errno
            ~down:(fun () -> super#syscall env)
            ~count:(fun () ->
              Hashtbl.replace counts num
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts num)))
            ~restart:(fun () -> restarted <- restarted + 1)
        | Some (Delay us) ->
          delayed <- delayed + 1;
          Toolkit.Boilerplate.charge (max Cost_model.intercept_us us);
          note_obs env num (Printf.sprintf "delay:%d" us);
          super#syscall env
      end
  end

let create_planned plan = new planned ~plan
