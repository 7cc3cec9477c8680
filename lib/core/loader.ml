open Abi

let minimum_interests =
  [ Sysno.sys_fork; Sysno.sys_execve; Sysno.sys_exit ]

let effective_interests (agent : #Numeric.numeric_syscall) =
  List.sort_uniq compare (minimum_interests @ agent#interests)

let install (agent : #Numeric.numeric_syscall) ~argv =
  (* capture the whole current vector: the agent may route any call
     down, not only the ones it intercepts *)
  Downlink.capture agent#downlink ~numbers:Call.all;
  (* initialise first: init both declares the agent's interests and may
     make system calls of its own, which must reach the level below *)
  agent#init argv;
  (* one observability frame per installed agent, named after it, so
     the flight recorder attributes dispatch time (numeric or symbolic,
     including any decode the agent triggers) to this stack level *)
  let name = agent#agent_name in
  Kernel.Uspace.task_set_emulation
    ~numbers:(effective_interests agent)
    (Some
       (fun env ->
         (* span <= 0 means tracing is off for this trap, and [in_layer]
            is then the identity — skip its closure so dispatch costs
            one call per level on the hot path *)
         let span = Abi.Envelope.span env in
         if span <= 0 then agent#syscall env
         else Obs.in_layer ~span name (fun () -> agent#syscall env)));
  Kernel.Uspace.task_set_emulation_signal
    (Some (fun s -> agent#signal_handler s))

let uninstall (agent : #Numeric.numeric_syscall) =
  (* restore per-number handlers from the downlink capture *)
  let dl = agent#downlink in
  List.iter
    (fun n ->
      Kernel.Uspace.task_set_emulation ~numbers:[ n ]
        (Downlink.captured_handler dl n))
    (effective_interests agent);
  Kernel.Uspace.task_set_emulation_signal (Downlink.captured_signal dl)

let run_under agent ?(argv = [||]) f =
  install agent ~argv;
  Fun.protect ~finally:(fun () -> uninstall agent) f

let exec_under agent ~path ~argv ?(envp = [||]) () =
  install agent ~argv:[||];
  match Boilerplate.do_execve agent#downlink path argv envp with
  | Error e ->
    ignore
      (Downlink.down_call agent#downlink
         (Call.Write
            (2, Printf.sprintf "agent loader: %s: %s\n" path
               (Errno.message e))));
    127
  | Ok _ -> assert false
