open Abi

(* The running process is a field of the current shard: reading it is
   two loads, and allocates nothing. *)
let current_proc () =
  match !Kstate.Ambient.current with Some t -> t.Kstate.cur | None -> None

let self () =
  match current_proc () with
  | Some p -> p
  | None -> failwith "no current process (called outside a simulation?)"

(* One definition of signal dispatch, shared by the trap exit path here
   and by the toolkit's [Downlink.down_signal] chain. *)
let deliver_app (proc : Proc.t) s =
  let sender = Proc.take_sender proc s in
  (* one instant mark per signal that reaches the application, whatever
     its disposition — chrome export renders these as instants *)
  if Obs.enabled () then begin
    let span = Obs.current () in
    Obs.record_mark ~span ~pid:proc.Proc.pid ~kind:"signal"
      ~detail:(Signal.name s) ();
    (* a kill-originated delivery completes its signal edge (DESIGN.md
       §3.9) *)
    match sender with
    | Some origin ->
      Obs.causal_edge Obs.Causal.Signal ~origin ~span ~pid:proc.Proc.pid
        ~detail:(Signal.name s)
    | None -> ()
  end;
  match Proc.handler proc s with
  | Value.H_fn f -> f s
  | Value.H_default | Value.H_ignore -> ()

let deliver_via interposer s =
  match interposer with
  | Some f -> f s
  | None -> deliver_app (self ()) s

let deliver_one (proc : Proc.t) s =
  match proc.emul.sig_emul with
  | Some interposer -> interposer s
  | None -> deliver_app proc s

let deliver proc sigs = List.iter (deliver_one proc) sigs

let leave_layer = function Some fr -> Obs.layer_exit fr | None -> ()

(* A trap's kernel work, on the calling fibre.  Kernel code sees no
   current process, exactly as it did on the scheduler stack; the
   caller's is restored afterwards, even when dispatch raises.  A
   terminal signal left pending since the last trap boundary takes
   effect first: the process exits and its fibre unwinds from here, as
   it would have on being discontinued by the scheduler. *)
let serve_inline ?via (t : Kstate.t) (proc : Proc.t) env =
  let cur = t.cur in
  t.cur <- None;
  (match Kstate.pending_terminal proc with
   | `Kill (s, status) ->
     Kstate.exit_by_signal t proc s status;
     raise Events.Process_killed
   | `Stop _ | `None -> ());
  match Syscalls.serve ?via t proc env with
  | outcome ->
    t.cur <- cur;
    outcome
  | exception e ->
    t.cur <- cur;
    raise e

(* Yield a trap to the scheduler.  Only an exec's effect carries a
   payload (it is the exec-load primitive's): a result rides in the
   process's [res], a block in its [Parked] state, and the answer is in
   [res] and [deliver] when the scheduler resumes us.  A parked call
   woken with [Proc.restart] is served again, its entry cost already
   paid, and its new outcome yields in turn (BSD restart). *)
let rec yield_trap t (proc : Proc.t) env (outcome : Kstate.outcome) =
  match outcome with
  | Kstate.Done res ->
    proc.res <- res;
    Effect.perform Kstate.Reply
  | Kstate.Block cond ->
    proc.state <- Proc.Parked cond;
    Effect.perform Kstate.Park;
    if proc.res == Proc.restart then
      yield_trap t proc env (serve_inline t proc env)
  | Kstate.Exited -> Effect.perform Kstate.Abandon
  | Kstate.Exec spec -> Effect.perform (Events.Exec_load spec)

(* Direct kernel entry (DESIGN.md §3.8).  The scheduler resumes a
   settled reply only after due timers, pending signals and the fibres
   queued ahead of it; with none of those, resuming is its very next
   step, so the trap returns its result on the spot.  Any other outcome
   settles through the scheduler: queued behind the other fibres,
   parked, abandoned or replaced. *)
let enter_kernel ?via (proc : Proc.t) (env : Envelope.t) : Value.res =
  let t = Kstate.Ambient.get_exn () in
  (* an unsampled trap opens no frame *)
  let fr = Obs.layer_enter ~span:(Envelope.span env) "kernel" in
  match serve_inline ?via t proc env with
  | Kstate.Done res
    when Kstate.uncontended t proc ~until:(Sim.Clock.now_us t.Kstate.clock)
    ->
    leave_layer fr;
    res
  | outcome ->
    (match yield_trap t proc env outcome with
     | () ->
       leave_layer fr;
       (* read before any handler can trap again *)
       let res = proc.res in
       deliver proc proc.deliver;
       res
     | exception e ->
       leave_layer fr;
       raise e)
  | exception e ->
    leave_layer fr;
    raise e

(* nothing interposed: the kernel is the only layer below us *)
let to_kernel proc env = enter_kernel ~via:Events.App proc env

(* Charge [us] of virtual CPU time to [proc] and collect any signals
   that became deliverable, preferably without yielding.

   A charge is a scheduling point: the [Events.Cpu] yield, which costs
   a continuation and a run-queue turn (one per agent dispatch layer).
   The charge itself is made here either way; the yield is skipped
   when, and only when, skipping it is observationally identical:

   - no signal is pending, so [collect_deliverable] would return []
     and [pending_terminal] would decide `None — nothing to deliver,
     nobody to kill or stop;
   - the run queue is empty, so the yield would queue this process
     and take it right back — no other fibre's turn is being stolen;
   - no timer is due at or before [now + us], so the scheduling point
     the yield would create cannot fire one.

   Every guard is a deterministic function of simulation state, so a
   run makes exactly the same scheduling decisions every time. *)
let cpu_charge (proc : Proc.t) us : int list =
  let t = Kstate.Ambient.get_exn () in
  let contended =
    not
      (Kstate.uncontended t proc ~until:(Sim.Clock.now_us t.Kstate.clock + us))
  in
  proc.utime_us <- proc.utime_us + us;
  Kstate.charge t us;
  if contended then begin
    Effect.perform Events.Cpu;
    proc.deliver
  end
  else []

(* One range-checked read of the process's handler table decides the
   trap: an empty slot (or a number outside the table) goes straight to
   the kernel, which answers unknown numbers with ENOSYS; an installed
   handler pays the interception charge and runs. *)
let vector_trap (proc : Proc.t) (env : Envelope.t) : Value.res =
  let num = Envelope.number env in
  let vector = proc.emul.vector in
  let handler =
    if num >= 0 && num < Array.length vector then vector.(num) else None
  in
  match handler with
  | None ->
    Obs.note_trap_fast ();
    to_kernel proc env
  | Some h ->
    Obs.note_trap_intercepted ();
    (match cpu_charge proc Cost_model.intercept_us with
     | [] -> ()
     | sigs -> deliver proc sigs);
    h env

(* An application-issued trap, with observation on or off: the one
   place the shard's signature recorder is fed (DESIGN.md §3.7).  The
   event is issued before dispatch, so a call made by a signal handler
   inside this one comes after it, and gets its outcome when the trap
   returns; exit and a successful execve never return and stay
   [Noreturn].  Agent-originated calls take the htg entry points and
   never come here. *)
let trap_raw (proc : Proc.t) (env : Envelope.t) : Value.res =
  match (Kstate.Ambient.get_exn ()).signature with
  | None -> vector_trap proc env
  | Some r ->
    let ev = Signature.issue r ~pid:proc.pid env in
    let res = vector_trap proc env in
    Signature.returned ev res;
    res

(* The trap proper, inside its span. *)
let in_span (proc : Proc.t) span (env : Envelope.t) =
  Envelope.set_span env span;
  let res = trap_raw proc env in
  (* Normal completion only: on an exception the wire may still be
     referenced by whoever threw, so it is left to the GC. *)
  Envelope.release env;
  res

(* Open a span around one trap.  The envelope is built *inside* the
   span ([build proc arg]) so that a boundary encode — and any other
   codec work at construction — attributes to the "uspace" frame rather
   than vanishing.  Every [build] is a closed function, so an
   instrumented trap allocates no closure, ref or thunk of its own.
   Observation itself charges no virtual time. *)
let instrumented (proc : Proc.t) ~sysno build arg =
  let span = Obs.span_begin ~pid:proc.pid ~sysno in
  (* a fork child's first trap takes its fork origin, and completes
     the edge only if the trap is sampled: no edge goes into an
     unsampled trap *)
  (match proc.forked_by with
   | Some origin ->
     proc.forked_by <- None;
     Obs.causal_edge Obs.Causal.Fork ~origin ~span ~pid:proc.pid ~detail:""
   | None -> ());
  let fr = Obs.layer_enter ~span "uspace" in
  match in_span proc span (build proc arg) with
  | res ->
    leave_layer fr;
    Obs.span_end span ~error:(Result.is_error res);
    res
  | exception (Events.Process_killed as e) ->
    (* the process exited or exec'd: a sampled span was aborted with
       it, and an unsampled one counts no error either *)
    leave_layer fr;
    raise e
  | exception e ->
    leave_layer fr;
    Obs.span_end span ~error:true;
    raise e

let trap_wire w =
  let proc = self () in
  if not (Obs.enabled ()) then trap_raw proc (Envelope.of_wire w)
  else instrumented proc ~sysno:w.Value.num (fun _ w -> Envelope.of_wire w) w

(* the application/system boundary is untyped: the encode is counted
   here, and the first interested layer below (agent or kernel) counts
   the one decode; the envelope record comes from (and, when still
   exclusively owned, returns to) the calling process's pool *)
let at_boundary (proc : Proc.t) c = Envelope.at_boundary ?pool:proc.env_pool c

let syscall c =
  let proc = self () in
  if not (Obs.enabled ()) then begin
    let env = at_boundary proc c in
    let res = trap_raw proc env in
    Envelope.release env;
    res
  end
  else instrumented proc ~sysno:(Call.number c) at_boundary c

let htg_trap env = enter_kernel ~via:Events.Htg (self ()) env

(* agent-originated: the typed view rides the envelope down, never
   paying an encode unless some layer demands the wire form; the
   record is pooled like any boundary envelope (an exit/exec that
   never returns simply leaks its record to the GC) *)
let htg_syscall c =
  let env = Envelope.of_call ?pool:(self ()).Proc.env_pool c in
  let res = htg_trap env in
  Envelope.release env;
  res

(* A whole-file read's 4 KB chunk, borrowed from the current shard's
   pool for one call (DESIGN.md §3.8). *)
let take_chunk () = Kstate.take_chunk (Kstate.Ambient.get_exn ())
let give_chunk b = Kstate.give_chunk (Kstate.Ambient.get_exn ()) b

let cpu_work us =
  if us > 0 then begin
    let proc = self () in
    match cpu_charge proc us with
    | [] -> ()
    | sigs -> deliver proc sigs
  end

(* The Mach emulation primitives act on the caller's own tables, which
   no other process can reach, and then yield.  A vector fork left
   shared is copied before its first write, so the write stays the
   caller's own. *)
let task_set_emulation ~numbers handler =
  let emul = (self ()).emul in
  if emul.shared then begin
    emul.vector <- Array.copy emul.vector;
    emul.shared <- false
  end;
  let vector = emul.vector in
  List.iter
    (fun n -> if n >= 0 && n < Array.length vector then vector.(n) <- handler)
    numbers;
  Effect.perform Events.Yield

let task_get_emulation n =
  let vector = (self ()).emul.vector in
  let h = if n >= 0 && n < Array.length vector then vector.(n) else None in
  Effect.perform Events.Yield;
  h

let task_set_emulation_signal h =
  (self ()).emul.sig_emul <- h;
  Effect.perform Events.Yield

let task_get_emulation_signal () =
  let h = (self ()).emul.sig_emul in
  Effect.perform Events.Yield;
  h

let exec_load spec =
  Effect.perform (Events.Exec_load spec);
  assert false
