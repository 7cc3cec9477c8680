open Abi

let self () = Proc.Cur.get_exn ()

(* One definition of signal dispatch, shared by the trap exit path here
   and by the toolkit's [Downlink.down_signal] chain. *)
let deliver_app (proc : Proc.t) s =
  (* one instant mark per signal that reaches the application, whatever
     its disposition — chrome export renders these as instants *)
  if Obs.enabled () then begin
    let span = Obs.current () in
    Obs.record_mark ~span ~pid:proc.Proc.pid ~kind:"signal"
      ~detail:(Signal.name s) ();
    (* completes the sender's pending half-edge when this delivery was
       kill-originated (DESIGN.md §3.9); no-op otherwise *)
    Obs.causal_signal_delivered ~pid:proc.Proc.pid ~signal:s ~span
      ~detail:(Signal.name s)
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
let serve_inline ?via t (proc : Proc.t) env =
  let cur = Proc.Cur.get () in
  Proc.Cur.set None;
  (match Kstate.pending_terminal proc with
   | `Kill (s, status) ->
     Kstate.exit_by_signal t proc s status;
     raise Events.Process_killed
   | `Stop _ | `None -> ());
  match Syscalls.serve ?via t proc env with
  | outcome ->
    Proc.Cur.set cur;
    outcome
  | exception e ->
    Proc.Cur.set cur;
    raise e

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
    (match Effect.perform (Kstate.Settle (env, outcome)) with
     | reply ->
       leave_layer fr;
       deliver proc reply.deliver;
       reply.res
     | exception e ->
       leave_layer fr;
       raise e)
  | exception e ->
    leave_layer fr;
    raise e

(* nothing interposed: the kernel is the only layer below us *)
let to_kernel proc env = enter_kernel ~via:Events.App proc env

(* The fused-chain jump target for slots with no handler installed:
   Proc sits below this module, so it reaches [to_kernel] through a
   forward reference filled exactly once, here. *)
let () = Proc.chain_kernel_entry := fun env -> to_kernel (self ()) env

(* Whether the current shard dispatches through the fused chains.
   Read per trap from the ambient shard handle — the flag lives on
   [Kstate.t], so flipping it at run time (bench A/B, future hot-swap
   quiesce points) needs no global. *)
let fused_dispatch () =
  match !Kstate.Ambient.current with
  | Some t -> t.Kstate.fused_dispatch
  | None -> false

(* Charge [us] of virtual CPU time to [proc] and collect any signals
   that became deliverable, preferably without performing an effect.

   The [Events.Cpu] perform captures the whole fibre continuation and
   round-trips through the run queue — by far the dominant *host* cost
   of an interested trap (one perform per agent dispatch layer).  In
   fused mode we replicate the scheduler's Cpu handler inline when, and
   only when, doing so is observationally identical:

   - no signal is pending, so [collect_deliverable] would return []
     and [pending_terminal] would decide `None — nothing to deliver,
     nobody to kill or stop;
   - the run queue is empty, so the generic path would re-enqueue this
     continuation and pop it right back — no other fibre's turn is
     being stolen;
   - no timer is due at or before [now + us], so the scheduling point
     the perform would create cannot fire one.

   Every guard is a deterministic function of simulation state, so a
   fused run makes exactly the same scheduling decisions every time
   (and the same decisions a generic run makes — the conformance gate
   checks the syscall signatures are byte-identical). *)
let cpu_charge (proc : Proc.t) us : int list =
  match !Kstate.Ambient.current with
  | Some t
    when t.Kstate.fused_dispatch
         && Kstate.uncontended t proc
              ~until:(Sim.Clock.now_us t.Kstate.clock + us) ->
    proc.utime_us <- proc.utime_us + us;
    Kstate.charge t us;
    []
  | _ -> Effect.perform (Events.Cpu us)

let trap_raw (env : Envelope.t) : Value.res =
  let proc = self () in
  proc.syscall_count <- proc.syscall_count + 1;
  let num = Envelope.number env in
  if not (Bitset.mem proc.emul.bitmap num) then begin
    (* Fast path: one bit test says no handler is interposed for this
       number — the option vector is never probed. *)
    Envelope.Stats.note_trap_fast ();
    to_kernel proc env
  end
  else if fused_dispatch () then begin
    (* Fused path: the chain slot *is* the installed handler (the
       bitmap/chain invariant guarantees a set bit is in range and
       pre-linked), so there is no vector probe and no option match —
       [fused] grows while [intercepted] stays zero, the measured proof
       that the generic machinery is bypassed. *)
    Envelope.Stats.note_trap_chained ();
    (match cpu_charge proc Cost_model.intercept_us with
     | [] -> ()
     | sigs -> deliver proc sigs);
    proc.emul.chain.(num) env
  end
  else begin
    (* The bit is only ever set for in-range numbers with a handler
       installed (the bitmap/vector invariant), but stay defensive. *)
    let handler = proc.emul.vector.(num) in
    Envelope.Stats.note_trap ~intercepted:(Option.is_some handler);
    match handler with
    | Some h ->
      let sigs = Effect.perform (Events.Cpu Cost_model.intercept_us) in
      deliver proc sigs;
      h env
    | None -> to_kernel proc env
  end

(* Open a span around one trap.  The envelope is built *inside* the
   span (the [mk_env] thunk) so that a boundary encode — and any other
   codec work at construction — attributes to the "uspace" frame rather
   than vanishing.  Observation itself charges no virtual time. *)
let instrumented ~sysno mk_env =
  let proc = self () in
  let span = Obs.span_begin ~pid:proc.pid ~sysno in
  let fr = Obs.layer_enter ~span "uspace" in
  let finish ~error =
    (match fr with Some fr -> Obs.layer_exit fr | None -> ());
    Obs.span_end span ~error
  in
  let made = ref None in
  let sev = ref None in
  match
    let env = mk_env () in
    made := Some env;
    Envelope.set_span env span;
    (* The signature tap piggybacks on the span stream: one event per
       application-issued trap, shape computed only while capture is on
       (and without marking the wire exposed — [Envelope.shape]).
       Independent of the sampler, so signature counts stay exact at
       any 1-in-N rate.  A trap that never returns here (exit, exec)
       keeps its pending outcome. *)
    if Obs.sig_capturing () then
      sev := Some (Obs.sig_note ~pid:proc.pid ~sysno (Envelope.shape env));
    trap_raw env
  with
  | res ->
    (* Normal completion only: on an exception the wire may still be
       referenced by whoever threw, so it is left to the GC. *)
    (match !made with Some env -> Envelope.release env | None -> ());
    (match !sev with
     | Some ev ->
       Obs.sig_done ev
         ~errno:(match res with Ok _ -> 0 | Error e -> Errno.to_int e)
     | None -> ());
    finish ~error:(Result.is_error res);
    res
  | exception e ->
    finish ~error:true;
    raise e

let trap (env : Envelope.t) : Value.res =
  (* re-entrant traps (an envelope already inside a span) and the
     tracing-off fast path skip straight to the raw trap *)
  if (not (Obs.enabled ())) || Envelope.span env <> 0 then trap_raw env
  else instrumented ~sysno:(Envelope.number env) (fun () -> env)

let trap_wire w =
  if not (Obs.enabled ()) then trap_raw (Envelope.of_wire w)
  else instrumented ~sysno:w.Value.num (fun () -> Envelope.of_wire w)

(* the application/system boundary is untyped: encode here, and let the
   first interested layer below (agent or kernel) do the one decode;
   both the wire record and the envelope record around it come from
   (and, when still exclusively owned, return to) the calling
   process's pools *)
let syscall c =
  let proc = self () in
  let pool = proc.Proc.wire_pool in
  let epool = proc.Proc.env_pool in
  if not (Obs.enabled ()) then begin
    let env = Envelope.at_boundary ?pool ?epool c in
    let res = trap_raw env in
    Envelope.release env;
    res
  end
  else
    instrumented ~sysno:(Call.number c) (fun () ->
        Envelope.at_boundary ?pool ?epool c)

let htg_trap env = enter_kernel ~via:Events.Htg (self ()) env

let htg_unix_syscall w = htg_trap (Envelope.of_wire w)

(* agent-originated: the typed view rides the envelope down, never
   paying an encode unless some layer demands the wire form; the
   record is pooled like any boundary envelope (an exit/exec that
   never returns simply leaks its record to the GC) *)
let htg_syscall c =
  let proc = self () in
  let env = Envelope.of_call ?epool:proc.Proc.env_pool c in
  let res = htg_trap env in
  Envelope.release env;
  res

let cpu_work us =
  if us > 0 then begin
    let proc = self () in
    match cpu_charge proc us with
    | [] -> ()
    | sigs -> deliver proc sigs
  end

let task_set_emulation ~numbers handler =
  Effect.perform (Events.Set_emulation (numbers, handler))

let task_get_emulation n = Effect.perform (Events.Get_emulation n)

let task_set_emulation_signal h =
  Effect.perform (Events.Set_emulation_signal h)

let task_get_emulation_signal () =
  Effect.perform Events.Get_emulation_signal

let exec_load spec =
  Effect.perform (Events.Exec_load spec);
  assert false
