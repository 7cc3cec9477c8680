open Abi

type t = {
  prev : (Envelope.t -> Value.res) option array;
      (* the handlers captured below this agent, one slot per number;
         [None] means the kernel is next *)
  mutable prev_sig : (int -> unit) option;
}

let create () =
  { prev = Array.make (Call.max_sysno + 1) None; prev_sig = None }

let capture t ~numbers =
  List.iter
    (fun n ->
      if n >= 0 && n < Array.length t.prev then
        t.prev.(n) <- Kernel.Uspace.task_get_emulation n)
    numbers;
  t.prev_sig <- Kernel.Uspace.task_get_emulation_signal ()

let captured_handler t n =
  if n >= 0 && n < Array.length t.prev then t.prev.(n) else None

let captured_signal t = t.prev_sig

let lower handler env =
  match handler with
  | Some h -> h env
  | None -> Kernel.Uspace.htg_trap env

(* One slot read per crossing.  Tracing-off runs also skip the
   layer-frame closure — [in_layer] with span <= 0 is the identity, so
   eliding it is exact. *)
let down t (env : Envelope.t) =
  Obs.note_crossing ();
  let handler = captured_handler t (Envelope.number env) in
  let span = Envelope.span env in
  if span <= 0 then lower handler env
  else Obs.in_layer ~span "downlink" (fun () -> lower handler env)

(* agent-originated calls ride a pooled envelope: taken from the
   calling process's pool, released as soon as the lower layers return
   (an agent that stashes it must [Envelope.retain] it) *)
let down_call t c =
  Obs.note_agent_call ();
  let pool =
    match Kernel.Uspace.current_proc () with
    | Some proc -> proc.Kernel.Proc.env_pool
    | None -> None
  in
  let env = Envelope.of_call ?pool c in
  let res = down t env in
  Envelope.release env;
  res

(* A pass-through: the call [mk] would build from these arguments is
   the one the process's innermost dispatch is serving, built from the
   same arguments, so its envelope goes down as it came — no call, no
   record, and no [agent_calls] count, for the call is not the agent's
   own.  The owner of [serving] still releases it.  A nullary call is
   known by its number as well: every record without a typed view
   holds a nullary call, [Envelope.none] included, whose number 0 is no
   call's. *)
let pass0 t c =
  let env = (Kernel.Uspace.self ()).serving in
  if Envelope.held env == c && Envelope.number env = Call.number c then
    down t env
  else down_call t c

let pass1 t n mk a =
  let env = (Kernel.Uspace.self ()).serving in
  if Call.same1 (Envelope.held env) n a then down t env
  else down_call t (mk a)

let pass2 t n mk a b =
  let env = (Kernel.Uspace.self ()).serving in
  if Call.same2 (Envelope.held env) n a b then down t env
  else down_call t (mk a b)

let pass3 t n mk a b c =
  let env = (Kernel.Uspace.self ()).serving in
  if Call.same3 (Envelope.held env) n a b c then down t env
  else down_call t (mk a b c)

let down_signal t s = Kernel.Uspace.deliver_via t.prev_sig s
