open Abi

module Signature = Signature (* [Abi.Signature], kept here by name *)
module Strace = Strace
module Agent_table = Agent_table

(* The differential transparency checker: run a workload bare, run it
   again under an agent stack, and require the two syscall signatures
   to agree once quotiented by the stack's own declared delta.  An
   agent may do anything it declared; anything residual is a
   machine-checked transparency violation, pinned to the first
   diverging call.

   Kernel preparation and boot are [Workloads.Table]'s: the
   conformance matrix sweeps the table's quick rows, the fault
   campaign's workloads, and a CLI-supplied program is just a row with
   a spawn body. *)

(* --- stacks -------------------------------------------------------------- *)

(* [sk_make] runs inside the booted init process, before the workload
   body: it may issue system calls (e.g. opening a trace sink), none
   of which enter the signature — capture starts only once the stack
   is installed.  The returned list is in install order, bottom-most
   agent first. *)
type stack = {
  sk_name : string;
  sk_make : unit -> Toolkit.Numeric.numeric_syscall list;
}

(* A stack of {!Agent_table} specs, parsed here, once. *)
let stack sk_name specs = { sk_name; sk_make = Agent_table.stack specs }

let bare = stack "bare" []

(* The trace stacks write to /dev/null (at the top of the descriptor
   table); a kernel without it aborts the session. *)
let trace = stack "trace" [ "trace:/dev/null" ]
let crypt = stack "crypt" [ "crypt" ]

(* a policy wide enough for any workload: sandbox transparency is the
   statement that an all-permitting policy leaves no trace *)
let sandbox = stack "sandbox" [ "sandbox:open" ]
let remap = stack "remap" [ "remap" ]
let timex = stack "timex" [ "timex" ]
let stacked = stack "stacked" [ "sandbox:open"; "crypt"; "trace:/dev/null" ]

(* an injector with an empty plan: the honest no-op — conformance of
   this stack is the statement that the injection machinery itself
   (site matching, restart bookkeeping) leaves no trace *)
let faultinject = stack "faultinject" [ "faultinject" ]

(* The seeded mutation: an injector that fails the second read with
   EIO but declares no delta at all.  Honest fault injectors restate
   their plan as a [May_fail] mask; this one lies by omission, and the
   checker must catch it. *)
class undeclared_fault =
  object
    inherit
      Agents.Faultinject.agent
        ~plan:
          [
            Agents.Faultinject.site ~kth:2 Sysno.sys_read
              (Agents.Faultinject.Fail Errno.EIO);
          ]

    method! agent_name = "mutant"
    method! declared_delta = Delta.none
  end

let mutant =
  {
    sk_name = "mutant";
    sk_make =
      (fun () -> [ (new undeclared_fault :> Toolkit.Numeric.numeric_syscall) ]);
  }

let stacks = [ trace; crypt; sandbox; faultinject; remap; timex; stacked ]
let all_stacks = (bare :: stacks) @ [ mutant ]

let stack_of_name name =
  List.find_opt (fun s -> s.sk_name = name) all_stacks

(* "trace,crypt" composes the named stacks' layers into one stack (in
   spec order, bottom-most first) *)
let of_spec spec =
  let names =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match List.find_opt (fun n -> stack_of_name n = None) names with
  | Some n ->
    Error
      (Printf.sprintf "unknown stack %S (known: %s)" n
         (String.concat ", " (List.map (fun s -> s.sk_name) all_stacks)))
  | None -> (
    match List.filter_map stack_of_name names with
    | [] -> Error "empty stack spec"
    | [ s ] -> Ok s
    | parts ->
      Ok
        {
          sk_name = spec;
          sk_make = (fun () -> List.concat_map (fun s -> s.sk_make ()) parts);
        })

(* --- capture -------------------------------------------------------------- *)

type capture = {
  cap_sig : Signature.t;
  cap_status : int;
  cap_delta : Delta.t;
}

(* One run, observation untouched: the shard records the signature
   itself.  The recorder is armed only once the stack is installed, so
   agent construction syscalls stay out of the signature. *)
let capture (w : Workloads.Table.workload) stack =
  let k = Workloads.Table.prepare w.w_setup in
  let delta = ref Delta.none in
  let sg = ref Signature.empty in
  let status =
    Kernel.boot k ~name:(w.w_name ^ "-conform") (fun () ->
      let agents = stack.sk_make () in
      List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) agents;
      delta := Delta.compose (List.map (fun a -> a#declared_delta) agents);
      let rc, s = Kernel.with_signature k w.w_body in
      sg := s;
      rc)
  in
  { cap_sig = !sg; cap_status = status; cap_delta = !delta }

(* --- the check ------------------------------------------------------------ *)

type verdict = {
  c_workload : string;
  c_stack : string;
  c_delta : Delta.t;
  c_bare_events : int;
  c_under_events : int;
  c_masked : int;
  c_bare_status : int;
  c_under_status : int;
  c_violation : Signature.divergence option;
}

let conforms v = v.c_violation = None

(* [scope] picks the comparison quotient: [`Global] demands the whole
   interleaved stream match (right for sequential workloads), while
   [`Per_process] compares each pid's stream in isolation — required
   for concurrent workloads like kvd, where an agent charging virtual
   time lawfully reshuffles the cross-process interleaving. *)
let check ?baseline ?(scope = `Global) (w : Workloads.Table.workload) stack =
  let b =
    match baseline with Some b -> b | None -> capture w bare
  in
  let u = capture w stack in
  (* normalize BOTH sides by the stack's declared delta: a May_fail
     mask collapses the corresponding bare outcomes too, otherwise a
     declared injection would still diverge *)
  let nb = Signature.normalize u.cap_delta b.cap_sig in
  let nu = Signature.normalize u.cap_delta u.cap_sig in
  {
    c_workload = w.w_name;
    c_stack = stack.sk_name;
    c_delta = u.cap_delta;
    c_bare_events = Signature.length b.cap_sig;
    c_under_events = Signature.length u.cap_sig;
    c_masked = Signature.masked nu;
    c_bare_status = b.cap_status;
    c_under_status = u.cap_status;
    c_violation =
      (match scope with
       | `Global -> Signature.diff ~bare:nb ~under:nu
       | `Per_process -> Signature.diff_processes ~bare:nb ~under:nu);
  }

let verdict_to_string v =
  match v.c_violation with
  | None ->
    Printf.sprintf "%s under %s: conformant (%d calls%s, delta %s)"
      v.c_workload v.c_stack v.c_under_events
      (if v.c_masked > 0 then Printf.sprintf ", %d masked" v.c_masked
       else "")
      (Delta.to_string v.c_delta)
  | Some d ->
    Printf.sprintf "%s under %s: VIOLATION\n%s" v.c_workload v.c_stack
      (Signature.divergence_to_string d)

let verdict_to_json v =
  let open Obs.Json in
  Obj
    [
      ("workload", Str v.c_workload);
      ("stack", Str v.c_stack);
      ("delta", Str (Delta.to_string v.c_delta));
      ("bare_events", Int v.c_bare_events);
      ("under_events", Int v.c_under_events);
      ("masked", Int v.c_masked);
      ("conformant", Bool (conforms v));
      ( "violation",
        match v.c_violation with
        | None -> Null
        | Some d -> Signature.divergence_to_json d );
    ]
