open Abi

(* The class ['a] stays hidden here rather than lost to the numeric
   layer's, so a report can read what only that class counts. *)
type built =
  | Built : {
      make : unit -> (#Toolkit.Numeric.numeric_syscall as 'a);
      report : 'a -> unit;
    }
      -> built

type row = {
  name : string;
  aliases : string list;
  usage : string;
  parse : string -> (built, string) result;
}

let reporting make report = Built { make; report }
let quietly make = Built { make; report = ignore }
let say s = ignore (Libc.Unistd.write 2 s)
let no_arg built = function "" -> Ok built | _ -> Error "takes no argument"
let or_default default arg = if arg = "" then default else arg

(* The sink rule (see the interface).  The flags suit a log file and
   /dev/null alike; if the move fails the first descriptor is kept. *)
let sink path =
  let what = "trace sink " ^ path in
  fun () ->
    let fd =
      Libc.Unistd.ok_exn what
        (Libc.Unistd.open_ path
           Flags.Open.(o_wronly lor o_creat lor o_trunc)
           0o644)
    in
    let high = Libc.Unistd.getdtablesize () - 1 in
    match Libc.Unistd.dup2 fd high with
    | Ok _ when fd <> high ->
      ignore (Libc.Unistd.close fd);
      high
    | Ok _ | Error _ -> fd

let sandbox_report a =
  match a#violations with
  | [] -> say "sandbox: no violations\n"
  | vs ->
    say
      (Printf.sprintf "sandbox: %d violation(s):\n%s" (List.length vs)
         (String.concat "" (List.map (fun v -> "  - " ^ v ^ "\n") vs)))

(* a generator bridged to the host: the simulated machine's real
   process table *)
let ps () =
  let b = Buffer.create 128 in
  Buffer.add_string b "  PID  PPID  PGRP NAME\n";
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Buffer.add_string b
        (Printf.sprintf "%5d %5d %5d %s\n" p.pid p.ppid p.pgrp p.name))
    (Kernel.Kstate.live_procs (Kernel.current_exn ()));
  Buffer.contents b

(* a deterministic plan ("read#3=fail:EIO"; none is the empty plan) *)
let faultinject arg =
  match if arg = "" then Ok [] else Fault.Plan.of_spec arg with
  | Error msg -> Error ("plan: " ^ msg)
  | Ok plan ->
    Ok
      (reporting
         (fun () -> Agents.Faultinject.create plan)
         (fun a ->
           say
             (Printf.sprintf
                "faultinject: %d fault(s) injected, %d EINTR restarted, \
                 %d delayed\n"
                a#total_injected a#restarted a#delayed)))

let row ?(aliases = []) name usage parse = { name; aliases; usage; parse }

(* Arguments are parsed here, once; anything a [make] closes over is
   built here too, so building a stack allocates only its agents. *)
let rows =
  [ row "null" "null" ~aliases:[ "time_symbolic" ]
      (no_arg (quietly Agents.Time_symbolic.create));
    row "timex" "timex[:OFFSET]" (fun arg ->
      match int_of_string_opt (or_default "3600" arg) with
      | Some offset_seconds ->
        Ok (quietly (fun () -> Agents.Timex.create ~offset_seconds ()))
      | None -> Error "OFFSET is a number of seconds");
    row "trace" "trace[:FILE]" (function
      | "" -> Ok (quietly (fun () -> Agents.Trace.create ()))
      | file ->
        let sink = sink file in
        Ok (quietly (fun () -> Agents.Trace.create ~fd:(sink ()) ())));
    row "syscount" "syscount"
      (no_arg
         (reporting Agents.Syscount.create (fun a -> a#write_report ~fd:2)));
    row "union" "union[:/PT=/M1:/M2]" (fun arg ->
      match
        if arg = "" then Some []
        else Option.map (fun m -> [ m ]) (Agents.Union.parse_mount_arg arg)
      with
      | Some mounts -> Ok (quietly (fun () -> Agents.Union.create ~mounts ()))
      | None -> Error "expected /POINT=/MEMBER1:/MEMBER2...");
    row "sandbox" "sandbox[:emulate|:open]" (fun arg ->
      let sandbox p =
        Ok (reporting (fun () -> Agents.Sandbox.create p) sandbox_report)
      in
      match arg with
      | "" -> sandbox Agents.Sandbox.default_policy
      | "emulate" ->
        sandbox { Agents.Sandbox.default_policy with emulate_denied = true }
      | "open" -> sandbox Agents.Sandbox.open_policy
      | _ -> Error "the policy is emulate or open");
    row "txn" "txn[:abort]" (fun arg ->
      let txn d = Ok (quietly (fun () -> Agents.Txn.create ~decide:d ())) in
      match arg with
      | "" -> txn (fun () -> `Commit)
      | "abort" -> txn (fun () -> `Abort)
      | _ -> Error "the argument is abort");
    row "crypt" "crypt[:[KEY@]PATH]" (fun arg ->
      let key, path =
        match String.split_on_char '@' arg with
        | [ key; path ] -> (int_of_string_opt key, path)
        | _ -> (Some 42, or_default "/vault" arg)
      in
      match key with
      | Some key ->
        let subtrees = [ path ] in
        Ok (quietly (fun () -> Agents.Crypt.create ~key ~subtrees))
      | None -> Error "KEY is a number");
    row "compress" "compress[:PATH]" (fun arg ->
      let subtrees = [ or_default "/arch" arg ] in
      Ok (quietly (fun () -> Agents.Compress.create ~subtrees)));
    row "remap" "remap" ~aliases:[ "vos" ]
      (no_arg (quietly Agents.Remap.create));
    (* dfs_trace names and opens its log in its init argument *)
    row "dfs_trace" "dfs_trace[:FILE]" (fun arg ->
      let argv = [| "log=" ^ or_default "/dfstrace.log" arg |] in
      Ok
        (quietly (fun () ->
           object
             inherit Agents.Dfs_trace.agent as super
             method! init _ = super#init argv
           end)));
    row "synthfs" "synthfs[:MOUNT]" (fun arg ->
      let mount = or_default "/proc" arg in
      Ok
        (quietly (fun () ->
           let a = Agents.Synthfs.create ~mount () in
           a#register_file "ps" ps;
           a)));
    row "obs" "obs[:MOUNT]" (fun arg ->
      let mount = or_default "/obs" arg in
      Ok (quietly (fun () -> Agents.Obs_fs.create ~mount ())));
    row "faultinject" "faultinject[:PLAN]" faultinject ]

let of_spec spec =
  let name, arg =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  match List.find_opt (fun r -> r.name = name || List.mem name r.aliases) rows with
  | None -> Error (Printf.sprintf "unknown agent %S" name)
  | Some r -> Result.map_error (fun msg -> name ^ ": " ^ msg) (r.parse arg)

let start (Built k) =
  let a = k.make () in
  ((a :> Toolkit.Numeric.numeric_syscall), fun () -> k.report a)

let stack specs =
  let built =
    List.map
      (fun s -> match of_spec s with Ok b -> b | Error msg -> invalid_arg msg)
      specs
  in
  fun () ->
    List.map
      (fun (Built k) -> (k.make () :> Toolkit.Numeric.numeric_syscall))
      built
