open Abi
open Agents.Faultinject

(* One site:  [pid@]sysname[#k]=<action>  with <action> one of
   fail:<ERRNO> | delay:<US>; a plan joins sites with ';', e.g.
   "read#3=fail:EIO;2@write=delay:500".  No pid = any process (pid 0),
   no #k = every matching call (kth 0).  The one grammar serves the
   agentrun faultinject:PLAN argument, repro bundles and reports. *)

let action_to_string = function
  | Fail e -> "fail:" ^ Errno.name e
  | Delay us -> Printf.sprintf "delay:%d" us

let action_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "fail" -> Option.map (fun e -> Fail e) (Errno.of_name arg)
     | "delay" ->
       (match int_of_string_opt arg with
        | Some us when us >= 0 -> Some (Delay us)
        | _ -> None)
     | _ -> None)

let site_of_spec spec =
  let pid, rest =
    match String.index_opt spec '@' with
    | Some i ->
      ( int_of_string_opt (String.sub spec 0 i),
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> Some 0, spec
  in
  match pid, String.index_opt rest '=' with
  | Some pid, Some i when pid >= 0 ->
    let lhs = String.sub rest 0 i in
    let action = String.sub rest (i + 1) (String.length rest - i - 1) in
    let name, kth =
      match String.index_opt lhs '#' with
      | Some j ->
        ( String.sub lhs 0 j,
          int_of_string_opt (String.sub lhs (j + 1) (String.length lhs - j - 1)) )
      | None -> lhs, Some 0
    in
    (match Call.of_name name, kth, action_of_string action with
     | Some num, Some kth, Some act when kth >= 0 ->
       Some { s_pid = pid; s_num = num; s_kth = kth; s_action = act }
     | _ -> None)
  | _ -> None

let of_spec spec =
  let parts =
    List.filter (fun s -> String.trim s <> "") (String.split_on_char ';' spec)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      (match site_of_spec (String.trim p) with
       | Some s -> go (s :: acc) rest
       | None -> Error (Printf.sprintf "bad site spec %S" p))
  in
  if parts = [] then Error "empty plan spec" else go [] parts

(* A site no spec can carry (a number with no [Call] name, a negative
   pid, ordinal or delay) fails here rather than write a line that
   [of_spec] refuses or reads back as another site. *)
let site_to_spec s =
  let spec =
    (if s.s_pid = 0 then "" else Printf.sprintf "%d@" s.s_pid)
    ^ Call.name s.s_num
    ^ (if s.s_kth = 0 then "" else Printf.sprintf "#%d" s.s_kth)
    ^ "=" ^ action_to_string s.s_action
  in
  if site_of_spec spec <> Some s then
    invalid_arg (Printf.sprintf "Plan.to_spec: no spec reads back as %S" spec);
  spec

let to_spec sites = String.concat ";" (List.map site_to_spec sites)
