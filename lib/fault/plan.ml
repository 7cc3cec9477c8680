open Abi
open Agents.Faultinject

(* One site per line:  F <pid> <sysno> <kth> <action>
   with <action> one of  fail:<ERRNO>  |  delay:<US>
   pid 0 = any process, kth 0 = every matching call.  The same line
   grammar serves plan files, repro bundles and the agentrun
   faultinject:PLAN spec (there ';' separates sites). *)

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

let site_to_string s =
  Printf.sprintf "F %d %d %d %s" s.s_pid s.s_num s.s_kth
    (action_to_string s.s_action)

let site_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "F"; pid; num; kth; action ] ->
    (match
       ( int_of_string_opt pid, int_of_string_opt num,
         int_of_string_opt kth, action_of_string action )
     with
     | Some s_pid, Some s_num, Some s_kth, Some s_action
       when s_pid >= 0 && s_num >= 0 && s_kth >= 0 ->
       Some { s_pid; s_num; s_kth; s_action }
     | _ -> None)
  | _ -> None

let to_string sites =
  String.concat "" (List.map (fun s -> site_to_string s ^ "\n") sites)

let of_string text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc rest
      else
        (match site_of_string line with
         | Some s -> go (s :: acc) rest
         | None -> Error (Printf.sprintf "bad plan line %S" line))
  in
  go [] (String.split_on_char '\n' text)

(* The compact one-liner used on the agentrun command line:
   sites separated by ';', each  [pid@]sysname[#k]=action  e.g.
   "read#3=fail:EIO;2@write=delay:500". *)
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

let describe_site s =
  let where =
    if s.s_pid = 0 then Call.name s.s_num
    else Printf.sprintf "pid %d %s" s.s_pid (Call.name s.s_num)
  in
  let which =
    if s.s_kth = 0 then "every call" else Printf.sprintf "call #%d" s.s_kth
  in
  Printf.sprintf "%s %s %s" (action_to_string s.s_action) where which
