type handler =
  | H_default
  | H_ignore
  | H_fn of (int -> unit)

type t =
  | Nil
  | Int of int
  | Str of string
  | Buf of Bytes.t
  | Strs of string array
  | Body of (unit -> int)
  | Stat_ref of Stat.t option ref
  | Tv_ref of (int * int) option ref
  | Handler of handler
  | Handler_ref of handler option ref

type ret = { r0 : int; r1 : int }

let ret ?(r1 = 0) r0 = Ok { r0; r1 }
let ok = ret 0

type res = (ret, Errno.t) result

type wire = { num : int; args : t array }

let truncate_str s =
  if String.length s <= 32 then s else String.sub s 0 29 ^ "..."

let pp ppf = function
  | Nil -> Format.pp_print_string ppf "NULL"
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" (truncate_str s)
  | Buf b -> Format.fprintf ppf "0x%x[%d]" (Hashtbl.hash b land 0xffffff)
               (Bytes.length b)
  | Strs a -> Format.fprintf ppf "[|%s|]"
                (String.concat "; "
                   (Array.to_list (Array.map truncate_str a)))
  | Body _ -> Format.pp_print_string ppf "<text>"
  | Stat_ref _ -> Format.pp_print_string ppf "<statbuf>"
  | Tv_ref _ -> Format.pp_print_string ppf "<timeval>"
  | Handler H_default -> Format.pp_print_string ppf "SIG_DFL"
  | Handler H_ignore -> Format.pp_print_string ppf "SIG_IGN"
  | Handler (H_fn _) -> Format.pp_print_string ppf "<handler>"
  | Handler_ref _ -> Format.pp_print_string ppf "<ohandler>"

let pp_wire ppf w =
  Format.fprintf ppf "syscall(%d" w.num;
  Array.iter (fun v -> Format.fprintf ppf ", %a" pp v) w.args;
  Format.fprintf ppf ")"

(* Built by concatenation, not [Format]: the trace agent renders every
   result it sees through here. *)
let res_to_string = function
  | Ok { r0; r1 = 0 } -> string_of_int r0
  | Ok { r0; r1 } ->
    String.concat "" [ "("; string_of_int r0; ", "; string_of_int r1; ")" ]
  | Error e ->
    String.concat "" [ "-1 "; Errno.name e; " ("; Errno.message e; ")" ]

let pp_res ppf r = Format.pp_print_string ppf (res_to_string r)

module Get = struct
  let arg w i =
    if i >= 0 && i < Array.length w.args then Some w.args.(i) else None

  let int w i =
    match arg w i with Some (Int n) -> Ok n | _ -> Error Errno.EFAULT

  let str w i =
    match arg w i with Some (Str s) -> Ok s | _ -> Error Errno.EFAULT

  let buf w i =
    match arg w i with Some (Buf b) -> Ok b | _ -> Error Errno.EFAULT

  let stat_ref w i =
    match arg w i with Some (Stat_ref r) -> Ok r | _ -> Error Errno.EFAULT

  let tv_ref w i =
    match arg w i with Some (Tv_ref r) -> Ok r | _ -> Error Errno.EFAULT
end
