open Abi

(* numbers chosen inside the interception vector but disjoint from
   every native call *)
let v_exit = 141
let v_fork = 142
let v_read = 143
let v_write = 144
let v_open = 145
let v_close = 146
let v_getpid = 147
let v_gettimeofday = 148
let v_wait = 149
let v_stat = 150

let numbers =
  [ v_exit; v_fork; v_read; v_write; v_open; v_close; v_getpid;
    v_gettimeofday; v_wait; v_stat ]

(* the renumbering [to_native] performs, as data — remap's declared
   delta, and the normalization table for comparing a VOS program's
   signature against a native baseline *)
let native_pairs =
  [ (v_exit, Sysno.sys_exit); (v_fork, Sysno.sys_fork);
    (v_read, Sysno.sys_read); (v_write, Sysno.sys_write);
    (v_open, Sysno.sys_open); (v_close, Sysno.sys_close);
    (v_getpid, Sysno.sys_getpid);
    (v_gettimeofday, Sysno.sys_gettimeofday);
    (v_wait, Sysno.sys_wait4); (v_stat, Sysno.sys_stat) ]

let ( let* ) = Result.bind

let to_native (w : Value.wire) : (Value.wire, Errno.t) result =
  if w.num = v_open then begin
    (* VOS passes (mode, flags, path); native wants (path, flags, mode) *)
    let* mode = Value.Get.int w 0 in
    let* flags = Value.Get.int w 1 in
    let* path = Value.Get.str w 2 in
    Ok { Value.num = Sysno.sys_open;
         args = [| Value.Str path; Value.Int flags; Value.Int mode |] }
  end
  else
    match List.assoc w.num native_pairs with
    | num -> Ok { w with Value.num }
    | exception Not_found -> Error Errno.ENOSYS

module Stub = struct
  let trap num args = Kernel.Uspace.trap_wire { Value.num; args }

  let exit code = trap v_exit [| Value.Int code |]
  let read fd buf cnt = trap v_read [| Value.Int fd; Value.Buf buf; Value.Int cnt |]
  let write fd data = trap v_write [| Value.Int fd; Value.Str data |]

  let open_ ~mode ~flags path =
    trap v_open [| Value.Int mode; Value.Int flags; Value.Str path |]

  let close fd = trap v_close [| Value.Int fd |]
  let getpid () = trap v_getpid [||]
  let gettimeofday cell = trap v_gettimeofday [| Value.Tv_ref cell |]
  let wait () = trap v_wait [| Value.Int (-1); Value.Int 0 |]
  let stat path cell = trap v_stat [| Value.Str path; Value.Stat_ref cell |]
end
