type via = App | Htg

type exec_spec = {
  exec_name : string;
  exec_body : unit -> int;
  keep_emulation : bool;
}

type _ Effect.t +=
  | Cpu : unit Effect.t
  | Yield : unit Effect.t
  | Exec_load : exec_spec -> unit Effect.t

exception Process_exit of int
exception Process_killed
