type via = App | Htg

type trap_reply = {
  res : Abi.Value.res;
  deliver : int list;
}

type exec_spec = {
  exec_name : string;
  exec_body : unit -> int;
  keep_emulation : bool;
}

type _ Effect.t +=
  | Cpu : int -> int list Effect.t
  | Exec_load : exec_spec -> unit Effect.t
  | Set_emulation :
      int list * (Abi.Envelope.t -> Abi.Value.res) option
      -> unit Effect.t
  | Get_emulation :
      int -> (Abi.Envelope.t -> Abi.Value.res) option Effect.t
  | Set_emulation_signal : (int -> unit) option -> unit Effect.t
  | Get_emulation_signal : (int -> unit) option Effect.t

exception Process_exit of int
exception Process_killed
