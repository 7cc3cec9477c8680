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

type wire = { mutable num : int; mutable args : t array }

(* Per-process free lists of wire records, so the trap boundary can
   reuse a vector instead of allocating one per call.  The pool only
   ever sees wires whose envelope owned them exclusively (never handed
   out raw, never rewritten) — Envelope.release enforces that — and
   every recycled wire is scrubbed here so a stale [Buf]/[Str]/[Body]
   reference can neither leak data into the next trap nor pin dead
   objects against the GC. *)
module Pool = struct
  (* Array-backed stack rather than a list: a warm take/recycle pair
     must allocate nothing at all (a cons cell per recycle, or an
     option per take, would cost more than the recycled wire saves on
     small calls). *)
  type pool = {
    mutable stack : wire array;
    mutable len : int;
    capacity : int;
  }

  type t = pool

  let dummy = { num = 0; args = [||] }

  module Stats = struct
    type snapshot = {
      hits : int;      (* takes served from the free list *)
      misses : int;    (* takes that fell back to allocation *)
      recycled : int;  (* wires returned for reuse *)
      dropped : int;   (* returns rejected by a full pool *)
    }

    (* A counter set aggregating over every pool of one kernel shard
       (DESIGN.md §3.6).  The shard installs its counters on entry; the
       pools below bump whichever set is installed.  A default set
       exists from program start for pool use outside any kernel. *)
    type t = {
      mutable c_hits : int;
      mutable c_misses : int;
      mutable c_recycled : int;
      mutable c_dropped : int;
    }

    let create () = { c_hits = 0; c_misses = 0; c_recycled = 0; c_dropped = 0 }

    let cur : t ref = ref (create ())
    let install c = cur := c
    let installed () = !cur

    let snapshot_of c =
      { hits = c.c_hits; misses = c.c_misses;
        recycled = c.c_recycled; dropped = c.c_dropped }

    let reset_of c =
      c.c_hits <- 0; c.c_misses <- 0; c.c_recycled <- 0; c.c_dropped <- 0

    let diff before after =
      { hits = after.hits - before.hits;
        misses = after.misses - before.misses;
        recycled = after.recycled - before.recycled;
        dropped = after.dropped - before.dropped }

    let pp fmt s =
      Format.fprintf fmt "hits=%d misses=%d recycled=%d dropped=%d"
        s.hits s.misses s.recycled s.dropped

    let to_json s =
      Obs.Json.Obj
        [ ("hits", Obs.Json.Int s.hits);
          ("misses", Obs.Json.Int s.misses);
          ("recycled", Obs.Json.Int s.recycled);
          ("dropped", Obs.Json.Int s.dropped) ]
  end

  let create ?(capacity = 64) () =
    if capacity < 0 then invalid_arg "Pool.create";
    { stack = Array.make capacity dummy; len = 0; capacity }

  let size p = p.len

  let take p =
    let c = !Stats.cur in
    if p.len = 0 then begin
      c.Stats.c_misses <- c.Stats.c_misses + 1;
      { num = 0; args = [||] }
    end
    else begin
      p.len <- p.len - 1;
      let w = p.stack.(p.len) in
      p.stack.(p.len) <- dummy;
      c.Stats.c_hits <- c.Stats.c_hits + 1;
      w
    end

  let recycle p w =
    let c = !Stats.cur in
    if p.len >= p.capacity then c.Stats.c_dropped <- c.Stats.c_dropped + 1
    else begin
      w.num <- 0;
      Array.fill w.args 0 (Array.length w.args) Nil;
      p.stack.(p.len) <- w;
      p.len <- p.len + 1;
      c.Stats.c_recycled <- c.Stats.c_recycled + 1
    end
end

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

  let strs w i =
    match arg w i with Some (Strs a) -> Ok a | _ -> Error Errno.EFAULT

  let body w i =
    match arg w i with Some (Body f) -> Ok f | _ -> Error Errno.EFAULT

  let stat_ref w i =
    match arg w i with Some (Stat_ref r) -> Ok r | _ -> Error Errno.EFAULT

  let tv_ref w i =
    match arg w i with Some (Tv_ref r) -> Ok r | _ -> Error Errno.EFAULT

  let handler_opt w i =
    match arg w i with
    | Some (Handler h) -> Ok (Some h)
    | Some Nil | None -> Ok None
    | _ -> Error Errno.EFAULT

  let handler_ref_opt w i =
    match arg w i with
    | Some (Handler_ref r) -> Ok (Some r)
    | Some Nil | None -> Ok None
    | _ -> Error Errno.EFAULT
end

let ( let* ) = Result.bind
