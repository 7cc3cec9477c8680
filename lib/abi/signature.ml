(* A syscall signature: the ordered stream of application-issued traps
   as observed at the user/kernel interface, each reduced to what
   transparency promises to preserve — which call, with what argument
   shape, from which process, with what outcome.  Values (bytes read,
   timestamps, pids returned) are deliberately absent: agents may
   lawfully rewrite those, and the shape/outcome reduction is exactly
   the quotient in which a transparent stack is invisible. *)

type outcome =
  | Ok_            (* the call succeeded *)
  | Err of int     (* failed with this errno *)
  | Noreturn       (* never returned (exit, successful execve) *)
  | Masked         (* neutralized by a declared [May_fail] clause *)

type event = {
  x_seq : int;        (* 1-based position in the capture stream *)
  x_pid : int;
  x_sysno : int;
  x_shape : string;
  mutable x_outcome : outcome;  (* Noreturn until its trap returns *)
}

type t = { sg_events : event list }

let empty = { sg_events = [] }
let events t = t.sg_events
let length t = List.length t.sg_events

let of_events evs = { sg_events = evs }

(* --- recording ------------------------------------------------------------ *)

(* Newest first.  An event is created when its trap is issued and its
   outcome is set when the trap returns, so the stream is in issue
   order and a trap that never returns needs no sentinel. *)
type recorder = { mutable r_rev : event list; mutable r_n : int }

let recorder () = { r_rev = []; r_n = 0 }

let issue r ~pid env =
  r.r_n <- r.r_n + 1;
  let ev =
    { x_seq = r.r_n; x_pid = pid; x_sysno = Envelope.number env;
      x_shape = Envelope.shape env; x_outcome = Noreturn }
  in
  r.r_rev <- ev :: r.r_rev;
  ev

let returned ev (res : Value.res) =
  ev.x_outcome <-
    (match res with Ok _ -> Ok_ | Error e -> Err (Errno.to_int e))

let recorded r = { sg_events = List.rev r.r_rev }

(* --- outcome rendering -------------------------------------------------- *)

let outcome_name = function
  | Ok_ -> "ok"
  | Noreturn -> "noreturn"
  | Masked -> "masked"
  | Err e -> (
    match Errno.of_int e with
    | Some er -> Errno.name er
    | None -> Printf.sprintf "E%d" e)

let outcome_of_name = function
  | "ok" -> Some Ok_
  | "noreturn" -> Some Noreturn
  | "masked" -> Some Masked
  | s -> (
    match Errno.of_name s with
    | Some er -> Some (Err (Errno.to_int er))
    | None ->
      if String.length s > 1 && s.[0] = 'E' then
        Option.map (fun e -> Err e)
          (int_of_string_opt (String.sub s 1 (String.length s - 1)))
      else None)

let event_to_string ev =
  Printf.sprintf "#%d pid %d %s(%s) -> %s" ev.x_seq ev.x_pid
    (Call.name ev.x_sysno) ev.x_shape (outcome_name ev.x_outcome)

(* --- serialization ------------------------------------------------------- *)

(* One event is a flat 5-array; the envelope records the version and
   total so a truncated file is detectable. *)
let to_json t =
  let open Obs.Json in
  Obj
    [
      ("version", Int 1);
      ("events", Int (length t));
      ( "stream",
        Arr
          (List.map
             (fun ev ->
               Arr
                 [
                   Int ev.x_seq; Int ev.x_pid; Int ev.x_sysno;
                   Str ev.x_shape; Str (outcome_name ev.x_outcome);
                 ])
             t.sg_events) );
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Option.bind (member "version" j) to_int with
    | Some 1 -> Ok ()
    | Some v -> Error (Printf.sprintf "unsupported signature version %d" v)
    | None -> Error "missing version"
  in
  let* stream =
    match Option.bind (member "stream" j) to_list with
    | Some l -> Ok l
    | None -> Error "missing stream"
  in
  let* evs =
    List.fold_left
      (fun acc el ->
        let* acc = acc in
        match to_list el with
        | Some [ seq; pid; sysno; shape; outc ] -> (
          match
            ( to_int seq, to_int pid, to_int sysno, to_str shape,
              Option.bind (to_str outc) outcome_of_name )
          with
          | Some x_seq, Some x_pid, Some x_sysno, Some x_shape,
            Some x_outcome ->
            Ok ({ x_seq; x_pid; x_sysno; x_shape; x_outcome } :: acc)
          | _ -> Error "malformed event")
        | _ -> Error "malformed event")
      (Ok []) stream
  in
  let evs = List.rev evs in
  let* () =
    match Option.bind (member "events" j) to_int with
    | Some n when n = List.length evs -> Ok ()
    | Some _ -> Error "event count mismatch (truncated stream?)"
    | None -> Error "missing events count"
  in
  Ok { sg_events = evs }

let to_string t = Obs.Json.to_string (to_json t)

let of_string s =
  Result.bind (Obs.Json.of_string s) of_json

(* --- normalization by a declared delta ----------------------------------- *)

(* Value-level clauses (Shifts_results, Rewrites_results, May_delay)
   touch nothing a signature retains, so they normalize to the
   identity — that asymmetry is the point: an agent that declares
   "I rewrite read payloads" has NOT declared license to change how
   many reads happen or whether they succeed. *)

let apply_clause ev = function
  | Delta.Shifts_results _ | Delta.Rewrites_results _ | Delta.May_delay _ ->
    ev
  | Delta.Renumbers pairs -> (
    match List.assoc_opt ev.x_sysno pairs with
    | Some native -> { ev with x_sysno = native }
    | None -> ev)
  | Delta.May_fail { sysnos; errnos } ->
    if not (List.mem ev.x_sysno sysnos) then ev
    else (
      match ev.x_outcome with
      | Ok_ | Masked -> { ev with x_outcome = Masked }
      | Err e -> (
        match Errno.of_int e with
        | Some er when List.mem er errnos -> { ev with x_outcome = Masked }
        | Some _ | None -> ev)
      | Noreturn -> ev)

let normalize delta t =
  {
    sg_events =
      List.map (fun ev -> List.fold_left apply_clause ev delta) t.sg_events;
  }

let masked t =
  List.length
    (List.filter (fun ev -> ev.x_outcome = Masked) t.sg_events)

(* --- differencing -------------------------------------------------------- *)

type divergence = {
  d_index : int;             (* 0-based position where the streams split *)
  d_bare : event option;     (* what the bare run did there *)
  d_under : event option;    (* what the stacked run did there *)
  d_reason : string;
}

(* seq is positional bookkeeping, not identity: two aligned streams
   agree on it by construction, and comparing it would double-report
   any earlier divergence *)
let event_key ev = (ev.x_pid, ev.x_sysno, ev.x_shape, ev.x_outcome)

let explain a b =
  if a.x_sysno <> b.x_sysno then
    Printf.sprintf "syscall differs: %s vs %s" (Call.name a.x_sysno)
      (Call.name b.x_sysno)
  else if a.x_pid <> b.x_pid then
    Printf.sprintf "issuing pid differs: %d vs %d" a.x_pid b.x_pid
  else if a.x_shape <> b.x_shape then
    Printf.sprintf "arg shape of %s differs: (%s) vs (%s)"
      (Call.name a.x_sysno) a.x_shape b.x_shape
  else
    Printf.sprintf "outcome of %s differs: %s vs %s" (Call.name a.x_sysno)
      (outcome_name a.x_outcome) (outcome_name b.x_outcome)

let diff ~bare ~under =
  let rec go i bs us =
    match (bs, us) with
    | [], [] -> None
    | a :: _, [] ->
      Some
        {
          d_index = i; d_bare = Some a; d_under = None;
          d_reason =
            Printf.sprintf "stream under the stack ends %d call(s) early"
              (List.length bs);
        }
    | [], b :: _ ->
      Some
        {
          d_index = i; d_bare = None; d_under = Some b;
          d_reason =
            Printf.sprintf "%d extra call(s) under the stack"
              (List.length us);
        }
    | a :: ra, b :: rb ->
      if event_key a = event_key b then go (i + 1) ra rb
      else
        Some
          { d_index = i; d_bare = Some a; d_under = Some b;
            d_reason = explain a b }
  in
  go 0 bare.sg_events under.sg_events

(* --- per-process differencing --------------------------------------------- *)

(* A concurrent workload's global interleaving is scheduler state, not
   interface behaviour: an agent that (lawfully) charges virtual time
   shifts which runnable process traps first without changing what any
   process does.  The per-process quotient compares each pid's stream
   in isolation — still exact about every call a process makes, in
   order, but silent on cross-process ordering.  It is only meaningful
   when pid assignment itself is deterministic (the workload must
   serialize its forks). *)

let by_pid t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      Hashtbl.replace tbl ev.x_pid
        (ev :: Option.value ~default:[] (Hashtbl.find_opt tbl ev.x_pid)))
    t.sg_events;
  Hashtbl.fold
    (fun pid evs acc -> (pid, { sg_events = List.rev evs }) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let diff_processes ~bare ~under =
  let first s = match s.sg_events with e :: _ -> Some e | [] -> None in
  let missing pid s =
    Some
      {
        d_index = 0; d_bare = first s; d_under = None;
        d_reason =
          Printf.sprintf "process %d (%d call(s)) missing under the stack"
            pid (length s);
      }
  in
  let extra pid s =
    Some
      {
        d_index = 0; d_bare = None; d_under = first s;
        d_reason =
          Printf.sprintf "extra process %d (%d call(s)) under the stack"
            pid (length s);
      }
  in
  let rec go bs us =
    match (bs, us) with
    | [], [] -> None
    | (pid, s) :: _, [] -> missing pid s
    | [], (pid, s) :: _ -> extra pid s
    | (bp, bsig) :: rb, (up, usig) :: ru ->
      if bp < up then missing bp bsig
      else if up < bp then extra up usig
      else (
        match diff ~bare:bsig ~under:usig with
        | None -> go rb ru
        | Some d ->
          Some
            { d with d_reason = Printf.sprintf "pid %d: %s" bp d.d_reason })
  in
  go (by_pid bare) (by_pid under)

let divergence_to_string d =
  let span = function
    | Some ev -> event_to_string ev
    | None -> "(stream ended)"
  in
  Printf.sprintf "at call %d: %s\n  bare:  %s\n  stack: %s" (d.d_index + 1)
    d.d_reason (span d.d_bare) (span d.d_under)

let divergence_to_json d =
  let open Obs.Json in
  let span = function
    | Some ev ->
      Obj
        [
          ("seq", Int ev.x_seq); ("pid", Int ev.x_pid);
          ("sysno", Int ev.x_sysno);
          ("name", Str (Call.name ev.x_sysno));
          ("shape", Str ev.x_shape);
          ("outcome", Str (outcome_name ev.x_outcome));
        ]
    | None -> Null
  in
  Obj
    [
      ("index", Int d.d_index);
      ("reason", Str d.d_reason);
      ("bare", span d.d_bare);
      ("under", span d.d_under);
    ]
