(* Flight-recorder records.

   A [segment] is one layer's residence in one trap span: the layer
   name, its nesting depth inside the span, virtual-clock entry time,
   total and self (total minus enclosed layers) time, and the envelope
   decode/encode/rewrite events that fired while the layer was on top.

   A [call] is a trace-agent record: the strace-style pre ("about to
   call") or post ("returned") event, carried with enough structure
   that the textual rendering ([call_line]) and the JSONL rendering
   share one source of truth.

   A [mark] is a point event with no duration: a signal delivered to
   the application, or a span force-closed by exit/exec.  Chrome
   export renders marks as instant events. *)

type segment = {
  span : int;
  pid : int;
  sysno : int;
  layer : string;
  depth : int;
  start_us : int;
  self_us : int;
  total_us : int;
  decodes : int;
  encodes : int;
  rewrites : int;
}

type call = {
  c_span : int;
  c_pid : int;
  c_t_us : int;
  c_name : string;
  c_args : string;
  c_result : string option; (* None: call entry; Some r: call returned r *)
  c_rewrote : bool; (* some layer below rewrote the call in flight *)
}

type mark = {
  m_span : int;
  m_pid : int;
  m_t_us : int;
  m_kind : string; (* "signal" | "abort" *)
  m_detail : string;
}

type record =
  | Segment of segment
  | Call of call
  | Mark of mark
  | Edge of Causal.edge

(* The edge table of a record stream, in the cluster merge order. *)
let edges records =
  Causal.sort (List.filter_map (function Edge e -> Some e | _ -> None) records)

(* --- textual rendering (the trace agent's two line shapes) --- *)

(* Concatenated rather than [Printf]-formatted: the trace agent renders
   one line per event through here. *)
let call_line c =
  match c.c_result with
  | None -> String.concat "" [ c.c_name; "("; c.c_args; ") ..." ]
  | Some r when c.c_rewrote ->
    String.concat "" [ "... "; c.c_name; " -> "; r; " [rewritten]" ]
  | Some r -> String.concat "" [ "... "; c.c_name; " -> "; r ]

(* --- JSONL --- *)

let segment_to_json (s : segment) =
  Json.Obj
    [
      ("type", Json.Str "segment");
      ("span", Json.Int s.span);
      ("pid", Json.Int s.pid);
      ("sysno", Json.Int s.sysno);
      ("layer", Json.Str s.layer);
      ("depth", Json.Int s.depth);
      ("start_us", Json.Int s.start_us);
      ("self_us", Json.Int s.self_us);
      ("total_us", Json.Int s.total_us);
      ("decodes", Json.Int s.decodes);
      ("encodes", Json.Int s.encodes);
      ("rewrites", Json.Int s.rewrites);
    ]

let call_to_json (c : call) =
  Json.Obj
    ([
       ("type", Json.Str "call");
       ("span", Json.Int c.c_span);
       ("pid", Json.Int c.c_pid);
       ("t_us", Json.Int c.c_t_us);
       ("name", Json.Str c.c_name);
       ("args", Json.Str c.c_args);
     ]
    @ (match c.c_result with None -> [] | Some r -> [ ("result", Json.Str r) ])
    @ if c.c_rewrote then [ ("rewrote", Json.Bool true) ] else [])

let mark_to_json (m : mark) =
  Json.Obj
    [
      ("type", Json.Str "mark");
      ("span", Json.Int m.m_span);
      ("pid", Json.Int m.m_pid);
      ("t_us", Json.Int m.m_t_us);
      ("kind", Json.Str m.m_kind);
      ("detail", Json.Str m.m_detail);
    ]

let to_json = function
  | Segment s -> segment_to_json s
  | Call c -> call_to_json c
  | Mark m -> mark_to_json m
  | Edge e -> Causal.to_json e

let to_line r = Json.to_string (to_json r)

let int_field j k =
  match Json.member k j with
  | Some v -> Json.to_int v
  | None -> None

let str_field j k =
  match Json.member k j with
  | Some v -> Json.to_str v
  | None -> None

let of_json j =
  let ( let* ) = Option.bind in
  match str_field j "type" with
  | Some "segment" ->
    let* span = int_field j "span" in
    let* pid = int_field j "pid" in
    let* sysno = int_field j "sysno" in
    let* layer = str_field j "layer" in
    let* depth = int_field j "depth" in
    let* start_us = int_field j "start_us" in
    let* self_us = int_field j "self_us" in
    let* total_us = int_field j "total_us" in
    let* decodes = int_field j "decodes" in
    let* encodes = int_field j "encodes" in
    (* absent in pre-rewrite-flag traces: default 0 *)
    let rewrites = Option.value (int_field j "rewrites") ~default:0 in
    Some
      (Segment
         { span; pid; sysno; layer; depth; start_us; self_us; total_us;
           decodes; encodes; rewrites })
  | Some "call" ->
    let* c_span = int_field j "span" in
    let* c_pid = int_field j "pid" in
    let* c_t_us = int_field j "t_us" in
    let* c_name = str_field j "name" in
    let* c_args = str_field j "args" in
    let c_result = str_field j "result" in
    let c_rewrote =
      match Json.member "rewrote" j with
      | Some v -> Option.value (Json.to_bool v) ~default:false
      | None -> false
    in
    Some (Call { c_span; c_pid; c_t_us; c_name; c_args; c_result; c_rewrote })
  | Some "mark" ->
    let* m_span = int_field j "span" in
    let* m_pid = int_field j "pid" in
    let* m_t_us = int_field j "t_us" in
    let* m_kind = str_field j "kind" in
    let* m_detail = str_field j "detail" in
    Some (Mark { m_span; m_pid; m_t_us; m_kind; m_detail })
  | Some "edge" -> Option.map (fun e -> Edge e) (Causal.of_json j)
  | _ -> None

let of_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j ->
    (match of_json j with
     | Some r -> Ok r
     | None -> Error "not a span record")
