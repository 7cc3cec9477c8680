(* Chrome/Perfetto trace_event rendering of flight-recorder records.

   The mapping (DESIGN.md §3.4): one trace "process" per simulated pid;
   within it, one "thread" per (depth, layer) pair a segment was
   recorded at — so a depth-4 stack shows as five nested tracks, in
   stack order — plus thread 0 for point events (trace-agent calls,
   signal and abort marks).  Segments become complete events
   ([ph:"X"], ts/dur in µs, which is what the virtual clock already
   counts); calls and marks become instant events ([ph:"i"]); edge
   records become flow arrows between span slices; names
   come from the caller-supplied syscall-number renderer, since obs
   sits below [abi] and cannot name numbers itself.

   The output is a bare JSON array of events — both chrome://tracing
   and Perfetto accept that form directly.  Metadata events ([ph:"M"])
   come first; real events follow sorted by timestamp. *)

let default_name n = Printf.sprintf "syscall#%d" n

(* tid 0 carries the instant events; segment tracks start at 1, ordered
   by (depth, layer) so the viewer shows the stack outermost-first *)
let tid_tables records =
  let tracks : (int * (int * string), unit) Hashtbl.t = Hashtbl.create 16 in
  let pids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | Span.Segment s ->
        Hashtbl.replace pids s.Span.pid ();
        Hashtbl.replace tracks (s.Span.pid, (s.Span.depth, s.Span.layer)) ()
      | Span.Call c -> Hashtbl.replace pids c.Span.c_pid ()
      | Span.Mark m -> Hashtbl.replace pids m.Span.m_pid ()
      | Span.Edge _ -> ())
    records;
  let by_track = Hashtbl.create 16 in
  Hashtbl.iter
    (fun pid () ->
      let layers =
        Hashtbl.fold
          (fun (p, key) () acc -> if p = pid then key :: acc else acc)
          tracks []
        |> List.sort compare
      in
      List.iteri
        (fun i key -> Hashtbl.replace by_track (pid, key) (i + 1))
        layers)
    pids;
  let pid_list = Hashtbl.fold (fun p () acc -> p :: acc) pids [] |> List.sort compare in
  (pid_list, by_track)

let meta_event ~pid ~tid ~which name =
  Json.Obj
    [
      ("ph", Json.Str "M");
      ("ts", Json.Int 0);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("name", Json.Str which);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let default_pid_label pid = Printf.sprintf "pid %d" pid

(* Causal edges render as flow events: a [ph:"s"] start bound to the
   source span's slice and a [ph:"f"] (binding point "e") on the
   destination span's slice, matched by id — the arrows Perfetto draws
   across process lanes.  Binding needs a concrete slice, so each
   endpoint is looked up among the records' outermost segments (keyed
   by (pid, span), which is unique within one shard's records) and its
   timestamp clamped into that slice; edges whose endpoints the ring
   dropped or the sampler skipped are omitted. *)
let flow_events records ~by_track =
  let slices : (int * int, int * string * int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  (* (pid, span) -> (depth, layer, start_us, total_us) for the
     outermost segment seen *)
  List.iter
    (function
      | Span.Segment s ->
        let key = (s.Span.pid, s.Span.span) in
        let keep =
          match Hashtbl.find_opt slices key with
          | Some (d, _, _, _) -> s.Span.depth < d
          | None -> true
        in
        if keep then
          Hashtbl.replace slices key
            (s.Span.depth, s.Span.layer, s.Span.start_us, s.Span.total_us)
      | Span.Call _ | Span.Mark _ | Span.Edge _ -> ())
    records;
  let clamp ts (_, _, lo, dur) = max lo (min ts (lo + dur)) in
  let tid_for pid (depth, layer, _, _) =
    match Hashtbl.find_opt by_track (pid, (depth, layer)) with
    | Some tid -> tid
    | None -> 0
  in
  List.concat_map
    (fun ed ->
      if ed.Causal.ed_src_span <= 0 || ed.Causal.ed_dst_span <= 0 then []
      else
        match
          ( Hashtbl.find_opt slices (ed.Causal.ed_src_pid, ed.Causal.ed_src_span),
            Hashtbl.find_opt slices (ed.Causal.ed_dst_pid, ed.Causal.ed_dst_span) )
        with
        | Some src_slice, Some dst_slice ->
          let id = (ed.Causal.ed_shard * 1_000_000_000) + ed.Causal.ed_seq in
          let name = Causal.kind_name ed.Causal.ed_kind in
          let point ~ph ~extra ~pid ~tid ~ts =
            ( ts,
              Json.Obj
                ([
                   ("name", Json.Str name);
                   ("cat", Json.Str "causal");
                   ("ph", Json.Str ph);
                 ]
                @ extra
                @ [
                    ("id", Json.Int id);
                    ("ts", Json.Int ts);
                    ("pid", Json.Int pid);
                    ("tid", Json.Int tid);
                    ( "args",
                      Json.Obj
                        [
                          ("src_span", Json.Int ed.Causal.ed_src_span);
                          ("dst_span", Json.Int ed.Causal.ed_dst_span);
                          ("detail", Json.Str ed.Causal.ed_detail);
                        ] );
                  ]) )
          in
          [
            point ~ph:"s" ~extra:[] ~pid:ed.Causal.ed_src_pid
              ~tid:(tid_for ed.Causal.ed_src_pid src_slice)
              ~ts:(clamp ed.Causal.ed_t_us src_slice);
            point ~ph:"f" ~extra:[ ("bp", Json.Str "e") ]
              ~pid:ed.Causal.ed_dst_pid
              ~tid:(tid_for ed.Causal.ed_dst_pid dst_slice)
              ~ts:(clamp ed.Causal.ed_t_us dst_slice);
          ]
        | _ -> [])
    (List.filter_map (function Span.Edge ed -> Some ed | _ -> None) records)

let to_json ?(name = default_name) ?(pid_label = default_pid_label) records =
  let pid_list, by_track = tid_tables records in
  let metadata =
    List.concat_map
      (fun pid ->
        let threads =
          Hashtbl.fold
            (fun (p, (depth, layer)) tid acc ->
              if p = pid then ((depth, layer), tid) :: acc else acc)
            by_track []
          |> List.sort compare
        in
        meta_event ~pid ~tid:0 ~which:"process_name" (pid_label pid)
        :: meta_event ~pid ~tid:0 ~which:"thread_name" "events"
        :: List.map
             (fun ((depth, layer), tid) ->
               meta_event ~pid ~tid ~which:"thread_name"
                 (Printf.sprintf "d%d %s" depth layer))
             threads)
      pid_list
  in
  let event_of = function
    | Span.Edge _ -> None (* rendered by [flow_events] *)
    | Span.Segment s ->
      let tid =
        match Hashtbl.find_opt by_track (s.Span.pid, (s.Span.depth, s.Span.layer)) with
        | Some tid -> tid
        | None -> 0
      in
      Some
        ( s.Span.start_us,
          Json.Obj
            [
              ("name", Json.Str (name s.Span.sysno));
              ("cat", Json.Str "trap");
              ("ph", Json.Str "X");
              ("ts", Json.Int s.Span.start_us);
              ("dur", Json.Int s.Span.total_us);
              ("pid", Json.Int s.Span.pid);
              ("tid", Json.Int tid);
              ( "args",
                Json.Obj
                  [
                    ("span", Json.Int s.Span.span);
                    ("sysno", Json.Int s.Span.sysno);
                    ("layer", Json.Str s.Span.layer);
                    ("depth", Json.Int s.Span.depth);
                    ("self_us", Json.Int s.Span.self_us);
                    ("decodes", Json.Int s.Span.decodes);
                    ("encodes", Json.Int s.Span.encodes);
                    ("rewrites", Json.Int s.Span.rewrites);
                  ] );
            ] )
    | Span.Call c ->
      Some
        ( c.Span.c_t_us,
          Json.Obj
            [
              ("name", Json.Str (Span.call_line c));
              ("cat", Json.Str "call");
              ("ph", Json.Str "i");
              ("s", Json.Str "t");
              ("ts", Json.Int c.Span.c_t_us);
              ("pid", Json.Int c.Span.c_pid);
              ("tid", Json.Int 0);
              ( "args",
                Json.Obj
                  ([ ("span", Json.Int c.Span.c_span) ]
                  @
                  if c.Span.c_rewrote then [ ("rewrote", Json.Bool true) ]
                  else []) );
            ] )
    | Span.Mark m ->
      Some
        ( m.Span.m_t_us,
          Json.Obj
            [
              ("name", Json.Str (m.Span.m_kind ^ " " ^ m.Span.m_detail));
              ("cat", Json.Str m.Span.m_kind);
              ("ph", Json.Str "i");
              ("s", Json.Str "t");
              ("ts", Json.Int m.Span.m_t_us);
              ("pid", Json.Int m.Span.m_pid);
              ("tid", Json.Int 0);
              ("args", Json.Obj [ ("span", Json.Int m.Span.m_span) ]);
            ] )
  in
  let events =
    List.filter_map event_of records @ flow_events records ~by_track
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  Json.Arr (metadata @ events)

let to_string ?name ?pid_label records =
  Json.to_string (to_json ?name ?pid_label records)
