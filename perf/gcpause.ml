(* GC pauses of this process, read back through a [Runtime_events]
   cursor: the duration of every minor collection and every major
   slice.  Only the traced run starts the event ring; [poll] must run
   often enough that the ring (64k words per domain) does not wrap,
   which once per round does. *)

let minor = Stats.Hist.create ()
let major = Stats.Hist.create ()
let lost = ref 0
let collecting = ref false
let begun = Array.make 2 0L
let slot = function
  | Runtime_events.EV_MINOR -> Some 0
  | EV_MAJOR_SLICE -> Some 1
  | _ -> None

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      match slot phase with
      | Some i -> begun.(i) <- Runtime_events.Timestamp.to_int64 ts
      | None -> ())
    ~runtime_end:(fun _ ts phase ->
      match slot phase with
      | Some i when !collecting && begun.(i) > 0L ->
        let d =
          Int64.to_int
            (Int64.sub (Runtime_events.Timestamp.to_int64 ts) begun.(i))
        in
        Stats.Hist.add (if i = 0 then minor else major) d
      | _ -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let cursor = lazy (Runtime_events.start (); Runtime_events.create_cursor None)
let start () = ignore (Lazy.force cursor)

let poll () =
  if Lazy.is_val cursor then
    ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

(* pauses in [f] are recorded; everything before is drained unrecorded *)
let record f =
  poll ();
  collecting := true;
  Fun.protect f ~finally:(fun () ->
    poll ();
    collecting := false)
