(* Spans recorded by the benchmark's own code around its calls into
   each layer.  Each span has a name, a start and end on the monotonic
   clock, and the span that was open when it started.  Self time and a
   duration histogram are folded per name as spans close, so a long run
   stays at fixed memory; the span records themselves are kept up to a
   cap and written out as one Chrome trace at exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  start : int;
  parent : int;  (** id of the enclosing span, 0 at top level *)
  mutable child_ns : int;
}

type per_name = { mutable self_ns : int; mutable count : int; hist : Stats.Hist.t }

let on = ref false
let stack : span list ref = ref []
let next_id = ref 1
(* records kept per span name; past it only the fold sees a span *)
let keep_per_name = 5_000
let kept : (span * int) list ref = ref []
let dropped = ref 0
let by_name : (string, per_name) Hashtbl.t = Hashtbl.create 32

let enter name =
  let parent = match !stack with s :: _ -> s.id | [] -> 0 in
  let s = { id = !next_id; name; start = now_ns (); parent; child_ns = 0 } in
  incr next_id;
  stack := s :: !stack;
  s

let exit s =
  let stop = now_ns () in
  let dur = stop - s.start in
  (match !stack with
   | top :: rest when top == s -> (
     stack := rest;
     match rest with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ())
   | _ -> invalid_arg ("Spans.exit: " ^ s.name ^ " is not the innermost span"));
  let p =
    match Hashtbl.find_opt by_name s.name with
    | Some p -> p
    | None ->
      let p = { self_ns = 0; count = 0; hist = Stats.Hist.create () } in
      Hashtbl.add by_name s.name p;
      p
  in
  p.self_ns <- p.self_ns + dur - s.child_ns;
  p.count <- p.count + 1;
  Stats.Hist.add p.hist dur;
  if p.count <= keep_per_name then kept := (s, stop) :: !kept else incr dropped

(* [f] inside a span when tracing is on; otherwise just [f] *)
let span name f =
  if not !on then f ()
  else
    let s = enter name in
    match f () with
    | v ->
      exit s;
      v
    | exception e ->
      exit s;
      raise e

let stats name = Hashtbl.find_opt by_name name

(* the cost of one monotonic clock read, which every span pays twice *)
let clock_read_ns () =
  let n = 1_000_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Monotonic_clock.now ()))
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

let write_chrome path =
  let spans = List.rev !kept in
  let t0 = match spans with (s, _) :: _ -> s.start | [] -> 0 in
  let us ns = Obs.Json.Float (float_of_int ns /. 1e3) in
  let event (s, stop) =
    Obs.Json.Obj
      [ ("name", Str s.name); ("ph", Str "X"); ("ts", us (s.start - t0));
        ("dur", us (stop - s.start)); ("pid", Int 1); ("tid", Int 1);
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent) ]) ]
  in
  let doc =
    Obs.Json.Obj
      [ ("traceEvents", Arr (List.map event spans));
        ("otherData", Obj [ ("dropped_spans", Int !dropped) ]) ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc
