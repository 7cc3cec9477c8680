(* The observability engine (DESIGN.md §3.2, sampling §3.4, shard
   ownership §3.6).

   A *span* covers one trap from `Uspace.syscall` entry to result
   delivery.  While a span is open, every layer that touches the trap —
   uspace, each stacked agent, downlink, the kernel handler — pushes a
   *frame*; on exit the frame becomes a `Span.segment` in the flight
   recorder and folds into the per-(depth, layer) aggregation.  Self
   time is total minus enclosed-frame time, so per-span self times sum
   exactly to the root frame's total.  Envelope decode/encode/rewrite
   events attribute to whichever frame is on top of their span's stack.

   Everything here is keyed by span id, never by "the current frame":
   fibres interleave at effect points, so several spans from different
   processes are routinely open at once.  The per-pid stack exists only
   to answer `current ()` — which span a freshly built envelope on this
   process belongs to.

   Sampling: with a 1-in-N sampler installed, the decision is made once
   per trap at `span_begin`, deterministically (a seeded `Sim.Rng`
   stream, one draw per trap).  An unsampled trap gets a *negative
   sentinel* id encoding its sysno: per-syscall call/error counts stay
   exact (counted at open / close against the sentinel), while frames,
   histograms, per-layer aggregation and the ring see only the sampled
   1-in-N subset — consumers scale those by `sample_n` from the metrics
   snapshot.

   Ownership: all engine state lives in an [engine] record, the codec
   and envelope-pool counters included.  Each kernel shard owns one;
   entering a shard installs its engine in the module-level [cur]
   pointer so that code deep in the trap path — envelope codecs,
   agents, uspace — reaches the right engine without threading a
   handle through every signature.  It is one of the two installed
   cells (DESIGN.md §3.6): obs and abi sit below the kernel and cannot
   see the kernel's own, [Kstate.Ambient.current].  A default engine is
   installed at program start for engine-only use (tests drive spans
   with no kernel at all).

   Observation charges no *virtual* time: enabling tracing must not
   move any published µs number. *)

module Ring = Ring
module Hist = Hist
module Json = Json
module Span = Span
module Chrome = Chrome
module Causal = Causal
module Flame = Flame
module Stream = Stream
module Watch = Watch

(* ---------- codec and envelope-pool counters ---------- *)

(* Exact and cumulative: bumped whether or not the engine is on, never
   sampled, and left alone by [reset]. *)
module Codec = struct
  type t = {
    traps : int;
    intercepted : int;
    fast_path : int;
    decodes : int;
    encodes : int;
    crossings : int;
    agent_calls : int;
  }

  let map2 f a b =
    { traps = f a.traps b.traps;
      intercepted = f a.intercepted b.intercepted;
      fast_path = f a.fast_path b.fast_path;
      decodes = f a.decodes b.decodes;
      encodes = f a.encodes b.encodes;
      crossings = f a.crossings b.crossings;
      agent_calls = f a.agent_calls b.agent_calls }

  let diff before after = map2 ( - ) after before

  let pp fmt s =
    Format.fprintf fmt
      "traps=%d intercepted=%d fast_path=%d decodes=%d encodes=%d \
       crossings=%d agent_calls=%d"
      s.traps s.intercepted s.fast_path s.decodes s.encodes
      s.crossings s.agent_calls

  let to_json s =
    Json.Obj
      [ ("traps", Json.Int s.traps);
        ("intercepted", Json.Int s.intercepted);
        ("fast_path", Json.Int s.fast_path);
        ("decodes", Json.Int s.decodes);
        ("encodes", Json.Int s.encodes);
        ("crossings", Json.Int s.crossings);
        ("agent_calls", Json.Int s.agent_calls) ]
end

module Env_pool = struct
  type t = { hits : int; misses : int; recycled : int; dropped : int }

  let map2 f a b =
    { hits = f a.hits b.hits; misses = f a.misses b.misses;
      recycled = f a.recycled b.recycled; dropped = f a.dropped b.dropped }

  let diff before after = map2 ( - ) after before

  let to_json s =
    Json.Obj
      [ ("hits", Json.Int s.hits);
        ("misses", Json.Int s.misses);
        ("recycled", Json.Int s.recycled);
        ("dropped", Json.Int s.dropped) ]
end

(* ---------- live per-span state ---------- *)

type frame = {
  f_span : int;
  f_layer : string;
  f_depth : int;
  f_enter_us : int;
  mutable f_child_us : int;
  mutable f_decodes : int;
  mutable f_encodes : int;
  mutable f_rewrites : int;
}

type span_state = {
  s_id : int;
  s_pid : int;
  s_sysno : int;
  s_begin_us : int;
  mutable s_frames : frame list; (* innermost first *)
}

(* ---------- aggregation rows ---------- *)

type sys_agg = { mutable sa_calls : int; mutable sa_errors : int; sa_hist : Hist.t }

type layer_agg = {
  mutable la_traps : int;
  mutable la_decodes : int;
  mutable la_encodes : int;
  mutable la_rewrites : int;
  mutable la_self_us : int;
  mutable la_total_us : int;
  la_hist : Hist.t; (* per-frame self time *)
}

(* ---------- the engine ---------- *)

let default_ring_capacity = 4096

type engine = {
  mutable e_on : bool;
  mutable e_clock_fn : unit -> int;
  mutable e_context_fn : unit -> int;
  mutable e_sample_n : int;
  mutable e_sample_seed : int;
  mutable e_sample_rng : Sim.Rng.t;
  e_spans : (int, span_state) Hashtbl.t;
  e_open_by_pid : (int, int list ref) Hashtbl.t;
  mutable e_next_span : int;
  mutable e_ring_capacity : int;
  mutable e_ring : Span.record Ring.t;
  mutable e_by_sysno : sys_agg option array; (* indexed by sysno *)
  e_by_layer : (int * string, layer_agg) Hashtbl.t;
  mutable e_completed : int;
  mutable e_aborted : int;
  mutable e_injected : int;
  (* which shard this engine belongs to, stamped into every causal
     edge it records (DESIGN.md §3.9).  The edges are [Span.Edge]
     records of the ring, pushed only into a sampled trap, so at
     1-in-N the log holds only edges into sampled traps; raw records,
     so the oldest go first when the ring wraps, counted in [dropped].
     Their pending halves live on the kernel objects they describe. *)
  mutable e_shard : int;
  e_rewrites : (int, int) Hashtbl.t;
      (* pid -> rewrites noted while it ran, exact like the counters
         below; a process's entry goes with it ([abort_pid]) *)
  (* codec counters ([Codec]) *)
  mutable e_traps : int;
  mutable e_intercepted : int;
  mutable e_fast_path : int;
  mutable e_decodes : int;
  mutable e_encodes : int;
  mutable e_crossings : int;
  mutable e_agent_calls : int;
  (* envelope-pool counters ([Env_pool]), over every pool of the shard *)
  mutable e_pool_hits : int;
  mutable e_pool_misses : int;
  mutable e_pool_recycled : int;
  mutable e_pool_dropped : int;
}

let make_engine ring_capacity =
  {
    e_on = false;
    e_clock_fn = (fun () -> 0);
    e_context_fn = (fun () -> 0);
    e_sample_n = 1;
    e_sample_seed = 0;
    e_sample_rng = Sim.Rng.create 0;
    e_spans = Hashtbl.create 64;
    e_open_by_pid = Hashtbl.create 16;
    e_next_span = 0;
    e_ring_capacity = ring_capacity;
    e_ring = Ring.create ~capacity:ring_capacity;
    e_by_sysno = [||];
    e_by_layer = Hashtbl.create 32;
    e_completed = 0;
    e_aborted = 0;
    e_injected = 0;
    e_shard = 0;
    e_rewrites = Hashtbl.create 16;
    e_traps = 0;
    e_intercepted = 0;
    e_fast_path = 0;
    e_decodes = 0;
    e_encodes = 0;
    e_crossings = 0;
    e_agent_calls = 0;
    e_pool_hits = 0;
    e_pool_misses = 0;
    e_pool_recycled = 0;
    e_pool_dropped = 0;
  }

let engine () = make_engine default_ring_capacity

(* A fresh engine carrying the *configuration* of [src] — on/off
   switch, sampling rate and seed (decision stream restarted), ring
   capacity — but none of its data.  [Kernel.create] builds each
   shard's engine this way from the currently installed one, so the
   established "configure observation, then create the kernel" call
   order keeps working across the per-shard ownership change. *)
let engine_like src =
  let e = make_engine src.e_ring_capacity in
  e.e_on <- src.e_on;
  e.e_sample_n <- src.e_sample_n;
  e.e_sample_seed <- src.e_sample_seed;
  e.e_sample_rng <- Sim.Rng.create src.e_sample_seed;
  e

(* The installed (current-shard) engine: the single allowlisted piece
   of module-level state in this library, and with
   [Kstate.Ambient.current] one of the two installed cells.  Everything
   below operates on [!cur]. *)
let cur : engine ref = ref (engine ())

let install e = cur := e
let installed () = !cur

let with_engine e f =
  let prev = !cur in
  cur := e;
  Fun.protect ~finally:(fun () -> cur := prev) f

(* ---------- switches and environment hooks ---------- *)

let set_clock f = !cur.e_clock_fn <- f
let set_context f = !cur.e_context_fn <- f
let now_us () = !cur.e_clock_fn ()
let current_pid () = !cur.e_context_fn ()

let enabled () = !cur.e_on
let enable () = !cur.e_on <- true
let disable () = !cur.e_on <- false

(* ---------- sampling ---------- *)

let set_sampling ?(seed = 0) n =
  let e = !cur in
  let n = max 1 n in
  e.e_sample_n <- n;
  e.e_sample_seed <- seed;
  e.e_sample_rng <- Sim.Rng.create seed

let sampling () = !cur.e_sample_n

(* ---------- flight recorder ---------- *)

let configure ?(ring_capacity = default_ring_capacity) () =
  let e = !cur in
  e.e_ring_capacity <- ring_capacity;
  e.e_ring <- Ring.create ~capacity:ring_capacity

(* ---------- aggregation ---------- *)

(* Every trap reaches this, so the table is indexed by the sysno and
   grown on demand: an unsampled trap pays one bounds-checked read, no
   hash and no allocation.  The sysno is the application's raw number,
   so the table is capped: every number outside [0, sysno_limit) shares
   the one overflow slot [sysno_limit], and a hostile trap number can
   neither grow the table nor index past it. *)
let sysno_limit = 1024

let sys_slot sysno = if sysno >= 0 && sysno < sysno_limit then sysno else sysno_limit

let sys_agg_for e sysno =
  let i = sys_slot sysno in
  let t = e.e_by_sysno in
  match if i < Array.length t then t.(i) else None with
  | Some a -> a
  | None ->
    let a = { sa_calls = 0; sa_errors = 0; sa_hist = Hist.create () } in
    if i >= Array.length t then begin
      let t' =
        Array.make (min (sysno_limit + 1) (max (i + 1) (2 * Array.length t))) None
      in
      Array.blit t 0 t' 0 (Array.length t);
      e.e_by_sysno <- t'
    end;
    e.e_by_sysno.(i) <- Some a;
    a

let layer_agg_for e key =
  match Hashtbl.find_opt e.e_by_layer key with
  | Some a -> a
  | None ->
    let a =
      { la_traps = 0; la_decodes = 0; la_encodes = 0; la_rewrites = 0;
        la_self_us = 0; la_total_us = 0; la_hist = Hist.create () }
    in
    Hashtbl.replace e.e_by_layer key a;
    a

(* Faults deliberately injected by agents (faultinject and friends):
   counted exactly whenever the engine is on, independent of the
   sampler — an injected fault is an event of record, not a latency
   sample. *)
let note_injected () =
  let e = !cur in
  if e.e_on then e.e_injected <- e.e_injected + 1

let reset () =
  let e = !cur in
  Hashtbl.reset e.e_spans;
  Hashtbl.reset e.e_open_by_pid;
  Array.fill e.e_by_sysno 0 (Array.length e.e_by_sysno) None;
  Hashtbl.reset e.e_by_layer;
  e.e_next_span <- 0;
  e.e_completed <- 0;
  e.e_aborted <- 0;
  e.e_injected <- 0;
  (* keep the configured rate but restart the decision stream, so a
     reset window replays the same sampling choices *)
  e.e_sample_rng <- Sim.Rng.create e.e_sample_seed;
  Ring.clear e.e_ring

(* ---------- causal edges (DESIGN.md §3.9) ---------- *)

let set_shard i = !cur.e_shard <- i

(* Innermost open span of [pid] — [current ()] without the ambient
   context: the causal hooks run inside the kernel dispatcher, where
   the current-process register is cleared, but they know the pid. *)
let innermost e pid =
  (* Exact, not a heuristic: [e_open_by_pid] holds a pid only while it
     has an open sampled span ([finish_span] removes an emptied stack),
     so when the table is empty the lookup below can only answer 0.  At
     1-in-N nearly every trap finds it empty and pays no hash. *)
  if Hashtbl.length e.e_open_by_pid = 0 then 0
  else
    match Hashtbl.find e.e_open_by_pid pid with
    | { contents = s :: _ } -> s
    | { contents = [] } | (exception Not_found) -> 0

(* An edge is a record of the one log; its [seq] is its position there
   (the ring's [pushed] once it is in), monotone per engine.  Both
   callers push an edge only into a sampled span: like a segment or a
   trace record, an edge into an unsampled trap would be a record every
   reader drops.  The source may be unsampled or span-less; its pid
   still names it. *)
let emit_edge e ~kind ~src_shard ~src_span ~src_pid ~dst_span ~dst_pid ~detail =
  Ring.push e.e_ring
    (Span.Edge
       {
         Causal.ed_kind = kind;
         ed_src_shard = src_shard;
         ed_src_span = src_span;
         ed_src_pid = src_pid;
         ed_shard = e.e_shard;
         ed_dst_span = dst_span;
         ed_dst_pid = dst_pid;
         ed_t_us = e.e_clock_fn ();
         ed_seq = Ring.pushed e.e_ring + 1;
         ed_detail = detail;
       })

(* Where an edge starts: the shard, the innermost open span of [pid]
   there (0 with obs off), and [pid].  The kernel keeps each pending
   half of a fork or signal edge on the object it describes — the
   child process, the signal's pending bit — and completes it here. *)
type origin = int * int * int

let causal_origin pid =
  let e = !cur in
  (e.e_shard, (if e.e_on then innermost e pid else 0), pid)

let causal_edge kind ~origin:(src_shard, src_span, src_pid) ~span ~pid
    ~detail =
  let e = !cur in
  if e.e_on && span > 0 then
    emit_edge e ~kind ~src_shard ~src_span ~src_pid ~dst_span:span
      ~dst_pid:pid ~detail

(* A channel is an immediate int — the buffer's id with its kind in
   the low two bits — so the kernel's read and write paths build no
   key, with obs on or off. *)
let chan_pipe id = id lsl 2
let chan_fifo ino = (ino lsl 2) lor 1
let chan_sock id = (id lsl 2) lor 2

let chan_kind chan =
  match chan land 3 with 0 -> "pipe" | 1 -> "fifo" | _ -> "sock"

let rec decimal_width n = if n < 10 then 1 else 1 + decimal_width (n / 10)

(* The digits of [n >= 0] into [b], the last at [i]; top level, so a
   call allocates no closure. *)
let rec put_digits b i n =
  Bytes.set b i (Char.chr (Char.code '0' + n mod 10));
  if n >= 10 then put_digits b (i - 1) (n / 10)

(* [n >= 0] in decimal at [pos] of [b]; the position after it. *)
let put_decimal b pos n =
  let w = decimal_width n in
  put_digits b (pos + w - 1) n;
  pos + w

(* A pipe edge's detail, "<kind>#<id> bytes <lo>..<hi>", rendered into
   one string of computed length.  Channel ids and byte offsets count
   up from 0. *)
let pipe_edge_detail chan ~lo ~hi =
  let kind = chan_kind chan and id = chan asr 2 in
  let k = String.length kind in
  let b =
    Bytes.create
      (k + 1 + decimal_width id + 7 + decimal_width lo + 2 + decimal_width hi)
  in
  Bytes.blit_string kind 0 b 0 k;
  Bytes.set b k '#';
  let pos = put_decimal b (k + 1) id in
  Bytes.blit_string " bytes " 0 b pos 7;
  let pos = put_decimal b (pos + 7) lo in
  Bytes.blit_string ".." 0 b pos 2;
  ignore (put_decimal b (pos + 2) hi);
  Bytes.unsafe_to_string b

(* A ring's writer stamps: the absolute byte interval each write put
   in, with its span, oldest first.  The ring owns them and counts the
   offsets itself, with obs on or off; a read consumes from the front,
   so they are bounded by the bytes written with obs on and not yet
   read.  A ring never stamped holds [No_stamps], an immediate every
   such ring shares; its first stamped write makes its queue, a FIFO of
   its own rather than a [Queue.t] behind a constructor, whose box
   would cost every stamped ring 2 more words. *)
type stamp = {
  w_start : int;
  w_stop : int;
  w_span : int;
  w_pid : int;
}

type cell = Nil | Cell of { w : stamp; mutable newer : cell }
type stamps = No_stamps | Stamps of { mutable first : cell; mutable last : cell }

let no_stamps = No_stamps

let causal_pipe_write q ~at ~pid ~bytes =
  let e = !cur in
  if e.e_on && bytes > 0 then begin
    let c =
      Cell
        { w = { w_start = at; w_stop = at + bytes; w_span = innermost e pid;
                w_pid = pid };
          newer = Nil }
    in
    match q with
    | No_stamps -> Stamps { first = c; last = c }
    | Stamps s ->
      (match s.last with Cell l -> l.newer <- c | Nil -> s.first <- c);
      s.last <- c;
      q
  end
  else q

let rec seen_writer span pid = function
  | [] -> false
  | w :: tl -> (w.w_span = span && w.w_pid = pid) || seen_writer span pid tl

let drop_oldest = function
  | Stamps ({ first = Cell { newer; _ }; _ } as s) ->
    s.first <- newer;
    if newer == Nil then s.last <- Nil
  | Stamps { first = Nil; _ } | No_stamps -> ()

(* One read's pass over a ring's stamps: one edge per distinct writer
   span the bytes [\[lo, hi)] came from, if the reader's span is
   sampled; a read into an unsampled trap only drops the stamps it
   used up, and builds no detail.  The first writer linked is
   held as the ints [span1] and [pid1] ([pid1] is -1 until then), so a
   read that links one writer, as nearly every read does, conses
   nothing; [seen] holds the later distinct ones.  Top level, so a
   read allocates no closure. *)
let rec consume e q ~chan ~lo ~hi ~dst_span ~pid ~span1 ~pid1 seen =
  match q with
  | Stamps { first = Cell { w; _ }; _ } ->
    if w.w_stop <= lo then begin
      (* consumed before: by an earlier read, or with obs off *)
      drop_oldest q;
      consume e q ~chan ~lo ~hi ~dst_span ~pid ~span1 ~pid1 seen
    end
    else if w.w_start < hi then begin
      let first = pid1 < 0 in
      let fresh =
        first
        || not
             ((w.w_span = span1 && w.w_pid = pid1)
              || seen_writer w.w_span w.w_pid seen)
      in
      if fresh && dst_span > 0 then
        emit_edge e ~kind:Causal.Pipe ~src_shard:e.e_shard ~src_span:w.w_span
          ~src_pid:w.w_pid ~dst_span ~dst_pid:pid
          ~detail:
            (pipe_edge_detail chan ~lo:(max w.w_start lo)
               ~hi:(min w.w_stop hi));
      (* a write reaching past this read's window stays queued *)
      if w.w_stop <= hi then begin
        drop_oldest q;
        if first then
          consume e q ~chan ~lo ~hi ~dst_span ~pid ~span1:w.w_span
            ~pid1:w.w_pid seen
        else
          consume e q ~chan ~lo ~hi ~dst_span ~pid ~span1 ~pid1
            (if fresh then w :: seen else seen)
      end
    end
  | Stamps { first = Nil; _ } | No_stamps -> ()

let causal_pipe_read q ~chan ~at:lo ~pid ~bytes =
  let e = !cur in
  if e.e_on && bytes > 0 then
    consume e q ~chan ~lo ~hi:(lo + bytes) ~dst_span:(innermost e pid) ~pid
      ~span1:0 ~pid1:(-1) []

(* ---------- streaming ---------- *)

let poll_of e c = Stream.poll c e.e_ring
let poll c = poll_of !cur c

(* ---------- span lifecycle ---------- *)

let current () =
  let e = !cur in
  (* the [innermost] guard, taken before the context read *)
  if (not e.e_on) || Hashtbl.length e.e_open_by_pid = 0 then 0
  else innermost e (e.e_context_fn ())

(* Unsampled traps are represented by a negative sentinel carrying the
   sysno, so their close can still count errors exactly without any
   span state having been allocated. *)
let unsampled_sentinel sysno = -(sysno + 1)
let sentinel_sysno span = -span - 1

let span_begin ~pid ~sysno =
  let e = !cur in
  if not e.e_on then 0
  else begin
    (* calls are counted at open — exact whatever the sampling rate,
       and whether or not the trap later aborts *)
    let agg = sys_agg_for e sysno in
    agg.sa_calls <- agg.sa_calls + 1;
    let sampled =
      e.e_sample_n <= 1 || Sim.Rng.int e.e_sample_rng e.e_sample_n = 0
    in
    (* an out-of-range sysno carries its overflow slot instead, so a
       negative one cannot yield a sentinel >= 0 that would collide
       with a sampled span's id *)
    if not sampled then unsampled_sentinel (sys_slot sysno)
    else begin
      e.e_next_span <- e.e_next_span + 1;
      let id = e.e_next_span in
      Hashtbl.replace e.e_spans id
        { s_id = id; s_pid = pid; s_sysno = sysno;
          s_begin_us = e.e_clock_fn (); s_frames = [] };
      (match Hashtbl.find_opt e.e_open_by_pid pid with
       | Some stack -> stack := id :: !stack
       | None -> Hashtbl.replace e.e_open_by_pid pid (ref [ id ]));
      id
    end
  end

(* Pop the top frame, fold its duration into the parent's child time,
   and publish it as a segment. *)
let close_top e st ~now =
  match st.s_frames with
  | [] -> ()
  | fr :: rest ->
    st.s_frames <- rest;
    let total = now - fr.f_enter_us in
    let self = total - fr.f_child_us in
    (match rest with
     | parent :: _ -> parent.f_child_us <- parent.f_child_us + total
     | [] -> ());
    Ring.push e.e_ring
      (Span.Segment
         {
           Span.span = st.s_id;
           pid = st.s_pid;
           sysno = st.s_sysno;
           layer = fr.f_layer;
           depth = fr.f_depth;
           start_us = fr.f_enter_us;
           self_us = self;
           total_us = total;
           decodes = fr.f_decodes;
           encodes = fr.f_encodes;
           rewrites = fr.f_rewrites;
         });
    let agg = layer_agg_for e (fr.f_depth, fr.f_layer) in
    agg.la_traps <- agg.la_traps + 1;
    agg.la_decodes <- agg.la_decodes + fr.f_decodes;
    agg.la_encodes <- agg.la_encodes + fr.f_encodes;
    agg.la_rewrites <- agg.la_rewrites + fr.f_rewrites;
    agg.la_self_us <- agg.la_self_us + self;
    agg.la_total_us <- agg.la_total_us + total;
    Hist.observe agg.la_hist self

let layer_enter ~span layer =
  if span <= 0 then None
  else
    let e = !cur in
    match Hashtbl.find_opt e.e_spans span with
    | None -> None (* span already ended/aborted: record nothing *)
    | Some st ->
      let fr =
        {
          f_span = span;
          f_layer = layer;
          f_depth = List.length st.s_frames;
          f_enter_us = e.e_clock_fn ();
          f_child_us = 0;
          f_decodes = 0;
          f_encodes = 0;
          f_rewrites = 0;
        }
      in
      st.s_frames <- fr :: st.s_frames;
      Some fr

let layer_exit fr =
  let e = !cur in
  match Hashtbl.find_opt e.e_spans fr.f_span with
  | None -> () (* span aborted underneath us *)
  | Some st ->
    if List.memq fr st.s_frames then begin
      let now = e.e_clock_fn () in
      (* close any younger frames an exception skipped over first *)
      let rec loop () =
        match st.s_frames with
        | top :: _ ->
          close_top e st ~now;
          if not (top == fr) then loop ()
        | [] -> ()
      in
      loop ()
    end

let in_layer ~span layer f =
  match layer_enter ~span layer with
  | None -> f ()
  | Some fr ->
    (match f () with
     | v ->
       layer_exit fr;
       v
     | exception e ->
       layer_exit fr;
       raise e)

let finish_span e st ~error ~was_aborted =
  let now = e.e_clock_fn () in
  while st.s_frames <> [] do
    close_top e st ~now
  done;
  Hashtbl.remove e.e_spans st.s_id;
  (match Hashtbl.find_opt e.e_open_by_pid st.s_pid with
   | Some stack ->
     stack := List.filter (fun id -> id <> st.s_id) !stack;
     if !stack = [] then Hashtbl.remove e.e_open_by_pid st.s_pid
   | None -> ());
  let agg = sys_agg_for e st.s_sysno in
  (* sa_calls was counted at span_begin; only errors and the (sampled)
     latency histogram fold in here *)
  if error then agg.sa_errors <- agg.sa_errors + 1;
  Hist.observe agg.sa_hist (now - st.s_begin_us);
  if was_aborted then begin
    e.e_aborted <- e.e_aborted + 1;
    Ring.push e.e_ring
      (Span.Mark
         { Span.m_span = st.s_id; m_pid = st.s_pid; m_t_us = now;
           m_kind = "abort"; m_detail = string_of_int st.s_sysno })
  end
  else e.e_completed <- e.e_completed + 1

let span_end span ~error =
  let e = !cur in
  if span > 0 then
    match Hashtbl.find_opt e.e_spans span with
    | Some st -> finish_span e st ~error ~was_aborted:false
    | None -> ()
  else if span < 0 && error then begin
    (* unsampled trap: errors stay exact via the sysno sentinel *)
    let agg = sys_agg_for e (sentinel_sysno span) in
    agg.sa_errors <- agg.sa_errors + 1
  end

let abort_pid pid =
  let e = !cur in
  if Hashtbl.length e.e_rewrites > 0 then Hashtbl.remove e.e_rewrites pid;
  match Hashtbl.find_opt e.e_open_by_pid pid with
  | None -> ()
  | Some stack ->
    let ids = !stack in
    List.iter
      (fun id ->
        match Hashtbl.find_opt e.e_spans id with
        | Some st -> finish_span e st ~error:false ~was_aborted:true
        | None -> ())
      ids

(* ---------- codec, pool and rewrite counting ---------- *)

let note_trap_fast () =
  let e = !cur in
  e.e_traps <- e.e_traps + 1;
  e.e_fast_path <- e.e_fast_path + 1

let note_trap_intercepted () =
  let e = !cur in
  e.e_traps <- e.e_traps + 1;
  e.e_intercepted <- e.e_intercepted + 1

let note_crossing () =
  let e = !cur in
  e.e_crossings <- e.e_crossings + 1

let note_agent_call () =
  let e = !cur in
  e.e_agent_calls <- e.e_agent_calls + 1

let note_pool_hit () =
  let e = !cur in
  e.e_pool_hits <- e.e_pool_hits + 1

let note_pool_miss () =
  let e = !cur in
  e.e_pool_misses <- e.e_pool_misses + 1

let note_pool_recycled () =
  let e = !cur in
  e.e_pool_recycled <- e.e_pool_recycled + 1

let note_pool_dropped () =
  let e = !cur in
  e.e_pool_dropped <- e.e_pool_dropped + 1

(* The exact count always; the top frame of a sampled span too. *)
let note_decode span =
  let e = !cur in
  e.e_decodes <- e.e_decodes + 1;
  if span > 0 then
    match Hashtbl.find_opt e.e_spans span with
    | Some { s_frames = fr :: _; _ } -> fr.f_decodes <- fr.f_decodes + 1
    | _ -> ()

let note_encode span =
  let e = !cur in
  e.e_encodes <- e.e_encodes + 1;
  if span > 0 then
    match Hashtbl.find_opt e.e_spans span with
    | Some { s_frames = fr :: _; _ } -> fr.f_encodes <- fr.f_encodes + 1
    | _ -> ()

let rewrites_of e pid =
  if Hashtbl.length e.e_rewrites = 0 then 0
  else match Hashtbl.find e.e_rewrites pid with
    | n -> n
    | exception Not_found -> 0

let rewrites () =
  let e = !cur in
  rewrites_of e (e.e_context_fn ())

let note_rewrite span =
  let e = !cur in
  let pid = e.e_context_fn () in
  if pid > 0 then Hashtbl.replace e.e_rewrites pid (rewrites_of e pid + 1);
  if span > 0 then
    match Hashtbl.find_opt e.e_spans span with
    | Some { s_frames = fr :: _; _ } -> fr.f_rewrites <- fr.f_rewrites + 1
    | _ -> ()

let codec_of e =
  { Codec.traps = e.e_traps; intercepted = e.e_intercepted;
    fast_path = e.e_fast_path; decodes = e.e_decodes;
    encodes = e.e_encodes; crossings = e.e_crossings;
    agent_calls = e.e_agent_calls }

let env_pool_of e =
  { Env_pool.hits = e.e_pool_hits; misses = e.e_pool_misses;
    recycled = e.e_pool_recycled; dropped = e.e_pool_dropped }

(* ---------- trace-agent records and marks ---------- *)

let record_call c =
  let e = !cur in
  if e.e_on then Ring.push e.e_ring (Span.Call c)

let record_mark ?(span = 0) ?pid ~kind ~detail () =
  let e = !cur in
  if e.e_on then begin
    let pid = match pid with Some p -> p | None -> e.e_context_fn () in
    Ring.push e.e_ring
      (Span.Mark
         { Span.m_span = span; m_pid = pid; m_t_us = e.e_clock_fn ();
           m_kind = kind; m_detail = detail })
  end

(* ---------- reading the recorder ---------- *)

let records_of e = Ring.to_list e.e_ring
let drain_of e = Ring.drain e.e_ring

let records () = records_of !cur
let drain () = drain_of !cur
let dropped () = Ring.dropped !cur.e_ring

let segments () =
  List.filter_map
    (function Span.Segment s -> Some s | _ -> None)
    (records ())

(* ---------- metrics snapshot ---------- *)

type syscall_metrics = {
  sm_sysno : int;
  sm_calls : int;
  sm_errors : int;
  sm_hist : Hist.t;
}

type layer_metrics = {
  lm_depth : int;
  lm_layer : string;
  lm_traps : int;
  lm_decodes : int;
  lm_encodes : int;
  lm_rewrites : int;
  lm_self_us : int;
  lm_total_us : int;
  lm_hist : Hist.t;
}

type metrics = {
  m_spans : int;
  m_aborted : int;
  m_injected : int;
  m_open : int;
  m_dropped : int;
  m_sample_n : int;
  m_syscalls : syscall_metrics list;
  m_layers : layer_metrics list;
  m_codec : Codec.t;
  m_env_pool : Env_pool.t;
}

let metrics_of e =
  (* in sysno order, read off the table from the top down *)
  let syscalls = ref [] in
  for sysno = Array.length e.e_by_sysno - 1 downto 0 do
    match e.e_by_sysno.(sysno) with
    | Some a ->
      syscalls :=
        { sm_sysno = sysno; sm_calls = a.sa_calls; sm_errors = a.sa_errors;
          sm_hist = Hist.copy a.sa_hist }
        :: !syscalls
    | None -> ()
  done;
  let layers =
    Hashtbl.fold
      (fun (depth, layer) a acc ->
        { lm_depth = depth; lm_layer = layer; lm_traps = a.la_traps;
          lm_decodes = a.la_decodes; lm_encodes = a.la_encodes;
          lm_rewrites = a.la_rewrites; lm_self_us = a.la_self_us;
          lm_total_us = a.la_total_us; lm_hist = Hist.copy a.la_hist }
        :: acc)
      e.e_by_layer []
    |> List.sort (fun a b -> compare (a.lm_depth, a.lm_layer) (b.lm_depth, b.lm_layer))
  in
  {
    m_spans = e.e_completed;
    m_aborted = e.e_aborted;
    m_injected = e.e_injected;
    m_open = Hashtbl.length e.e_spans;
    m_dropped = Ring.dropped e.e_ring;
    m_sample_n = e.e_sample_n;
    m_syscalls = !syscalls;
    m_layers = layers;
    m_codec = codec_of e;
    m_env_pool = env_pool_of e;
  }

let metrics () = metrics_of !cur

(* Exact vs estimated (DESIGN.md §3.4): per-syscall [calls]/[errors]
   are exact at any sampling rate; everything derived from spans the
   sampler kept — latency histograms, percentiles, span/abort counts,
   per-layer traps and µs sums — covers the 1-in-N subset and is
   reported raw, with the rate in ["sample_n"] and pre-scaled ["est_*"]
   companions emitted when N > 1. *)
let metrics_to_json ?(name = fun n -> Printf.sprintf "syscall#%d" n) (m : metrics) =
  let scale = m.m_sample_n in
  let est fields =
    if scale <= 1 then []
    else List.map (fun (k, v) -> ("est_" ^ k, Json.Int (v * scale))) fields
  in
  let hist_json h =
    Json.Obj
      ([
         ("count", Json.Int (Hist.count h));
         ("sum_us", Json.Int (Hist.sum_us h));
         ("max_us", Json.Int (Hist.max_us h));
         ("p50_us", Json.Int (Hist.quantile h 0.50));
         ("p90_us", Json.Int (Hist.quantile h 0.90));
         ("p99_us", Json.Int (Hist.quantile h 0.99));
       ]
      @ est [ ("count", Hist.count h); ("sum_us", Hist.sum_us h) ]
      @ [
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (i, n) ->
                   Json.Obj
                     [ ("lo_us", Json.Int (Hist.lower_bound i)); ("count", Json.Int n) ])
                 (Hist.nonzero h)) );
        ])
  in
  Json.Obj
    ([
       ("spans", Json.Int m.m_spans);
       ("aborted", Json.Int m.m_aborted);
       ("injected", Json.Int m.m_injected);
       ("open", Json.Int m.m_open);
       ("dropped", Json.Int m.m_dropped);
       ("sample_n", Json.Int m.m_sample_n);
     ]
    @ est [ ("spans", m.m_spans); ("aborted", m.m_aborted) ]
    @ [
        ( "syscalls",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("sysno", Json.Int s.sm_sysno);
                     ("name", Json.Str (name s.sm_sysno));
                     ("calls", Json.Int s.sm_calls);
                     ("errors", Json.Int s.sm_errors);
                     ("latency", hist_json s.sm_hist);
                   ])
               m.m_syscalls) );
        ( "layers",
          Json.Arr
            (List.map
               (fun l ->
                 Json.Obj
                   ([
                      ("depth", Json.Int l.lm_depth);
                      ("layer", Json.Str l.lm_layer);
                      ("traps", Json.Int l.lm_traps);
                      ("decodes", Json.Int l.lm_decodes);
                      ("encodes", Json.Int l.lm_encodes);
                      ("rewrites", Json.Int l.lm_rewrites);
                      ("self_us", Json.Int l.lm_self_us);
                      ("total_us", Json.Int l.lm_total_us);
                      ("p50_self_us", Json.Int (Hist.quantile l.lm_hist 0.50));
                      ("p90_self_us", Json.Int (Hist.quantile l.lm_hist 0.90));
                      ("p99_self_us", Json.Int (Hist.quantile l.lm_hist 0.99));
                    ]
                   @ est
                       [ ("traps", l.lm_traps); ("self_us", l.lm_self_us);
                         ("total_us", l.lm_total_us) ]))
               m.m_layers) );
        ("codec", Codec.to_json m.m_codec);
        ("env_pool", Env_pool.to_json m.m_env_pool);
      ])
