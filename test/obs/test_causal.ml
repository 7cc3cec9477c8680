(* Causal-observability tests (DESIGN.md §3.9): fork/signal/pipe edge
   recording with byte-stable reruns, slice reachability, chrome flow
   events, cross-shard signal edges through Cluster mail, flamegraph
   fold conservation, stream cursors delivering every record exactly
   once, and watchdog rules from parsing through the metrics_json
   block to the shipped examples file tripping on the EIO fault
   campaign. *)

open Abi
open Tharness
module F = Agents.Faultinject

let occurrences needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

(* --- the shared workload -------------------------------------------------

   The depth-0 fork / pipe / signal fan-out the bench gate runs: three
   children each write one line down a shared pipe and sigsuspend; the
   parent reads every byte, then kills and reaps each child.  Every
   edge kind appears at least three times. *)

let msg i = Printf.sprintf "child %d reporting in\n" i

let causal_session ?(setup = ignore) () =
  Obs.reset ();
  let k = fresh_kernel () in
  setup k;
  let status =
    boot_k k (fun () ->
        Obs.enable ();
        let r, w = Libc.Unistd.ok_exn "pipe" (Libc.Unistd.pipe ()) in
        let children =
          List.init 3 (fun i ->
              Libc.Unistd.ok_exn "fork"
                (Libc.Unistd.fork ~child:(fun () ->
                     ignore
                       (Libc.Unistd.signal Signal.sigusr1
                          (Value.H_fn (fun _ -> ())));
                     ignore (Libc.Unistd.write w (msg i));
                     ignore (Libc.Unistd.sigsuspend 0);
                     0)))
        in
        let want =
          List.fold_left (fun acc i -> acc + String.length (msg i)) 0 [ 0; 1; 2 ]
        in
        let buf = Bytes.create 64 in
        let got = ref 0 in
        while !got < want do
          match Libc.Unistd.read r buf 64 with
          | Ok n when n > 0 -> got := !got + n
          | _ -> got := want
        done;
        List.iter
          (fun pid ->
            ignore (Libc.Unistd.kill pid Signal.sigusr1);
            ignore (Libc.Unistd.waitpid pid 0))
          children;
        ignore (Libc.Unistd.close r);
        ignore (Libc.Unistd.close w);
        Obs.disable ();
        0)
  in
  check_exit "causal session" 0 status;
  k

let count kind edges =
  List.length
    (List.filter (fun (e : Obs.Causal.edge) -> e.Obs.Causal.ed_kind = kind) edges)

(* The edge table: the edge records of a drain, in merge order. *)
let drain_edges k = Obs.Span.edges (Kernel.drain_obs k)

let edge_line e = Obs.Span.to_line (Obs.Span.Edge e)

(* --- the edge table ------------------------------------------------------ *)

let test_edge_kinds () =
  let k = causal_session () in
  let records = Kernel.drain_obs k in
  let edges = Obs.Span.edges records in
  Alcotest.(check int) "three fork edges" 3 (count Obs.Causal.Fork edges);
  Alcotest.(check int) "three signal edges" 3 (count Obs.Causal.Signal edges);
  Alcotest.(check bool) "at least three pipe edges" true
    (count Obs.Causal.Pipe edges >= 3);
  List.iter
    (fun (e : Obs.Causal.edge) ->
      Alcotest.(check int) "single shard: src" 0 e.Obs.Causal.ed_src_shard;
      Alcotest.(check int) "single shard: dst" 0 e.Obs.Causal.ed_shard;
      match e.Obs.Causal.ed_kind with
      | Obs.Causal.Fork | Obs.Causal.Signal ->
        Alcotest.(check int) "pid 1 is the cause" 1 e.Obs.Causal.ed_src_pid
      | Obs.Causal.Pipe ->
        Alcotest.(check int) "pid 1 consumes the pipe" 1 e.Obs.Causal.ed_dst_pid)
    edges;
  List.iter
    (fun (e : Obs.Causal.edge) ->
      if e.Obs.Causal.ed_kind = Obs.Causal.Signal then
        Alcotest.(check string) "signal edge names the signal" "SIGUSR1"
          e.Obs.Causal.ed_detail)
    edges;
  (* an edge's seq is its 1-based position in the log, so the log
     already holds the edges in merge order *)
  let in_log =
    List.concat
      (List.mapi
         (fun i -> function
           | Obs.Span.Edge e ->
             Alcotest.(check int) "seq is the log position" (i + 1)
               e.Obs.Causal.ed_seq;
             [ e ]
           | _ -> [])
         records)
  in
  Alcotest.(check bool) "log already in merge order" true (in_log = edges);
  Alcotest.(check int) "drain emptied the log" 0
    (List.length (drain_edges k))

let test_edges_byte_identical () =
  let render k = List.map edge_line (drain_edges k) in
  let a = render (causal_session ()) in
  let b = render (causal_session ()) in
  Alcotest.(check bool) "non-empty" true (a <> []);
  Alcotest.(check (list string)) "two same-seed runs render identically" a b

let test_edge_jsonl_roundtrip () =
  let edges = drain_edges (causal_session ()) in
  List.iter
    (fun e ->
      match Obs.Span.of_line (edge_line e) with
      | Ok r ->
        Alcotest.(check bool) "line round-trips" true (r = Obs.Span.Edge e)
      | Error err ->
        Alcotest.failf "unparseable edge line %s: %s" (edge_line e) err)
    edges

(* --- pipe bookkeeping ----------------------------------------------------- *)

(* The stamp algorithm as it stood when channels were [(kind, id)]
   pairs: a tuple list appended at its tail, a [Hashtbl] of seen
   writers per read and a [Printf] detail.  It takes the ring's own
   byte offsets, as the engine does, stamps and links only while obs
   is on, and emits an edge only toward a sampled reader.  The
   engine's queue and immediate-int channels must reproduce its edges
   exactly. *)
module Ref_pipes = struct
  let writes tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

  let write tbl key ~at ~span ~pid ~bytes =
    if bytes > 0 then
      Hashtbl.replace tbl key (writes tbl key @ [ (at, at + bytes, span, pid) ])

  (* edges as (src span, src pid, dst span, dst pid, detail) *)
  let read tbl key ~at:lo ~span ~pid ~bytes emit =
    if bytes > 0 then begin
      let hi = lo + bytes in
      let seen = Hashtbl.create 4 in
      let rec consume = function
        | [] -> []
        | ((s, t, wspan, wpid) as iv) :: tl ->
          if t <= lo then consume tl
          else if s >= hi then iv :: tl
          else begin
            if span > 0 && not (Hashtbl.mem seen (wspan, wpid)) then begin
              Hashtbl.replace seen (wspan, wpid) ();
              emit
                ( wspan, wpid, span, pid,
                  Printf.sprintf "%s#%d bytes %d..%d" (fst key) (snd key)
                    (max s lo) (min t hi) )
            end;
            if t <= hi then consume tl else iv :: tl
          end
      in
      Hashtbl.replace tbl key (consume (writes tbl key))
    end
end

type pipe_op =
  | Open_span of int (* pid *)
  | Close_span of int
  | Write of int * int * int * int (* kind, id, pid, bytes *)
  | Read of int * int * int * int
  | Switch (* obs on <-> off *)

let show_pipe_op = function
  | Open_span p -> Printf.sprintf "open %d" p
  | Close_span p -> Printf.sprintf "close %d" p
  | Write (k, i, p, n) -> Printf.sprintf "write k%d#%d pid %d %dB" k i p n
  | Read (k, i, p, n) -> Printf.sprintf "read k%d#%d pid %d %dB" k i p n
  | Switch -> "switch"

let gen_pipe_op =
  let open QCheck.Gen in
  let pid = int_range 1 3 and kind = int_range 0 2 and id = int_range 1 2 in
  frequency
    [ (2, map (fun p -> Open_span p) pid);
      (1, map (fun p -> Close_span p) pid);
      (4, map (fun (k, i, p, n) -> Write (k, i, p, n))
           (quad kind id pid (int_range 0 24)));
      (4, map (fun (k, i, p, n) -> Read (k, i, p, n))
           (quad kind id pid (int_range 0 40)));
      (1, return Switch) ]

(* A ring as the engine sees it: the byte counts the ring keeps with
   obs on or off, and the stamps it holds. *)
type ring = { mutable wrote : int; mutable taken : int; mutable stamps : Obs.stamps }

(* Random span nesting (sampled and not), writes and reads over six
   rings, reads taking at most what is buffered, and obs switched on
   and off between them: the engine's pipe edges equal the
   reference's, detail text included. *)
let test_pipe_edges_match_reference =
  QCheck.Test.make ~name:"pipe edges match the list algorithm" ~count:300
    QCheck.(
      pair (int_range 1 3)
        (make ~print:(Print.list show_pipe_op) Gen.(list_size (int_range 0 80) gen_pipe_op)))
    (fun (rate, ops) ->
      let kinds = [| "pipe"; "fifo"; "sock" |] in
      let obs_chan k i =
        match k with 0 -> Obs.chan_pipe i | 1 -> Obs.chan_fifo i | _ -> Obs.chan_sock i
      in
      let stacks = Hashtbl.create 4 in
      let stack pid = Option.value ~default:[] (Hashtbl.find_opt stacks pid) in
      (* the engine's innermost open span: sampled spans only *)
      let innermost pid =
        match List.filter (fun s -> s > 0) (stack pid) with s :: _ -> s | [] -> 0
      in
      let rings = Hashtbl.create 8 in
      let ring k i =
        match Hashtbl.find_opt rings (k, i) with
        | Some r -> r
        | None ->
          let r = { wrote = 0; taken = 0; stamps = Obs.no_stamps } in
          Hashtbl.replace rings (k, i) r;
          r
      in
      let ref_tbl = Hashtbl.create 8 in
      let want = ref [] in
      let got =
        Obs.with_engine (Obs.engine ()) (fun () ->
          Obs.set_sampling ~seed:7 rate;
          Obs.enable ();
          List.iter
            (function
              | Open_span pid ->
                Hashtbl.replace stacks pid (Obs.span_begin ~pid ~sysno:3 :: stack pid)
              | Close_span pid ->
                (match stack pid with
                 | s :: rest ->
                   Obs.span_end s ~error:false;
                   Hashtbl.replace stacks pid rest
                 | [] -> ())
              | Switch -> if Obs.enabled () then Obs.disable () else Obs.enable ()
              | Write (k, i, pid, bytes) ->
                let r = ring k i in
                if Obs.enabled () then
                  Ref_pipes.write ref_tbl (kinds.(k), i) ~at:r.wrote
                    ~span:(innermost pid) ~pid ~bytes;
                r.stamps <- Obs.causal_pipe_write r.stamps ~at:r.wrote ~pid ~bytes;
                r.wrote <- r.wrote + bytes
              | Read (k, i, pid, bytes) ->
                let r = ring k i in
                let bytes = min bytes (r.wrote - r.taken) in
                if Obs.enabled () then
                  Ref_pipes.read ref_tbl (kinds.(k), i) ~at:r.taken
                    ~span:(innermost pid) ~pid ~bytes
                    (fun e -> want := e :: !want);
                Obs.causal_pipe_read r.stamps ~chan:(obs_chan k i) ~at:r.taken
                  ~pid ~bytes;
                r.taken <- r.taken + bytes)
            ops;
          Obs.Span.edges (Obs.drain ()))
      in
      let got =
        List.map
          (fun (e : Obs.Causal.edge) ->
            ( e.Obs.Causal.ed_src_span, e.Obs.Causal.ed_src_pid,
              e.Obs.Causal.ed_dst_span, e.Obs.Causal.ed_dst_pid,
              e.Obs.Causal.ed_detail ))
          got
      in
      got = List.rev !want)

(* One process, one pipe, obs at 1-in-1, switched on and off between
   the steps: the pipe edges as (write span, read span, detail), the
   n-th write and read span standing for the n-th such trap observed. *)
type pipe_step = On | Off | Put of string | Take of int

let pipe_steps steps =
  Obs.reset ();
  let k = fresh_kernel () in
  let status =
    boot_k k (fun () ->
        let r, w = Libc.Unistd.ok_exn "pipe" (Libc.Unistd.pipe ()) in
        let buf = Bytes.create 64 in
        List.iter
          (function
            | On -> Obs.enable ()
            | Off -> Obs.disable ()
            | Put s -> ignore (Libc.Unistd.ok_exn "write" (Libc.Unistd.write w s))
            | Take n -> ignore (Libc.Unistd.ok_exn "read" (Libc.Unistd.read r buf n)))
          steps;
        Obs.disable ();
        ignore (Libc.Unistd.close r);
        ignore (Libc.Unistd.close w);
        0)
  in
  check_exit "pipe steps" 0 status;
  let records = Kernel.drain_obs k in
  let spans sysno =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Obs.Span.Segment s when s.Obs.Span.sysno = sysno -> Some s.Obs.Span.span
           | _ -> None)
         records)
  in
  let index what l x =
    match List.find_index (( = ) x) l with
    | Some i -> Printf.sprintf "%s %d" what i
    | None -> Printf.sprintf "%s span %d (not observed)" what x
  in
  let writes = spans Sysno.sys_write and reads = spans Sysno.sys_read in
  List.filter_map
    (fun (e : Obs.Causal.edge) ->
      if e.Obs.Causal.ed_kind <> Obs.Causal.Pipe then None
      else
        Some
          ( index "write" writes e.Obs.Causal.ed_src_span,
            index "read" reads e.Obs.Causal.ed_dst_span,
            e.Obs.Causal.ed_detail ))
    (Obs.Span.edges records)

let check_pipe_edges what want got =
  Alcotest.(check (list (triple string string string))) what want got

(* The stamps count the ring's own offsets, so switching obs while
   bytes sit in the pipe neither loses an edge nor links a read to the
   wrong writer. *)
let test_pipe_obs_on_throughout () =
  check_pipe_edges "two edges at the ring's offsets"
    [ ("write 0", "read 0", "pipe#1 bytes 0..10");
      ("write 1", "read 1", "pipe#1 bytes 10..15") ]
    (pipe_steps [ On; Put "0123456789"; Take 10; Put "abcde"; Take 5 ])

let test_pipe_obs_switched_on_mid_pipe () =
  check_pipe_edges "the abcde edge is kept"
    [ ("write 0", "read 1", "pipe#1 bytes 10..15") ]
    (pipe_steps [ Put "0123456789"; On; Take 10; Put "abcde"; Take 5 ])

let test_pipe_obs_off_for_one_read () =
  check_pipe_edges "the abcde read names the abcde write"
    [ ("write 1", "read 0", "pipe#1 bytes 10..15") ]
    (pipe_steps [ On; Put "0123456789"; Off; Take 10; On; Put "abcde"; Take 5 ])

(* A FIFO's writer and reader open it separately, in two processes,
   and still get an edge: the stamps hang off the FIFO's one byte
   queue, not off either open.  The queue is the inode's, so a drained
   FIFO opened again counts on from where it stopped. *)
let test_fifo_separate_opens () =
  Obs.reset ();
  let k = fresh_kernel () in
  let ino = ref 0 in
  let status =
    boot_k k (fun () ->
        Libc.Unistd.ok_exn "mkfifo" (Libc.Unistd.mkfifo "/tmp/f" 0o644);
        ino := (Libc.Unistd.ok_exn "stat" (Libc.Unistd.stat "/tmp/f")).Stat.st_ino;
        Obs.enable ();
        let session msg =
          let r =
            Libc.Unistd.ok_exn "open r"
              (Libc.Unistd.open_ "/tmp/f" Flags.Open.o_rdonly 0)
          in
          let child =
            Libc.Unistd.ok_exn "fork"
              (Libc.Unistd.fork ~child:(fun () ->
                   let w =
                     Libc.Unistd.ok_exn "open w"
                       (Libc.Unistd.open_ "/tmp/f" Flags.Open.o_wronly 0)
                   in
                   ignore (Libc.Unistd.write w msg);
                   ignore (Libc.Unistd.close w);
                   0))
          in
          ignore (Libc.Unistd.waitpid child 0);
          let buf = Bytes.create 16 in
          ignore (Libc.Unistd.read r buf 16);
          ignore (Libc.Unistd.close r)
        in
        session "hello";
        session "world";
        Obs.disable ();
        0)
  in
  check_exit "fifo session" 0 status;
  let pipe_edges =
    List.filter_map
      (fun (e : Obs.Causal.edge) ->
        if e.Obs.Causal.ed_kind <> Obs.Causal.Pipe then None
        else Some (e.Obs.Causal.ed_src_pid, e.Obs.Causal.ed_dst_pid, e.Obs.Causal.ed_detail))
      (drain_edges k)
  in
  let detail range = Printf.sprintf "fifo#%d bytes %s" !ino range in
  Alcotest.(check (list (triple int int string)))
    "each child's write reaches the parent's read"
    [ (2, 1, detail "0..5"); (3, 1, detail "5..10") ]
    pipe_edges

(* A fork-per-connection kvd run links each request and reply across
   its socket rings, and once every connection has closed no process
   is left asleep on a ring. *)
let test_kvd_socket_edges () =
  let edges k =
    Obs.Span.edges (Obs.with_engine (Kernel.obs_engine k) Obs.records)
  in
  let k = causal_session () in
  Alcotest.(check bool) "pipe session made pipe edges" true
    (count Obs.Causal.Pipe (edges k) > 0);
  (* [Kernel.create] copies the switch and installs the new engine *)
  Obs.enable ();
  let k = Workloads.Table.prepare Workloads.Kvd.setup in
  let params = { Workloads.Kvd.quick_params with Workloads.Kvd.clients = 40 } in
  let stats = Workloads.Kvd.fresh_stats () in
  ignore
    (Kernel.boot k ~name:"kvd-fork" (fun () ->
       Workloads.Kvd.body ~params ~stats ~mode:Workloads.Kvd.Fork_per_conn ()));
  Alcotest.(check int) "every client connected" 40 stats.Workloads.Kvd.conns;
  Alcotest.(check int) "no request failed" 0 stats.Workloads.Kvd.errors;
  Alcotest.(check bool) "kvd made socket edges" true
    (List.exists
       (fun (e : Obs.Causal.edge) ->
         e.Obs.Causal.ed_kind = Obs.Causal.Pipe
         && String.starts_with ~prefix:"sock#" e.Obs.Causal.ed_detail)
       (edges k));
  Alcotest.(check int) "no wait-queue entry outlives its sleepers" 0
    (Hashtbl.length k.Kernel.Kstate.waitqs);
  Obs.disable ()

(* --- signal half-edges ------------------------------------------------------ *)

(* A signal's sender sits beside the kernel's pending bit: the kill
   that makes the signal pending is its sender, a second kill of a
   pending signal changes nothing, and a discarded signal takes its
   sender with it.  Pid 1 signals itself, so each kill's span is the
   session's [kill] segments, in order. *)
let self_signal_session body =
  Obs.reset ();
  let k = fresh_kernel () in
  let status =
    boot_k k (fun () ->
        Obs.enable ();
        body (fun () ->
            ignore (Libc.Unistd.kill (Libc.Unistd.getpid ()) Signal.sigusr1));
        Obs.disable ();
        0)
  in
  check_exit "self-signal session" 0 status;
  let records = Kernel.drain_obs k in
  let kill_spans =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Obs.Span.Segment s when s.Obs.Span.sysno = Sysno.sys_kill ->
             Some s.Obs.Span.span
           | _ -> None)
         records)
  in
  let signal_edges =
    List.filter
      (fun (e : Obs.Causal.edge) -> e.Obs.Causal.ed_kind = Obs.Causal.Signal)
      (Obs.Span.edges records)
  in
  (kill_spans, signal_edges)

let handle_usr1 () =
  ignore
    (Libc.Unistd.ok_exn "signal"
       (Libc.Unistd.signal Signal.sigusr1 (Value.H_fn (fun _ -> ()))))

let test_signal_first_kill_is_sender () =
  let usr1 = Signal.Mask.add 0 Signal.sigusr1 in
  let kills, edges =
    self_signal_session (fun kill ->
        handle_usr1 ();
        ignore (Libc.Unistd.sigprocmask Flags.Sighow.sig_block usr1);
        kill ();
        kill ();
        (* one pending bit, one delivery *)
        ignore (Libc.Unistd.sigprocmask Flags.Sighow.sig_unblock usr1);
        kill ())
  in
  match kills, edges with
  | [ a; _b; c ], [ first; second ] ->
    Alcotest.(check (list int))
      "each delivery names the kill that made it pending" [ a; c ]
      [ first.Obs.Causal.ed_src_span; second.Obs.Causal.ed_src_span ];
    Alcotest.(check int) "an unblocked kill is delivered in its own span" c
      second.Obs.Causal.ed_dst_span
  | _ ->
    Alcotest.failf "want 3 kills and 2 signal edges, got %d and %d"
      (List.length kills) (List.length edges)

let test_signal_ignored_discards () =
  let kills, edges =
    self_signal_session (fun kill ->
        ignore
          (Libc.Unistd.ok_exn "signal"
             (Libc.Unistd.signal Signal.sigusr1 Value.H_ignore));
        kill ();
        handle_usr1 ();
        kill ())
  in
  match kills, edges with
  | [ _ignored; handled ], [ e ] ->
    Alcotest.(check (pair int int)) "the handled kill is the edge's both ends"
      (handled, handled)
      (e.Obs.Causal.ed_src_span, e.Obs.Causal.ed_dst_span)
  | _ ->
    Alcotest.failf "want 2 kills and 1 signal edge, got %d and %d"
      (List.length kills) (List.length edges)

(* Fork 50 children parked in sigsuspend, signal each and reap it,
   whether the signal kills it, is ignored before a SIGKILL, or runs
   its handler.  Only a handled signal is delivered, so only it makes
   an edge; each child's fork edge completes at its first trap; and
   the reaped children, with the senders they held, are gone from the
   process table. *)
let test_signal_reaped_children_leave_nothing () =
  let run ~setup signals =
    Obs.reset ();
    let k = fresh_kernel () in
    let status =
      boot_k k (fun () ->
          Obs.enable ();
          let children =
            List.init 50 (fun _ ->
                Libc.Unistd.ok_exn "fork"
                  (Libc.Unistd.fork ~child:(fun () ->
                       setup ();
                       ignore (Libc.Unistd.sigsuspend 0);
                       0)))
          in
          (* let every child park before it is signalled *)
          ignore (Libc.Unistd.sleep_us 1000);
          List.iter
            (fun pid ->
              List.iter (fun s -> ignore (Libc.Unistd.kill pid s)) signals;
              ignore (Libc.Unistd.waitpid pid 0))
            children;
          Obs.disable ();
          0)
    in
    check_exit "fork-and-signal session" 0 status;
    let edges = drain_edges k in
    ( count Obs.Causal.Fork edges,
      count Obs.Causal.Signal edges,
      Hashtbl.fold
        (fun pid _ n -> if pid = 1 then n else n + 1)
        k.Kernel.Kstate.procs 0 )
  in
  let ignore_usr1 () =
    ignore
      (Libc.Unistd.ok_exn "signal"
         (Libc.Unistd.signal Signal.sigusr1 Value.H_ignore))
  in
  List.iter
    (fun (what, setup, signals, signal_edges) ->
      Alcotest.(check (triple int int int))
        (what ^ ": fork edges, signal edges, processes left")
        (50, signal_edges, 0) (run ~setup signals))
    [ ("SIGKILL", ignore, [ Signal.sigkill ], 0);
      ("SIGTERM", ignore, [ Signal.sigterm ], 0);
      ("ignored, then SIGKILL", ignore_usr1, [ Signal.sigusr1; Signal.sigkill ], 0);
      ("handled", handle_usr1, [ Signal.sigusr1 ], 50) ]

(* --- slices -------------------------------------------------------------- *)

let test_slice_reachability () =
  let edges = drain_edges (causal_session ()) in
  let roots =
    List.filter_map
      (fun (e : Obs.Causal.edge) ->
        if e.Obs.Causal.ed_kind = Obs.Causal.Fork then
          Some (e.Obs.Causal.ed_src_shard, e.Obs.Causal.ed_src_span)
        else None)
      edges
  in
  Alcotest.(check int) "three fork roots" 3 (List.length roots);
  let nodes = Obs.Causal.slice ~roots edges in
  (* span-granular graph: each fork root reaches at least its own
     child's first span *)
  Alcotest.(check bool) "roots plus a child span each" true
    (List.length nodes >= 2 * List.length roots);
  List.iter
    (fun (_, span) ->
      Alcotest.(check bool) "no sentinel spans in a slice" true (span > 0))
    nodes;
  Alcotest.(check (list (pair int int))) "no roots, no nodes" []
    (Obs.Causal.slice ~roots:[] edges)

(* --- chrome flow events --------------------------------------------------- *)

let test_chrome_flow_events () =
  let records = Kernel.drain_obs (causal_session ()) in
  let trace = Obs.Chrome.to_string ~name:Call.name records in
  let starts = occurrences "\"ph\":\"s\"" trace in
  let finishes = occurrences "\"ph\":\"f\"" trace in
  Alcotest.(check bool) "flow events present" true (starts > 0);
  Alcotest.(check int) "every start binds a finish" starts finishes;
  (* without its edge records the same log renders no flow events *)
  let bare =
    Obs.Chrome.to_string ~name:Call.name
      (List.filter (function Obs.Span.Edge _ -> false | _ -> true) records)
  in
  Alcotest.(check int) "no edges, no flows" 0 (occurrences "\"ph\":\"s\"" bare)

(* --- cross-shard signal edges --------------------------------------------- *)

let cluster_session () =
  Obs.reset ();
  let c = Kernel.Cluster.create ~shards:2 () in
  for i = 0 to 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let _inits =
    List.init 2 (fun i ->
        Kernel.Cluster.boot_shard c i ~name:(Printf.sprintf "cz%d" i)
          (fun () ->
            Obs.enable ();
            ignore
              (Libc.Unistd.ok_exn "signal"
                 (Libc.Unistd.signal Signal.sigusr1 (Value.H_fn (fun _ -> ()))));
            for _ = 1 to 2 + i do
              ignore (Libc.Unistd.getpid ())
            done;
            Kernel.Cluster.send ~dst:(1 - i) ~pid:1 ~signal:Signal.sigusr1;
            ignore (Libc.Unistd.sigsuspend 0);
            Obs.disable ();
            0))
  in
  Kernel.Cluster.run c;
  Obs.Span.edges (Kernel.Cluster.drain_obs c)

let test_cluster_cross_shard () =
  let edges = cluster_session () in
  let cross =
    List.filter
      (fun (e : Obs.Causal.edge) ->
        e.Obs.Causal.ed_kind = Obs.Causal.Signal
        && e.Obs.Causal.ed_src_shard <> e.Obs.Causal.ed_shard)
      edges
  in
  Alcotest.(check int) "one cross-shard edge per direction" 2
    (List.length cross);
  List.iter
    (fun (e : Obs.Causal.edge) ->
      Alcotest.(check string) "mail carries the signal name" "SIGUSR1"
        e.Obs.Causal.ed_detail;
      (* [Cluster.send] runs between traps, so no span is open at the
         origin: the stamp degrades to (shard, 0, pid) and the edge
         still names the sending process *)
      Alcotest.(check int) "origin pid survived the mail" 1
        e.Obs.Causal.ed_src_pid)
    cross;
  let again = cluster_session () in
  Alcotest.(check (list string)) "two cluster runs render identically"
    (List.map edge_line edges)
    (List.map edge_line again)

(* --- flame folds ---------------------------------------------------------- *)

let test_flame_conservation () =
  let records = Kernel.drain_obs (causal_session ()) in
  let segments =
    List.filter_map
      (function Obs.Span.Segment s -> Some s | _ -> None)
      records
  in
  let folds = Obs.Flame.fold segments in
  Alcotest.(check bool) "folds exist" true (folds <> []);
  let span_self =
    List.fold_left (fun acc (s : Obs.Span.segment) -> acc + s.Obs.Span.self_us)
      0 segments
  in
  Alcotest.(check int) "fold total conserves segment self time" span_self
    (Obs.Flame.total folds);
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Flame.to_string ~name:Call.name folds))
  in
  Alcotest.(check int) "one collapsed-stack line per fold"
    (List.length folds) (List.length lines);
  let weight line =
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "no weight on line %S" line
    | Some i ->
      int_of_string (String.sub line (i + 1) (String.length line - i - 1))
  in
  Alcotest.(check int) "line weights sum to the total" span_self
    (List.fold_left (fun acc l -> acc + weight l) 0 lines)

(* --- stream cursors -------------------------------------------------------- *)

let test_stream_exactly_once () =
  let r = Obs.Ring.create ~capacity:3 in
  let c = Obs.Stream.cursor () in
  List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
  let fresh, lost = Obs.Stream.poll c r in
  Alcotest.(check (list int)) "live records delivered oldest first" [ 3; 4; 5 ]
    fresh;
  Alcotest.(check int) "overwritten records counted lost" 2 lost;
  Alcotest.(check (pair (list int) int)) "second poll sees nothing" ([], 0)
    (Obs.Stream.poll c r);
  Obs.Ring.push r 6;
  Alcotest.(check (pair (list int) int)) "incremental delivery" ([ 6 ], 0)
    (Obs.Stream.poll c r);
  (* a full drain removes records the cursor already consumed without
     charging them as lost *)
  ignore (Obs.Ring.drain r);
  Obs.Ring.push r 7;
  Alcotest.(check (pair (list int) int)) "drain of consumed records is free"
    ([ 7 ], 0)
    (Obs.Stream.poll c r);
  Obs.Ring.push r 8;
  ignore (Obs.Ring.drain r);
  Alcotest.(check (pair (list int) int)) "drained-unseen records count lost"
    ([], 1)
    (Obs.Stream.poll c r)

let test_stream_session_complete () =
  Obs.reset ();
  let k = fresh_kernel () in
  let cursor = Obs.Stream.cursor () in
  let streamed = ref 0 and lost = ref 0 in
  Kernel.set_trace_hook k ~cost_us:0
    (Some
       (fun _ _ _ ->
         let fresh, l = Obs.poll cursor in
         streamed := !streamed + List.length fresh;
         lost := !lost + l));
  let status =
    boot_k k (fun () ->
        Obs.enable ();
        for _ = 1 to 20 do
          ignore (Libc.Unistd.getpid ())
        done;
        Obs.disable ();
        0)
  in
  check_exit "session" 0 status;
  let final, final_lost = Obs.poll_of (Kernel.obs_engine k) cursor in
  let drained = Kernel.drain_obs k in
  Alcotest.(check int) "every drained record was streamed exactly once"
    (List.length drained)
    (!streamed + List.length final);
  Alcotest.(check int) "nothing lost" 0 (!lost + final_lost);
  Alcotest.(check (pair int int)) "post-drain poll is empty and free" (0, 0)
    (let fresh, l = Obs.poll_of (Kernel.obs_engine k) cursor in
     (List.length fresh, l))

(* --- soak: obs live words stay flat ------------------------------------------ *)

(* Fork-per-connection kvd under the stacked agents at 1-in-256, with
   [ring_capacity] log slots (the default if absent): the kernel after
   every client is served. *)
let kvd_stacked ?ring_capacity clients =
  Obs.reset ();
  Obs.configure ?ring_capacity ();
  Obs.set_sampling ~seed:1 256;
  Obs.enable ();
  let k = fresh_kernel () in
  Workloads.Kvd.setup k;
  let params = { Workloads.Kvd.default_params with Workloads.Kvd.clients } in
  let stats = Workloads.Kvd.fresh_stats () in
  let status =
    boot_k k (fun () ->
        List.iter
          (fun a -> Toolkit.Loader.install a ~argv:[||])
          (Conformance.stacked.Conformance.sk_make ());
        Workloads.Kvd.body ~params ~stats ~mode:Workloads.Kvd.Fork_per_conn ())
  in
  check_exit "kvd" 0 status;
  Alcotest.(check int) "every client served" clients stats.Workloads.Kvd.conns;
  k

let restore_obs () =
  Obs.disable ();
  Obs.set_sampling 1;
  Obs.configure ();
  Obs.reset ()

(* At N and 3N clients, with a ring small enough that both runs wrap
   it.  Every per-shard structure is bounded — the log by its capacity
   (edges included), pending half-edges and pipe stamps by the live
   processes and rings that hold them — so the kernel's reachable
   words after 3N clients stay within 10% of the N run's. *)
let soak_ring = 128

let kvd_soak_words clients =
  let k = kvd_stacked ~ring_capacity:soak_ring clients in
  Obs.with_engine (Kernel.obs_engine k) (fun () ->
      Alcotest.(check bool) "the log wrapped" true (Obs.dropped () > 0));
  Obj.reachable_words (Obj.repr k)

let test_soak_words_flat () =
  Fun.protect ~finally:restore_obs
    (fun () ->
      let small = kvd_soak_words 100 in
      let large = kvd_soak_words 300 in
      if float_of_int large >= 1.10 *. float_of_int small then
        Alcotest.failf "kernel words %d -> %d (%.2fx) from 100 to 300 clients"
          small large
          (float_of_int large /. float_of_int small))

(* The default run, 1,000 clients, in the default 4,096-slot log.  An
   edge is recorded only into a sampled trap, as segments are, so the
   run's edges fit the log beside its segments: nothing is dropped,
   and every edge ends at a sampled span. *)
let test_kvd_edges_only_into_sampled_traps () =
  Fun.protect ~finally:restore_obs
    (fun () ->
      let k = kvd_stacked Workloads.Kvd.default_params.Workloads.Kvd.clients in
      Obs.with_engine (Kernel.obs_engine k) (fun () ->
          Alcotest.(check int) "nothing dropped" 0 (Obs.dropped ());
          let edges = Obs.Span.edges (Obs.records ()) in
          Alcotest.(check bool) "the run made edges" true (edges <> []);
          List.iter
            (fun (e : Obs.Causal.edge) ->
              if e.Obs.Causal.ed_dst_span <= 0 then
                Alcotest.failf "%s edge into unsampled span %d (pid %d)"
                  (Obs.Causal.kind_name e.Obs.Causal.ed_kind)
                  e.Obs.Causal.ed_dst_span e.Obs.Causal.ed_dst_pid)
            edges))

(* Edges are records of the one log, so a cursor tailing the causal
   session sees every edge the final drain holds. *)
let test_stream_delivers_edges () =
  let cursor = Obs.Stream.cursor () in
  let streamed = ref [] and lost = ref 0 in
  let take (fresh, l) =
    streamed := List.rev_append fresh !streamed;
    lost := !lost + l
  in
  let k =
    causal_session
      ~setup:(fun k ->
        Kernel.set_trace_hook k ~cost_us:0
          (Some (fun _ _ _ -> take (Obs.poll cursor))))
      ()
  in
  take (Obs.poll_of (Kernel.obs_engine k) cursor);
  let drained = drain_edges k in
  Alcotest.(check bool) "every edge kind drained" true
    (List.length drained >= 9);
  Alcotest.(check int) "nothing lost" 0 !lost;
  Alcotest.(check (list string)) "streamed edges = drained edges"
    (List.map edge_line drained)
    (List.map edge_line (Obs.Span.edges !streamed))

(* --- watchdog rules --------------------------------------------------------- *)

let test_watch_parse () =
  let text =
    "# ceilings\n\
     read-errors = error_rate(read) <= 0.05\n\n\
     tail = p99_us(*) <= 400\n\
     no-aborts = aborts <= 0\n\
     pool = env_pool_misses <= 100\n"
  in
  match Obs.Watch.of_spec ~sysno:Call.of_name text with
  | Error e -> Alcotest.failf "spec did not parse: %s" e
  | Ok rules ->
    Alcotest.(check (list string)) "names in file order"
      [ "read-errors"; "tail"; "no-aborts"; "pool" ]
      (List.map (fun r -> r.Obs.Watch.w_name) rules);
    Alcotest.(check (list string)) "predicates render back"
      [ "error_rate(read) <= 0.05"; "p99_us(*) <= 400"; "aborts <= 0";
        "env_pool_misses <= 100" ]
      (List.map Obs.Watch.pred_to_string rules)

let test_watch_rejects_garbage () =
  List.iter
    (fun spec ->
      match Obs.Watch.of_spec ~sysno:Call.of_name spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec)
    [ "just words"; "r = error_rate(nosuchcall) <= 0.1"; "r = p99_us(*) <= x";
      "r = frobs(read) <= 1"; " = aborts <= 0"; "r = aborts >= 0" ]

let test_watch_eval () =
  let rules =
    match
      Obs.Watch.of_spec ~sysno:Call.of_name
        "reads = error_rate(read) <= 0.5\n\
         tail = p99_us(*) <= 100\n\
         aborts = aborts <= 2\n"
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let input =
    { Obs.Watch.wi_sys =
        [ { Obs.Watch.ws_sysno = Sysno.sys_read; ws_calls = 10; ws_errors = 6;
            ws_p99_us = 40 };
          { Obs.Watch.ws_sysno = Sysno.sys_write; ws_calls = 10; ws_errors = 0;
            ws_p99_us = 90 } ];
      wi_aborted = 2;
      wi_env_pool_misses = 0 }
  in
  match Obs.Watch.eval rules input with
  | [ reads; tail; aborts ] ->
    Alcotest.(check bool) "0.6 > 0.5 trips" true reads.Obs.Watch.wr_tripped;
    Alcotest.(check bool) "p99 is the max across rows, under bound" false
      tail.Obs.Watch.wr_tripped;
    Alcotest.(check (float 1e-9)) "observed p99" 90.0 tail.Obs.Watch.wr_value;
    Alcotest.(check bool) "at the bound is not over it" false
      aborts.Obs.Watch.wr_tripped;
    Alcotest.(check int) "tripped subset" 1
      (List.length (Obs.Watch.tripped [ reads; tail; aborts ]))
  | vs -> Alcotest.failf "expected 3 verdicts, got %d" (List.length vs)

let test_watch_metrics_json_block () =
  Obs.reset ();
  let k = fresh_kernel () in
  Kernel.set_watch k
    [ { Obs.Watch.w_name = "no-errors"; w_target = "*";
        w_pred = Obs.Watch.Error_rate (None, 1.0) };
      { Obs.Watch.w_name = "impossible-p99"; w_target = "*";
        w_pred = Obs.Watch.P99_us (None, 0) } ];
  let status =
    boot_k k (fun () ->
        Obs.enable ();
        for _ = 1 to 5 do
          ignore (Libc.Unistd.getpid ())
        done;
        Obs.disable ();
        0)
  in
  check_exit "session" 0 status;
  let block =
    match Obs.Json.member "watchdogs" (Kernel.metrics_json k) with
    | Some j -> j
    | None -> Alcotest.fail "metrics_json has no watchdogs block"
  in
  let int_field f =
    Option.bind (Obs.Json.member f block) Obs.Json.to_int
    |> Option.value ~default:(-1)
  in
  Alcotest.(check int) "both rules evaluated" 2 (int_field "rules");
  Alcotest.(check int) "exactly the impossible rule trips" 1
    (int_field "tripped");
  let names_tripped =
    match Option.bind (Obs.Json.member "results" block) Obs.Json.to_list with
    | None -> Alcotest.fail "watchdogs block has no results"
    | Some rs ->
      List.filter_map
        (fun r ->
          match Option.bind (Obs.Json.member "tripped" r) Obs.Json.to_bool with
          | Some true -> Option.bind (Obs.Json.member "name" r) Obs.Json.to_str
          | _ -> None)
        rs
  in
  Alcotest.(check (list string)) "the trip names its rule"
    [ "impossible-p99" ] names_tripped

(* The shipped rules file: under the PR 5 EIO campaign the read
   error-rate ceiling must trip (and be the only trip); on a clean run
   of the same workload every ceiling holds. *)

(* resolve next to the executable: cwd differs between `dune exec`
   (project root) and `dune runtest` (the test's build directory) *)
let examples_rules_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../examples/watchdog_eio.rules"

let load_example_rules () =
  let ic = open_in_bin examples_rules_path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Watch.of_spec ~sysno:Call.of_name text with
  | Ok rules -> rules
  | Error e -> Alcotest.failf "examples/watchdog_eio.rules: %s" e

let eio_workload () =
  Obs.enable ();
  ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/victim" "payload"));
  let fd = check_ok "open" (Libc.Unistd.open_ "/tmp/victim" 0 0) in
  for _ = 1 to 5 do
    ignore (Libc.Unistd.read fd (Bytes.create 8) 8)
  done;
  ignore (Libc.Unistd.close fd);
  Obs.disable ();
  0

let tripped_names k rules =
  Kernel.set_watch k rules;
  List.map
    (fun v -> v.Obs.Watch.wr_rule.Obs.Watch.w_name)
    (Obs.Watch.tripped (Kernel.watch_verdicts k))

let test_watch_examples_file_trips_on_campaign () =
  let rules = load_example_rules () in
  Alcotest.(check int) "five rules ship" 5 (List.length rules);
  Obs.reset ();
  let agent = F.create [ F.site Sysno.sys_read (F.Fail Errno.EIO) ] in
  let k, status = boot_under_agent agent eio_workload in
  check_exit "campaign session" 0 status;
  Alcotest.(check bool) "the campaign injected" true (agent#total_injected >= 5);
  Alcotest.(check (list string))
    "exactly the read error-rate ceiling trips, by name"
    [ "read-error-rate" ] (tripped_names k rules)

let test_watch_examples_file_clean_run () =
  let rules = load_example_rules () in
  Obs.reset ();
  let k, status = boot eio_workload in
  check_exit "clean session" 0 status;
  Alcotest.(check (list string)) "no trips without the campaign" []
    (tripped_names k rules)

let () =
  Alcotest.run "causal"
    [ ( "edges",
        [ Alcotest.test_case "fork/signal/pipe kinds" `Quick test_edge_kinds;
          Alcotest.test_case "byte-identical reruns" `Quick
            test_edges_byte_identical;
          Alcotest.test_case "JSONL round-trip" `Quick test_edge_jsonl_roundtrip ] );
      ( "pipes",
        [ QCheck_alcotest.to_alcotest test_pipe_edges_match_reference;
          Alcotest.test_case "obs on throughout" `Quick test_pipe_obs_on_throughout;
          Alcotest.test_case "obs switched on with bytes in the pipe" `Quick
            test_pipe_obs_switched_on_mid_pipe;
          Alcotest.test_case "obs off for one read" `Quick
            test_pipe_obs_off_for_one_read;
          Alcotest.test_case "FIFO opened apart and reopened" `Quick
            test_fifo_separate_opens;
          Alcotest.test_case "kvd sockets make edges, leave no sleeper" `Quick
            test_kvd_socket_edges ] );
      ( "signals",
        [ Alcotest.test_case "the first kill of a pending signal is its sender"
            `Quick test_signal_first_kill_is_sender;
          Alcotest.test_case "an ignored signal takes its half-edge" `Quick
            test_signal_ignored_discards;
          Alcotest.test_case "reaped children leave no half-edge" `Quick
            test_signal_reaped_children_leave_nothing ] );
      ( "slice",
        [ Alcotest.test_case "reachability from fork roots" `Quick
            test_slice_reachability ] );
      ( "chrome",
        [ Alcotest.test_case "flow events bind balanced" `Quick
            test_chrome_flow_events ] );
      ( "cluster",
        [ Alcotest.test_case "cross-shard signal edges" `Quick
            test_cluster_cross_shard ] );
      ( "flame",
        [ Alcotest.test_case "fold conserves self time" `Quick
            test_flame_conservation ] );
      ( "stream",
        [ Alcotest.test_case "ring cursor exactly-once" `Quick
            test_stream_exactly_once;
          Alcotest.test_case "session stream is complete" `Quick
            test_stream_session_complete;
          Alcotest.test_case "the causal session streams every edge" `Quick
            test_stream_delivers_edges ] );
      ( "soak",
        [ Alcotest.test_case "kvd words flat from N to 3N clients" `Quick
            test_soak_words_flat ] );
      ( "sampled",
        [ Alcotest.test_case "kvd at 1-in-256 drops nothing" `Quick
            test_kvd_edges_only_into_sampled_traps ] );
      ( "watch",
        [ Alcotest.test_case "parse" `Quick test_watch_parse;
          Alcotest.test_case "rejects garbage" `Quick test_watch_rejects_garbage;
          Alcotest.test_case "eval semantics" `Quick test_watch_eval;
          Alcotest.test_case "metrics_json block" `Quick
            test_watch_metrics_json_block;
          Alcotest.test_case "examples file trips on the EIO campaign" `Quick
            test_watch_examples_file_trips_on_campaign;
          Alcotest.test_case "examples file green on a clean run" `Quick
            test_watch_examples_file_clean_run ] ) ]
