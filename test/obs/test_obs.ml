(* Observability tests: ring-buffer wraparound/drain, histogram bucket
   edges, JSON(L) round-trips, and per-layer span attribution under a
   stacked null-agent getpid loop — the measured form of the
   "attribution sums to end-to-end time" invariant. *)

open Abi
open Tharness

let qtest = QCheck_alcotest.to_alcotest

(* Obs state is process-global; every test that enables it starts from
   a clean slate and leaves it disabled. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.set_sampling 1;
      Obs.reset ())
    f

(* --- ring buffer --------------------------------------------------------- *)

let test_ring_basic () =
  let r = Obs.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty" 0 (Obs.Ring.length r);
  Obs.Ring.push r 1;
  Obs.Ring.push r 2;
  Obs.Ring.push r 3;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "nothing dropped" 0 (Obs.Ring.dropped r)

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "oldest overwritten" [ 3; 4; 5 ]
    (Obs.Ring.to_list r);
  Alcotest.(check int) "two dropped" 2 (Obs.Ring.dropped r);
  Alcotest.(check int) "still full" 3 (Obs.Ring.length r)

let test_ring_drain () =
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "drain returns contents" [ 2; 3; 4 ]
    (Obs.Ring.drain r);
  Alcotest.(check int) "drained empty" 0 (Obs.Ring.length r);
  Alcotest.(check int) "dropped reset" 0 (Obs.Ring.dropped r);
  Obs.Ring.push r 9;
  Alcotest.(check (list int)) "usable after drain" [ 9 ] (Obs.Ring.to_list r)

let test_ring_capacity_clamp () =
  let r = Obs.Ring.create ~capacity:0 in
  Alcotest.(check int) "clamped to 1" 1 (Obs.Ring.capacity r);
  Obs.Ring.push r 1;
  Obs.Ring.push r 2;
  Alcotest.(check (list int)) "keeps newest" [ 2 ] (Obs.Ring.to_list r)

let qcheck_ring_keeps_newest =
  QCheck.Test.make ~name:"ring keeps the newest min(n, capacity) entries"
    ~count:200
    QCheck.(pair (int_range 1 16) (small_list small_int))
    (fun (cap, xs) ->
      let r = Obs.Ring.create ~capacity:cap in
      List.iter (Obs.Ring.push r) xs;
      let n = List.length xs in
      let expect =
        if n <= cap then xs
        else List.filteri (fun i _ -> i >= n - cap) xs
      in
      Obs.Ring.to_list r = expect
      && Obs.Ring.dropped r = max 0 (n - cap))

(* The ring against a model of push order.  The model keeps every
   value ever pushed and the index of the oldest live one; the ring's
   contents are the history from there on, and a stream cursor at push
   position [p] is owed the history from [max p oldest] and has lost
   [oldest - p] records when that is positive.  Sequences mix pushes
   with reads, drains and clears at capacities 1..8, so slots wrap
   many times, and two cursors poll across the wraps. *)
type ring_op = Push of int | To_list | Drain | Clear | Poll of int

let ring_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun x -> Push x) small_nat);
        (1, return To_list);
        (1, return Drain);
        (1, return Clear);
        (2, map (fun i -> Poll i) (int_bound 1)) ])

let ring_op_print = function
  | Push x -> Printf.sprintf "push %d" x
  | To_list -> "to_list"
  | Drain -> "drain"
  | Clear -> "clear"
  | Poll i -> Printf.sprintf "poll #%d" i

let qcheck_ring_model =
  QCheck.Test.make ~name:"ring and stream cursors follow the push-order model"
    ~count:500
    QCheck.(
      pair (int_range 1 8)
        (make ~print:(Print.list ring_op_print)
           Gen.(list_size (int_bound 60) ring_op_gen)))
    (fun (cap, ops) ->
      let r = Obs.Ring.create ~capacity:cap in
      let cursors = [| Obs.Stream.cursor (); Obs.Stream.cursor () |] in
      let history = ref [||] and oldest = ref 0 and dropped = ref 0 in
      let model_pos = [| 0; 0 |] in
      let pushed () = Array.length !history in
      let from i = Array.to_list (Array.sub !history i (pushed () - i)) in
      let live () = from !oldest in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
           | Push x ->
             Obs.Ring.push r x;
             history := Array.append !history [| x |];
             if pushed () - !oldest > cap then begin
               incr oldest;
               incr dropped
             end
           | To_list -> expect (Obs.Ring.to_list r = live ())
           | Drain ->
             expect (Obs.Ring.drain r = live ());
             oldest := pushed ();
             dropped := 0
           | Clear ->
             Obs.Ring.clear r;
             oldest := pushed ();
             dropped := 0
           | Poll i ->
             let p = model_pos.(i) in
             let fresh, lost = Obs.Stream.poll cursors.(i) r in
             expect (fresh = from (max p !oldest));
             expect (lost = max 0 (!oldest - p));
             model_pos.(i) <- pushed ());
          expect (Obs.Ring.length r = pushed () - !oldest);
          expect (Obs.Ring.dropped r = !dropped);
          expect (Obs.Ring.pushed r = pushed ());
          expect (Obs.Ring.capacity r = cap))
        ops;
      !ok && Obs.Ring.to_list r = live ())

(* --- histogram ----------------------------------------------------------- *)

let test_hist_bucket_edges () =
  Alcotest.(check int) "0us -> bucket 0" 0 (Obs.Hist.bucket_of_us 0);
  Alcotest.(check int) "negative clamps to bucket 0" 0 (Obs.Hist.bucket_of_us (-5));
  Alcotest.(check int) "1us -> bucket 1" 1 (Obs.Hist.bucket_of_us 1);
  Alcotest.(check int) "2us -> bucket 2" 2 (Obs.Hist.bucket_of_us 2);
  Alcotest.(check int) "3us -> bucket 2" 2 (Obs.Hist.bucket_of_us 3);
  Alcotest.(check int) "4us -> bucket 3" 3 (Obs.Hist.bucket_of_us 4);
  Alcotest.(check int) "max-bucket clamp" (Obs.Hist.buckets - 1)
    (Obs.Hist.bucket_of_us max_int);
  Alcotest.(check int) "lower bound of bucket 0" 0 (Obs.Hist.lower_bound 0);
  Alcotest.(check int) "lower bound of bucket 1" 1 (Obs.Hist.lower_bound 1);
  Alcotest.(check int) "lower bound of bucket 5" 16 (Obs.Hist.lower_bound 5)

let test_hist_observe () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 0; 1; 3; 3; 1000; -7 ];
  Alcotest.(check int) "count" 6 (Obs.Hist.count h);
  (* negatives clamp to 0 for the sum too *)
  Alcotest.(check int) "sum" 1007 (Obs.Hist.sum_us h);
  Alcotest.(check int) "max" 1000 (Obs.Hist.max_us h);
  Alcotest.(check int) "two zeros" 2 (Obs.Hist.bucket h 0);
  Alcotest.(check int) "one in [1,2)" 1 (Obs.Hist.bucket h 1);
  Alcotest.(check int) "two in [2,4)" 2 (Obs.Hist.bucket h 2);
  Alcotest.(check int) "1000 in [512,1024)" 1 (Obs.Hist.bucket h 10)

let qcheck_hist_invariants =
  QCheck.Test.make ~name:"histogram buckets partition the int range"
    ~count:500 QCheck.int
    (fun us ->
      let b = Obs.Hist.bucket_of_us us in
      b >= 0
      && b < Obs.Hist.buckets
      && Obs.Hist.lower_bound b <= max 0 us
      && (b = Obs.Hist.buckets - 1 || max 0 us < Obs.Hist.lower_bound (b + 1)))

(* --- JSON ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [ ("name", Str "x\"y\\z\n\t\001");
          ("n", Int (-42));
          ("f", Float 1.5);
          ("ok", Bool true);
          ("null", Null);
          ("xs", Arr [ Int 1; Str "two"; Obj [] ]) ])
  in
  List.iter
    (fun (what, render) ->
      match Obs.Json.of_string (render v) with
      | Ok v' -> Alcotest.(check bool) (what ^ " round-trips") true (v = v')
      | Error e -> Alcotest.failf "%s: parse failed: %s" what e)
    [ ("to_string", Obs.Json.to_string); ("to_lines", Obs.Json.to_lines) ]

let test_json_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "1 2"

let test_json_accessors () =
  match Obs.Json.of_string "{\"a\": [1, 2.5], \"b\": {\"c\": \"d\"}}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j ->
    let a = Option.get (Obs.Json.member "a" j) in
    (match Obs.Json.to_list a with
     | Some [ x; y ] ->
       Alcotest.(check (option int)) "int" (Some 1) (Obs.Json.to_int x);
       Alcotest.(check (option (float 1e-9))) "float" (Some 2.5)
         (Obs.Json.to_number y)
     | _ -> Alcotest.fail "array shape");
    let b = Option.get (Obs.Json.member "b" j) in
    Alcotest.(check (option string)) "nested" (Some "d")
      (Option.bind (Obs.Json.member "c" b) Obs.Json.to_str)

(* --- span JSONL round-trip (qcheck) -------------------------------------- *)

let segment_gen =
  QCheck.Gen.(
    map
      (fun (((span, pid, sysno), (layer, depth, start_us)),
            ((self_us, total_us), (d, e, rw))) ->
        { Obs.Span.span; pid; sysno; layer; depth; start_us; self_us; total_us;
          decodes = d; encodes = e; rewrites = rw })
      (pair
         (pair (triple nat nat nat) (triple string nat nat))
         (pair (pair nat nat) (triple nat nat nat))))

let call_gen =
  QCheck.Gen.(
    map
      (fun (((c_span, c_pid, c_t_us), (c_name, c_args, c_result)), c_rewrote) ->
        { Obs.Span.c_span; c_pid; c_t_us; c_name; c_args; c_result; c_rewrote })
      (pair
         (pair (triple nat nat nat) (triple string string (opt string)))
         bool))

let mark_gen =
  QCheck.Gen.(
    map
      (fun ((m_span, m_pid, m_t_us), (m_kind, m_detail)) ->
        { Obs.Span.m_span; m_pid; m_t_us; m_kind; m_detail })
      (pair (triple nat nat nat) (pair string string)))

(* dst spans range over the sampler's negative sentinels too *)
let edge_gen =
  QCheck.Gen.(
    map
      (fun ((ed_kind, ed_src_shard, ed_src_span),
            ((ed_src_pid, ed_shard, ed_dst_span),
             ((ed_dst_pid, ed_t_us), (ed_seq, ed_detail)))) ->
        { Obs.Causal.ed_kind; ed_src_shard; ed_src_span; ed_src_pid;
          ed_shard; ed_dst_span; ed_dst_pid; ed_t_us; ed_seq; ed_detail })
      (pair
         (triple (oneofl Obs.Causal.[ Fork; Signal; Pipe ]) nat nat)
         (pair (triple nat nat small_signed_int)
            (pair (pair nat nat) (pair nat string)))))

let record_gen =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Obs.Span.Segment s) segment_gen;
        map (fun c -> Obs.Span.Call c) call_gen;
        map (fun m -> Obs.Span.Mark m) mark_gen;
        map (fun e -> Obs.Span.Edge e) edge_gen ])

let record_arb =
  QCheck.make record_gen ~print:(fun r -> Obs.Span.to_line r)

let qcheck_span_jsonl_roundtrip =
  QCheck.Test.make ~name:"span record JSONL encode/decode round-trip"
    ~count:500 record_arb
    (fun r ->
      match Obs.Span.of_line (Obs.Span.to_line r) with
      | Ok r' -> r = r'
      | Error _ -> false)

let test_call_line_shapes () =
  let pre =
    { Obs.Span.c_span = 1; c_pid = 2; c_t_us = 3; c_name = "open";
      c_args = "\"/etc/motd\", O_RDONLY, 00"; c_result = None;
      c_rewrote = false }
  in
  Alcotest.(check string) "entry shape" "open(\"/etc/motd\", O_RDONLY, 00) ..."
    (Obs.Span.call_line pre);
  let post = { pre with c_args = ""; c_result = Some "3" } in
  Alcotest.(check string) "return shape" "... open -> 3"
    (Obs.Span.call_line post);
  let rewritten = { post with c_rewrote = true } in
  Alcotest.(check string) "rewritten shape" "... open -> 3 [rewritten]"
    (Obs.Span.call_line rewritten)

(* --- span engine: attribution under a stacked null-agent getpid loop ----- *)

let null_stack_session ~depth ~iters =
  with_obs (fun () ->
      let stats () = Obs.codec_of (Obs.installed ()) in
      let codec = ref (stats ()) in
      let codec' = ref !codec in
      let _, status =
        boot (fun () ->
            for _ = 1 to depth do
              Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
            done;
            Obs.reset ();
            codec := stats ();
            for _ = 1 to iters do
              ignore (Libc.Unistd.getpid ())
            done;
            codec' := stats ();
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      (Obs.metrics (), Obs.Codec.diff !codec !codec'))

let test_attribution_four_deep () =
  let iters = 50 in
  let m, codec = null_stack_session ~depth:4 ~iters in
  (* exactly one span per getpid, none left open *)
  let getpid =
    List.find (fun s -> s.Obs.sm_sysno = Sysno.sys_getpid) m.Obs.m_syscalls
  in
  Alcotest.(check int) "spans completed" iters m.Obs.m_spans;
  Alcotest.(check int) "none open" 0 m.Obs.m_open;
  Alcotest.(check int) "getpid calls" iters getpid.Obs.sm_calls;
  Alcotest.(check int) "getpid errors" 0 getpid.Obs.sm_errors;
  (* layers: uspace, 4 agents, 4 downlinks, kernel — all seeing every trap *)
  Alcotest.(check int) "layer count" 10 (List.length m.Obs.m_layers);
  List.iter
    (fun (l : Obs.layer_metrics) ->
      Alcotest.(check int)
        (Printf.sprintf "traps at depth %d (%s)" l.Obs.lm_depth l.Obs.lm_layer)
        iters l.Obs.lm_traps)
    m.Obs.m_layers;
  (* per-layer self times sum to the end-to-end span time *)
  let self_sum =
    List.fold_left (fun acc l -> acc + l.Obs.lm_self_us) 0 m.Obs.m_layers
  in
  Alcotest.(check int) "self sum = span end-to-end"
    (Obs.Hist.sum_us getpid.Obs.sm_hist)
    self_sum;
  (* tracing must not perturb virtual time: 174us per stacked getpid *)
  Alcotest.(check int) "span mean is the tracing-off 174us" (174 * iters)
    (Obs.Hist.sum_us getpid.Obs.sm_hist);
  (* layer-attributed codec work = the global counters' diff = 1/trap *)
  let layer_decodes =
    List.fold_left (fun acc l -> acc + l.Obs.lm_decodes) 0 m.Obs.m_layers
  in
  let layer_encodes =
    List.fold_left (fun acc l -> acc + l.Obs.lm_encodes) 0 m.Obs.m_layers
  in
  Alcotest.(check int) "decodes attributed" codec.Obs.Codec.decodes
    layer_decodes;
  Alcotest.(check int) "encodes attributed" codec.Obs.Codec.encodes
    layer_encodes;
  Alcotest.(check int) "one decode per trap" iters layer_decodes;
  Alcotest.(check int) "one encode per trap" iters layer_encodes;
  (* where the work lands: the boundary encode in uspace, the single
     decode in the first (deepest-stacked, first-hit) symbolic agent *)
  let at depth = List.find (fun l -> l.Obs.lm_depth = depth) m.Obs.m_layers in
  Alcotest.(check string) "outermost layer" "uspace" (at 0).Obs.lm_layer;
  Alcotest.(check int) "encode at the boundary" iters (at 0).Obs.lm_encodes;
  Alcotest.(check int) "decode at the first agent" iters (at 1).Obs.lm_decodes;
  Alcotest.(check string) "innermost layer" "kernel" (at 9).Obs.lm_layer

let test_attribution_depth_zero () =
  let iters = 20 in
  let m, codec = null_stack_session ~depth:0 ~iters in
  Alcotest.(check int) "spans" iters m.Obs.m_spans;
  Alcotest.(check int) "two layers (uspace, kernel)" 2
    (List.length m.Obs.m_layers);
  let getpid =
    List.find (fun s -> s.Obs.sm_sysno = Sysno.sys_getpid) m.Obs.m_syscalls
  in
  Alcotest.(check int) "25us per direct getpid" (25 * iters)
    (Obs.Hist.sum_us getpid.Obs.sm_hist);
  (* the kernel does the one decode when nothing interposes *)
  let kernel =
    List.find (fun l -> l.Obs.lm_layer = "kernel") m.Obs.m_layers
  in
  Alcotest.(check int) "kernel decodes" iters kernel.Obs.lm_decodes;
  Alcotest.(check int) "global agrees" codec.Obs.Codec.decodes
    kernel.Obs.lm_decodes

let test_error_spans_counted () =
  with_obs (fun () ->
      let _, status =
        boot (fun () ->
            Obs.reset ();
            (* EBADF: an erroring span *)
            (match Libc.Unistd.close 99 with Ok _ -> () | Error _ -> ());
            (match Libc.Unistd.close 98 with Ok _ -> () | Error _ -> ());
            ignore (Libc.Unistd.getpid ());
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      let m = Obs.metrics () in
      let close =
        List.find (fun s -> s.Obs.sm_sysno = Sysno.sys_close) m.Obs.m_syscalls
      in
      Alcotest.(check int) "close calls" 2 close.Obs.sm_calls;
      Alcotest.(check int) "close errors" 2 close.Obs.sm_errors;
      let getpid =
        List.find (fun s -> s.Obs.sm_sysno = Sysno.sys_getpid) m.Obs.m_syscalls
      in
      Alcotest.(check int) "getpid errors" 0 getpid.Obs.sm_errors)

let test_exit_exec_spans_aborted () =
  with_obs (fun () ->
      let k = fresh_kernel () in
      Kernel.register_image k "child" (fun ~argv:_ ~envp:_ () -> 0);
      Kernel.install_image k ~path:"/bin/child" ~image:"child";
      let status =
        Kernel.boot k ~name:"test" (fun () ->
            Obs.reset ();
            (match Libc.Spawn.run "/bin/child" [| "child" |] with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "spawn: %s" (Errno.name e));
            0)
      in
      check_exit "session" 0 status;
      let m = Obs.metrics () in
      (* the child's execve and every _exit leave spans that can only
         be force-closed; they must be accounted as aborted, none open *)
      Alcotest.(check bool) "aborted spans seen" true (m.Obs.m_aborted >= 2);
      Alcotest.(check int) "no spans left open" 0 m.Obs.m_open)

let test_ring_drop_counting_under_load () =
  with_obs (fun () ->
      Obs.configure ~ring_capacity:8 ();
      let _, status =
        boot (fun () ->
            Obs.reset ();
            for _ = 1 to 10 do
              ignore (Libc.Unistd.getpid ())
            done;
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      (* 10 direct getpids emit 20 segments into an 8-slot ring *)
      Alcotest.(check int) "ring full" 8 (List.length (Obs.records ()));
      Alcotest.(check int) "drops counted" 12 (Obs.dropped ());
      let m = Obs.metrics () in
      Alcotest.(check int) "aggregation unaffected by ring size" 10
        m.Obs.m_spans;
      Obs.configure ())

let test_spans_parse_as_jsonl () =
  with_obs (fun () ->
      let _, status =
        boot (fun () ->
            Obs.reset ();
            ignore (Libc.Unistd.getpid ());
            (match Libc.Unistd.close 99 with _ -> ());
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      let records = Obs.drain () in
      Alcotest.(check bool) "got records" true (List.length records >= 4);
      List.iter
        (fun r ->
          let line = Obs.Span.to_line r in
          match Obs.Span.of_line line with
          | Ok r' ->
            if r <> r' then Alcotest.failf "round-trip changed: %s" line
          | Error e -> Alcotest.failf "unparseable %s: %s" line e)
        records;
      Alcotest.(check int) "drained" 0 (List.length (Obs.records ())))

(* --- trace agent through the span sink ----------------------------------- *)

let test_trace_agent_records_calls () =
  with_obs (fun () ->
      let agent = Agents.Trace.create ~fd:2 () in
      let _, status =
        boot (fun () ->
            Toolkit.Loader.install agent ~argv:[||];
            Obs.reset ();
            ignore (Libc.Unistd.getpid ());
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      let calls =
        List.filter_map
          (function
            | Obs.Span.Call c -> Some c
            | Obs.Span.Segment _ | Obs.Span.Mark _ | Obs.Span.Edge _ -> None)
          (Obs.records ())
      in
      (* two events per traced call: entry and return *)
      let getpid_calls =
        List.filter (fun c -> c.Obs.Span.c_name = "getpid") calls
      in
      Alcotest.(check int) "pre + post" 2 (List.length getpid_calls);
      match getpid_calls with
      | [ pre; post ] ->
        Alcotest.(check bool) "entry has no result" true
          (pre.Obs.Span.c_result = None);
        Alcotest.(check bool) "return has a result" true
          (post.Obs.Span.c_result <> None);
        Alcotest.(check bool) "same span" true
          (pre.Obs.Span.c_span = post.Obs.Span.c_span
          && pre.Obs.Span.c_span > 0)
      | _ -> Alcotest.fail "expected exactly two events")

(* Trace [Call] records are sampled with their trap's span (DESIGN.md
   §3.4).  One session under the trace agent alone, run at 1-in-1 and
   at 1-in-16: at 1-in-16 every record names a sampled span whose
   segments carry the same pid, and the text the agent writes to its
   sink is the 1-in-1 run's, byte for byte. *)
let traced_session ~n =
  with_obs (fun () ->
      let k, status =
        boot (fun () ->
            let log =
              check_ok "open log"
                (Libc.Unistd.open_ "/tmp/trace.log"
                   Flags.Open.(o_wronly lor o_creat)
                   0o644)
            in
            let fd = Libc.Unistd.getdtablesize () - 1 in
            ignore (check_ok "dup2" (Libc.Unistd.dup2 log fd));
            ignore (Libc.Unistd.close log);
            Toolkit.Loader.install (Agents.Trace.create ~fd ()) ~argv:[||];
            Obs.configure ~ring_capacity:(1 lsl 16) ();
            Obs.set_sampling ~seed:3 n;
            Obs.reset ();
            for i = 1 to 20 do
              let path = Printf.sprintf "/tmp/f%d" i in
              ignore (Libc.Stdio.write_file path (String.make i 'x'));
              ignore (Libc.Stdio.read_file path);
              ignore (Libc.Unistd.stat path);
              ignore (Libc.Unistd.getpid ())
            done;
            let child =
              check_ok "fork"
                (Libc.Unistd.fork ~child:(fun () ->
                     ignore (Libc.Unistd.getpid ());
                     ignore (Libc.Unistd.stat "/tmp/none");
                     0))
            in
            ignore (Libc.Unistd.waitpid child 0);
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      let records = Obs.records () in
      let dropped = Obs.dropped () in
      Obs.configure ();
      (read_file_exn k "/tmp/trace.log", records, dropped))

let test_trace_records_sampled_with_span () =
  let text1, records1, _ = traced_session ~n:1 in
  let text16, records16, dropped = traced_session ~n:16 in
  Alcotest.(check int) "ring kept everything" 0 dropped;
  let calls rs =
    List.filter_map (function Obs.Span.Call c -> Some c | _ -> None) rs
  in
  let calls1 = calls records1 and calls16 = calls records16 in
  Alcotest.(check bool) "some traps sampled" true (calls16 <> []);
  Alcotest.(check bool) "most traps not" true
    (4 * List.length calls16 < List.length calls1);
  let segments =
    List.filter_map (function Obs.Span.Segment s -> Some s | _ -> None) records16
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "record names a sampled span" true
        (c.Obs.Span.c_span > 0);
      Alcotest.(check bool)
        (Printf.sprintf "span %d has a segment of pid %d" c.Obs.Span.c_span
           c.Obs.Span.c_pid)
        true
        (List.exists
           (fun s ->
             s.Obs.Span.span = c.Obs.Span.c_span && s.Obs.Span.pid = c.Obs.Span.c_pid)
           segments))
    calls16;
  Alcotest.(check bool) "sink text non-empty" true (String.length text1 > 0);
  Alcotest.(check string) "sink text at 1-in-16 is the 1-in-1 text" text1 text16

(* --- /obs synthetic files ------------------------------------------------ *)

let test_obs_fs_files () =
  with_obs (fun () ->
      let agent = Agents.Obs_fs.create () in
      let metrics_content = ref "" in
      let spans_content = ref "" in
      let codec_content = ref "" in
      let _, status =
        boot (fun () ->
            Toolkit.Loader.install agent ~argv:[||];
            Obs.reset ();
            for _ = 1 to 5 do
              ignore (Libc.Unistd.getpid ())
            done;
            spans_content := check_ok "spans" (Libc.Stdio.read_file "/obs/spans");
            metrics_content :=
              check_ok "metrics" (Libc.Stdio.read_file "/obs/metrics");
            codec_content := check_ok "codec" (Libc.Stdio.read_file "/obs/codec");
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      (* every line of /obs/spans is a parseable record *)
      let lines =
        List.filter (fun l -> l <> "")
          (String.split_on_char '\n' !spans_content)
      in
      Alcotest.(check bool) "spans nonempty" true (List.length lines >= 10);
      List.iter
        (fun line ->
          match Obs.Span.of_line line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "bad span line %s: %s" line e)
        lines;
      (* /obs/metrics is valid JSON naming getpid *)
      (match Obs.Json.of_string (String.trim !metrics_content) with
       | Error e -> Alcotest.failf "metrics not JSON: %s" e
       | Ok j ->
         (match Obs.Json.member "syscalls" j with
          | Some _ -> ()
          | None -> Alcotest.fail "metrics missing syscalls"));
      Alcotest.(check bool) "metrics name getpid" true
        (let s = !metrics_content in
         let needle = "\"getpid\"" in
         let n = String.length needle and len = String.length s in
         let rec scan i =
           i + n <= len && (String.sub s i n = needle || scan (i + 1))
         in
         scan 0);
      (* /obs/codec is the pretty-printed global counters *)
      Alcotest.(check bool) "codec mentions decodes" true
        (let s = !codec_content in
         let needle = "decodes=" in
         let n = String.length needle and len = String.length s in
         let rec scan i =
           i + n <= len && (String.sub s i n = needle || scan (i + 1))
         in
         scan 0))

(* What a simulated program reads about itself is simulation state:
   two identical runs read identical /obs/metrics bytes. *)
let test_obs_metrics_reproducible () =
  let read_metrics () =
    with_obs (fun () ->
        let content = ref "" in
        let _, status =
          boot (fun () ->
              Toolkit.Loader.install (Agents.Obs_fs.create ()) ~argv:[||];
              for _ = 1 to 2000 do
                ignore (Libc.Unistd.getpid ())
              done;
              content :=
                check_ok "metrics" (Libc.Stdio.read_file "/obs/metrics");
              0)
        in
        check_exit "session" 0 status;
        !content)
  in
  let first = read_metrics () in
  Alcotest.(check string) "same bytes" first (read_metrics ())

(* --- histogram quantiles ------------------------------------------------- *)

let test_hist_quantile_edges () =
  let h = Obs.Hist.create () in
  Alcotest.(check int) "empty p50" 0 (Obs.Hist.quantile h 0.5);
  Alcotest.(check int) "empty p99" 0 (Obs.Hist.quantile h 0.99);
  (* all mass in one bucket: every quantile answers that bucket's upper
     bound (5us lands in [4,8) -> 7) *)
  for _ = 1 to 10 do
    Obs.Hist.observe h 5
  done;
  Alcotest.(check int) "p50 of ten 5us" 7 (Obs.Hist.quantile h 0.50);
  Alcotest.(check int) "p99 of ten 5us" 7 (Obs.Hist.quantile h 0.99);
  Alcotest.(check int) "q below 0 clamps" 7 (Obs.Hist.quantile h (-1.0));
  Alcotest.(check int) "q above 1 clamps" 7 (Obs.Hist.quantile h 2.0);
  (* the zero bucket answers zero *)
  let z = Obs.Hist.create () in
  List.iter (Obs.Hist.observe z) [ 0; 0; 0 ];
  Alcotest.(check int) "all-zero p99" 0 (Obs.Hist.quantile z 0.99);
  (* the overflow bucket answers the exact observed maximum *)
  let o = Obs.Hist.create () in
  Obs.Hist.observe o 3;
  Obs.Hist.observe o max_int;
  Alcotest.(check int) "p50 stays in the low bucket" 3 (Obs.Hist.quantile o 0.5);
  Alcotest.(check int) "p100 is the exact max" max_int (Obs.Hist.quantile o 1.0)

let qcheck_quantile_bounds =
  QCheck.Test.make ~name:"quantile is monotone in q and bounds the max"
    ~count:300
    QCheck.(small_list small_nat)
    (fun xs ->
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.observe h) xs;
      let vals =
        List.map (Obs.Hist.quantile h) [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]
      in
      let rec mono = function
        | a :: (b :: _ as tl) -> a <= b && mono tl
        | _ -> true
      in
      mono vals
      && (xs = [] || Obs.Hist.quantile h 1.0 >= List.fold_left max 0 xs))

(* --- sampling ------------------------------------------------------------- *)

(* Drive the span engine directly (no kernel): each trap is one span
   with a single uspace frame of [dur] virtual us. *)
let drive_traps ~n ~seed traps =
  Obs.reset ();
  Obs.enable ();
  Obs.set_sampling ~seed n;
  let t = ref 0 in
  Obs.set_clock (fun () -> !t);
  Obs.set_context (fun () -> 7);
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.set_sampling 1;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun (sysno, dur, error) ->
          let span = Obs.span_begin ~pid:7 ~sysno in
          Obs.in_layer ~span "uspace" (fun () -> t := !t + dur);
          Obs.span_end span ~error)
        traps;
      (Obs.metrics (), Obs.segments ()))

(* Replay the sampler's decision stream: one draw per trap iff n > 1. *)
let predicted_decisions ~n ~seed ~count =
  let rng = Sim.Rng.create seed in
  List.init count (fun _ -> n <= 1 || Sim.Rng.int rng n = 0)

let qcheck_sampler_ring_and_exact_counts =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 8)
        (pair small_nat
           (list_size (int_range 0 40) (pair (int_range 0 5) bool))))
  in
  QCheck.Test.make
    ~name:"sampler: ring holds exactly the chosen spans; calls/errors exact"
    ~count:100
    (QCheck.make
       ~print:(fun (n, (seed, traps)) ->
         Printf.sprintf "n=%d seed=%d traps=%d" n seed (List.length traps))
       gen)
    (fun (n, (seed, traps)) ->
      let traps = List.map (fun (s, e) -> (10 + s, 3, e)) traps in
      let m, segs = drive_traps ~n ~seed traps in
      let decisions = predicted_decisions ~n ~seed ~count:(List.length traps) in
      let chosen =
        List.combine traps decisions |> List.filter snd |> List.map fst
      in
      (* (a) exactly the sampler-chosen spans appear in the ring, in
         order, under positive strictly-increasing span ids *)
      List.length segs = List.length chosen
      && List.for_all2
           (fun seg (sysno, _, _) -> seg.Obs.Span.sysno = sysno)
           segs chosen
      && (let rec increasing = function
            | a :: (b :: _ as tl) ->
              a.Obs.Span.span < b.Obs.Span.span && increasing tl
            | _ -> true
          in
          increasing segs)
      && List.for_all (fun seg -> seg.Obs.Span.span > 0) segs
      (* (b) per-syscall calls/errors are exact regardless of n, while
         the sampled histogram covers only the chosen subset *)
      && List.for_all
           (fun sm ->
             let all =
               List.filter (fun (sy, _, _) -> sy = sm.Obs.sm_sysno) traps
             in
             sm.Obs.sm_calls = List.length all
             && sm.Obs.sm_errors
                = List.length (List.filter (fun (_, _, e) -> e) all)
             && Obs.Hist.count sm.Obs.sm_hist
                = List.length
                    (List.filter (fun (sy, _, _) -> sy = sm.Obs.sm_sysno)
                       chosen))
           m.Obs.m_syscalls
      && m.Obs.m_sample_n = n
      && m.Obs.m_spans = List.length chosen)

let test_sampling_estimates_converge () =
  (* (c) scaled estimates approach the true totals: 4000 identical traps
     at 1-in-4 must estimate the trap count within 15% *)
  let traps = List.init 4000 (fun _ -> (20, 2, false)) in
  let m, _ = drive_traps ~n:4 ~seed:1 traps in
  let sm = List.find (fun s -> s.Obs.sm_sysno = 20) m.Obs.m_syscalls in
  Alcotest.(check int) "calls exact" 4000 sm.Obs.sm_calls;
  let est = Obs.Hist.count sm.Obs.sm_hist * m.Obs.m_sample_n in
  if abs (est - 4000) > 600 then
    Alcotest.failf "estimate %d too far from 4000" est;
  (* the scaled virtual-time estimate converges the same way *)
  let est_us = Obs.Hist.sum_us sm.Obs.sm_hist * m.Obs.m_sample_n in
  if abs (est_us - 8000) > 1200 then
    Alcotest.failf "time estimate %dus too far from 8000us" est_us

(* Besides plain calls, children exit, exec and die of a signal while
   obs is on: a trap that never returns to its caller is no error at
   any rate, whether or not its span was sampled. *)
let sampled_session_counts ~n =
  with_obs (fun () ->
      let k = fresh_kernel () in
      Kernel.register_image k "probe" (fun ~argv:_ ~envp:_ () ->
        ignore (Libc.Unistd.getpid ());
        0);
      Kernel.install_image k ~path:"/bin/probe" ~image:"probe";
      let status =
        boot_k k (fun () ->
            Obs.reset ();
            Obs.set_sampling ~seed:9 n;
            for _ = 1 to 25 do
              ignore (Libc.Unistd.getpid ())
            done;
            (match Libc.Unistd.close 99 with _ -> ());
            for _ = 1 to 8 do
              ignore (Libc.Unistd.fork ~child:(fun () -> 0));
              ignore
                (Libc.Unistd.fork ~child:(fun () ->
                   match Libc.Unistd.execv "/bin/probe" [| "probe" |] with
                   | Error _ -> 1
                   | Ok _ -> assert false));
              ignore
                (Libc.Unistd.fork ~child:(fun () ->
                   ignore
                     (Libc.Unistd.kill (Libc.Unistd.getpid ()) Signal.sigterm);
                   1))
            done;
            for _ = 1 to 24 do
              ignore (Libc.Unistd.wait ())
            done;
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      List.map
        (fun s -> (s.Obs.sm_sysno, s.Obs.sm_calls, s.Obs.sm_errors))
        (Obs.metrics ()).Obs.m_syscalls)

(* Two pids at 1-in-8: [holder] keeps a sampled span open while
   [other] sits in an unsampled one.  The engine's open-span answers
   -- [current], [causal_origin], a pipe edge's endpoints each way --
   must match a model that looks up every pid, for both and for a pid
   that never trapped; the edge exists only toward a sampled reader,
   so only into [holder]'s span.  Then both spans close, so the engine
   answers through its guard on an empty open-span table, and must
   still match the model: no edge either way. *)
let test_open_span_guard () =
  Obs.with_engine (Obs.engine ()) (fun () ->
    Obs.set_sampling ~seed:3 8;
    Obs.enable ();
    let holder = 11 and other = 12 and idle = 13 in
    let ctx = ref 0 in
    Obs.set_context (fun () -> !ctx);
    (* traps until the sampler decides [want], closing the others *)
    let rec open_span pid ~want =
      let s = Obs.span_begin ~pid ~sysno:Sysno.sys_getpid in
      if want s then s
      else begin
        Obs.span_end s ~error:false;
        open_span pid ~want
      end
    in
    let held = open_span holder ~want:(fun s -> s > 0) in
    let skipped = open_span other ~want:(fun s -> s < 0) in
    let model = ref [ (holder, held) ] in
    let innermost pid = Option.value ~default:0 (List.assoc_opt pid !model) in
    let chan = ref 0 in
    let check phase =
      List.iter
        (fun pid ->
          let what fmt = Printf.sprintf ("%s, pid %d: " ^^ fmt) phase pid in
          ctx := pid;
          Alcotest.(check int) (what "current") (innermost pid) (Obs.current ());
          Alcotest.(check (triple int int int)) (what "causal_origin")
            (0, innermost pid, pid) (Obs.causal_origin pid))
        [ holder; other; idle ];
      List.iter
        (fun (w, r) ->
          incr chan;
          let q = Obs.causal_pipe_write Obs.no_stamps ~at:0 ~pid:w ~bytes:4 in
          Obs.causal_pipe_read q ~chan:(Obs.chan_pipe !chan) ~at:0 ~pid:r
            ~bytes:4;
          let ends = Printf.sprintf "span %d pid %d -> span %d pid %d" in
          Alcotest.(check (list string))
            (Printf.sprintf "%s: pipe edge %d -> %d" phase w r)
            (if innermost r > 0 then [ ends (innermost w) w (innermost r) r ]
             else [])
            (List.map
               (fun (e : Obs.Causal.edge) ->
                 Obs.Causal.(ends e.ed_src_span e.ed_src_pid e.ed_dst_span e.ed_dst_pid))
               (Obs.Span.edges (Obs.drain ()))))
        [ (holder, other); (other, holder) ]
    in
    check "one sampled span open";
    Obs.span_end skipped ~error:false;
    Obs.span_end held ~error:false;
    model := [];
    check "no sampled span open";
    Obs.disable ())

(* A wire number below 0 names no call (a raw trap can carry one): it
   opens no span, counts nowhere, and must not reach the sysno-indexed
   table. *)
(* An application may trap with any int: every number outside the
   per-syscall table shares its one overflow row (sysno 1024), sampled
   or not, so a hostile number neither grows the table nor escapes as
   an exception, and a negative one's span, when sampled, is still a
   fork edge's endpoint: the edge exists iff the child's first span is
   a sampled one, so always at 1-in-1. *)
let test_out_of_range_sysnos_share_overflow_row () =
  let wild = [ -3; max_int; 1_000_000_000; min_int; 1024 ] in
  List.iter
    (fun n ->
      Obs.with_engine (Obs.engine ()) (fun () ->
        Obs.enable ();
        Obs.set_sampling n;
        let parent = Obs.span_begin ~pid:1 ~sysno:2 in
        (* the kernel's fork: the child carries the origin to its first
           trap, which completes the edge *)
        let forked_by = ref (Some (Obs.causal_origin 1)) in
        let first_span = ref 0 in
        List.iter
          (fun sysno ->
            let span = Obs.span_begin ~pid:7 ~sysno in
            Option.iter
              (fun origin ->
                forked_by := None;
                first_span := span;
                Obs.causal_edge Obs.Causal.Fork ~origin ~span ~pid:7 ~detail:"")
              !forked_by;
            if n > 1 then
              Alcotest.(check bool) "unsampled sentinel is negative" true
                (span <= 0 || span > parent);
            Obs.span_end span ~error:true)
          wild;
        Obs.span_end parent ~error:false;
        let m = Obs.metrics () in
        Alcotest.(check (list (triple int int int)))
          (Printf.sprintf "rows at 1-in-%d" n)
          [ (2, 1, 0); (1024, List.length wild, List.length wild) ]
          (List.map
             (fun s -> (s.Obs.sm_sysno, s.Obs.sm_calls, s.Obs.sm_errors))
             m.Obs.m_syscalls);
        let forks =
          List.filter_map
            (function
              | Obs.Span.Edge ed when ed.Obs.Causal.ed_kind = Obs.Causal.Fork ->
                Some (ed.Obs.Causal.ed_src_pid, ed.Obs.Causal.ed_dst_pid)
              | _ -> None)
            (Obs.records ())
        in
        if n = 1 then
          Alcotest.(check bool) "at 1-in-1 the first trap is sampled" true
            (!first_span > 0);
        Alcotest.(check (list (pair int int)))
          "the child's first (negative) trap completes its fork edge iff sampled"
          (if !first_span > 0 then [ (1, 7) ] else [])
          forks;
        Obs.disable ()))
    [ 1; 256 ]

(* The same numbers trapped raw by an application on an observed
   kernel: the kernel answers each ENOSYS, and obs counts them in the
   overflow row. *)
let test_wild_trap_numbers_enosys_under_obs () =
  with_obs (fun () ->
      let wild = [ max_int; 1_000_000_000; -5 ] in
      let results = ref [] in
      let _, status =
        boot (fun () ->
            Obs.reset ();
            results :=
              List.map
                (fun num -> Kernel.Uspace.trap_wire { Value.num; args = [||] })
                wild;
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      List.iter
        (fun r -> Alcotest.(check bool) "ENOSYS" true (r = Error Errno.ENOSYS))
        !results;
      let m = Obs.metrics () in
      let over = List.find (fun s -> s.Obs.sm_sysno = 1024) m.Obs.m_syscalls in
      Alcotest.(check (pair int int)) "overflow row calls, errors" (3, 3)
        (over.Obs.sm_calls, over.Obs.sm_errors);
      Alcotest.(check bool) "no row past the overflow row" true
        (List.for_all (fun s -> s.Obs.sm_sysno <= 1024) m.Obs.m_syscalls))

let test_sampling_exact_counts_across_rates () =
  let base = sampled_session_counts ~n:1 in
  List.iter
    (fun n ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "counts at n=%d match n=1" n)
        base
        (sampled_session_counts ~n))
    [ 2; 16; 256 ]

(* --- chrome trace export -------------------------------------------------- *)

let get_int k e =
  match Option.bind (Obs.Json.member k e) Obs.Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "event missing int %S" k

let get_str k e =
  match Option.bind (Obs.Json.member k e) Obs.Json.to_str with
  | Some v -> v
  | None -> Alcotest.failf "event missing string %S" k

(* Every event carries ph/ts/pid/tid; complete events carry name and
   dur; non-metadata events are sorted by timestamp. *)
let check_chrome_events j =
  match j with
  | Obs.Json.Arr events ->
    let prev = ref 0 in
    List.iter
      (fun e ->
        let ph = get_str "ph" e in
        let ts = get_int "ts" e in
        ignore (get_int "pid" e);
        ignore (get_int "tid" e);
        if ph = "X" then begin
          ignore (get_int "dur" e);
          ignore (get_str "name" e)
        end;
        if ph <> "M" then begin
          if ts < !prev then Alcotest.failf "events unsorted at ts=%d" ts;
          prev := ts
        end)
      events;
    events
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

(* Per span, the outermost (depth-0) complete event's dur equals the
   sum of self_us over the span's complete events — the chrome view
   preserves the attribution invariant. *)
let check_chrome_self_sums events =
  let root = Hashtbl.create 8 and selfs = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if get_str "ph" e = "X" then begin
        let args =
          match Obs.Json.member "args" e with
          | Some a -> a
          | None -> Alcotest.fail "complete event missing args"
        in
        let span = get_int "span" args in
        Hashtbl.replace selfs span
          (get_int "self_us" args
          + Option.value (Hashtbl.find_opt selfs span) ~default:0);
        if get_int "depth" args = 0 then
          Hashtbl.replace root span (get_int "dur" e)
      end)
    events;
  Alcotest.(check bool) "saw at least one root frame" true
    (Hashtbl.length root > 0);
  Hashtbl.iter
    (fun span dur ->
      Alcotest.(check int)
        (Printf.sprintf "span %d self sum = root dur" span)
        dur
        (Option.value (Hashtbl.find_opt selfs span) ~default:(-1)))
    root

let test_chrome_export_shape () =
  let seg span layer depth start_us self_us total_us =
    Obs.Span.Segment
      { Obs.Span.span; pid = 2; sysno = 20; layer; depth; start_us; self_us;
        total_us; decodes = 0; encodes = 0; rewrites = 0 }
  in
  let records =
    [ seg 1 "kernel" 2 10 62 62;
      seg 1 "null" 1 5 82 144;
      seg 1 "uspace" 0 0 30 174;
      Obs.Span.Call
        { Obs.Span.c_span = 1; c_pid = 2; c_t_us = 4; c_name = "getpid";
          c_args = ""; c_result = None; c_rewrote = false };
      Obs.Span.Mark
        { Obs.Span.m_span = 0; m_pid = 2; m_t_us = 100; m_kind = "signal";
          m_detail = "SIGUSR1" } ]
  in
  let events =
    check_chrome_events
      (Obs.Chrome.to_json ~name:(fun n -> Printf.sprintf "sys%d" n) records)
  in
  let by_ph p = List.filter (fun e -> get_str "ph" e = p) events in
  (* one process: process_name + the tid-0 events track + three layer
     tracks *)
  Alcotest.(check int) "metadata events" 5 (List.length (by_ph "M"));
  Alcotest.(check int) "complete events" 3 (List.length (by_ph "X"));
  Alcotest.(check int) "instant events" 2 (List.length (by_ph "i"));
  List.iter
    (fun e -> Alcotest.(check int) "instants ride tid 0" 0 (get_int "tid" e))
    (by_ph "i");
  (* layer tracks are numbered outermost-first; complete events come
     back sorted by start time (uspace, null, kernel) *)
  Alcotest.(check (list int)) "stack-ordered tids" [ 1; 2; 3 ]
    (List.map (fun e -> get_int "tid" e) (by_ph "X"));
  check_chrome_self_sums events;
  match Obs.Json.of_string (Obs.Chrome.to_string records) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome string does not parse: %s" e

let test_chrome_from_session () =
  with_obs (fun () ->
      let _, status =
        boot (fun () ->
            Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
            Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
            Obs.reset ();
            for _ = 1 to 3 do
              ignore (Libc.Unistd.getpid ())
            done;
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      let events =
        check_chrome_events
          (Obs.Chrome.to_json ~name:Call.name (Obs.records ()))
      in
      check_chrome_self_sums events)

(* --- process lane naming -------------------------------------------------- *)

let tiny_records pid =
  [ Obs.Span.Segment
      { Obs.Span.span = 1; pid; sysno = 20; layer = "uspace"; depth = 0;
        start_us = 0; self_us = 5; total_us = 5; decodes = 0; encodes = 0;
        rewrites = 0 } ]

(* the [(pid, label)] rows the ph:"M" process_name metadata declares *)
let process_names j =
  match j with
  | Obs.Json.Arr events ->
    List.filter_map
      (fun e ->
        if get_str "ph" e = "M" && get_str "name" e = "process_name" then
          match Obs.Json.member "args" e with
          | Some args -> Some (get_int "pid" e, get_str "name" args)
          | None -> None
        else None)
      events
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_chrome_pid_labels () =
  (* agentrun passes the image name captured from the process table;
     the trace process row must carry it *)
  let label pid = Printf.sprintf "pid %d scribe" pid in
  Alcotest.(check (list (pair int string))) "process row named after the image"
    [ (2, "pid 2 scribe") ]
    (process_names (Obs.Chrome.to_json ~pid_label:label (tiny_records 2)));
  Alcotest.(check (list (pair int string))) "default keeps the bare pid"
    [ (2, "pid 2") ]
    (process_names (Obs.Chrome.to_json (tiny_records 2)))

(* --- rewrite flags -------------------------------------------------------- *)

(* [agentrun -a timex:1000 -a trace touch /tmp/a ... /tmp/h]: the trace
   sink's text, with obs off ([None]) or sampling 1 in [n]. *)
let timex_trace_touch obs =
  (match obs with
   | Some n ->
     Obs.set_sampling n;
     Obs.enable ()
   | None -> Obs.disable ());
  let k = Tharness.fresh_kernel () in
  Workloads.Progs.install_all k;
  let status =
    Tharness.boot_k k (fun () ->
      Toolkit.Loader.install (Agents.Timex.create ~offset_seconds:1000 ())
        ~argv:[||];
      Toolkit.Loader.install (Agents.Trace.create ~fd:2 ()) ~argv:[||];
      let files =
        List.map (fun c -> "/tmp/" ^ c) [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
      in
      match Libc.Spawn.run "/bin/touch" (Array.of_list ("touch" :: files)) with
      | Ok st -> Flags.Wait.wexitstatus st
      | Error _ -> 127)
  in
  Obs.disable ();
  Obs.set_sampling 1;
  check_exit "touch under timex and trace" 0 status;
  Kernel.console_output k

let test_rewrite_marks_sampler_free () =
  let off = timex_trace_touch None in
  let marks =
    List.length
      (List.filter
         (String.ends_with ~suffix:" [rewritten]")
         (String.split_on_char '\n' off))
  in
  Alcotest.(check int) "one mark per shifted gettimeofday" 8 marks;
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "text at 1-in-%d = text with obs off" n)
        off
        (timex_trace_touch (Some n)))
    [ 1; 2; 16 ]

let test_rewrite_flag_timex_under_trace () =
  with_obs (fun () ->
      let _, status =
        boot (fun () ->
            (* timex below, trace on top (installed last = hit first):
               the trace return event must see the rewrite the lower
               layer performed *)
            Toolkit.Loader.install
              (Agents.Timex.create ~offset_seconds:3600 ())
              ~argv:[||];
            Toolkit.Loader.install (Agents.Trace.create ~fd:2 ()) ~argv:[||];
            Obs.reset ();
            ignore (Libc.Unistd.gettimeofday ());
            ignore (Libc.Unistd.getpid ());
            Obs.disable ();
            0)
      in
      check_exit "session" 0 status;
      let records = Obs.records () in
      let segs =
        List.filter_map
          (function Obs.Span.Segment s -> Some s | _ -> None)
          records
      in
      let layer_rewrites name =
        List.fold_left
          (fun acc s ->
            if s.Obs.Span.layer = name then acc + s.Obs.Span.rewrites else acc)
          0 segs
      in
      Alcotest.(check bool) "timex frame carries the rewrite" true
        (layer_rewrites "timex" >= 1);
      Alcotest.(check int) "trace frames rewrite nothing" 0
        (layer_rewrites "trace");
      (* untouched traps stay unflagged *)
      List.iter
        (fun s ->
          if s.Obs.Span.sysno = Sysno.sys_getpid then
            Alcotest.(check int) "getpid segments clean" 0 s.Obs.Span.rewrites)
        segs;
      let post name =
        List.find_map
          (function
            | Obs.Span.Call c
              when c.Obs.Span.c_name = name && c.Obs.Span.c_result <> None ->
              Some c
            | _ -> None)
          records
      in
      (match post "gettimeofday" with
       | Some c ->
         Alcotest.(check bool) "gettimeofday return flagged" true
           c.Obs.Span.c_rewrote;
         let line = Obs.Span.call_line c in
         let suffix = " [rewritten]" in
         let n = String.length suffix and len = String.length line in
         Alcotest.(check bool) "trace line marks the rewrite" true
           (len >= n && String.sub line (len - n) n = suffix)
       | None -> Alcotest.fail "no gettimeofday return event");
      match post "getpid" with
      | Some c ->
        Alcotest.(check bool) "getpid return unflagged" false
          c.Obs.Span.c_rewrote
      | None -> Alcotest.fail "no getpid return event")

(* --- disabled = off ------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  let _, status =
    boot (fun () ->
        for _ = 1 to 5 do
          ignore (Libc.Unistd.getpid ())
        done;
        0)
  in
  check_exit "session" 0 status;
  Alcotest.(check int) "no records" 0 (List.length (Obs.records ()));
  let m = Obs.metrics () in
  Alcotest.(check int) "no spans" 0 m.Obs.m_spans;
  Alcotest.(check int) "no syscalls" 0 (List.length m.Obs.m_syscalls)

let () =
  Alcotest.run "obs"
    [ ( "ring",
        [ Alcotest.test_case "fifo" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "drain" `Quick test_ring_drain;
          Alcotest.test_case "capacity clamp" `Quick test_ring_capacity_clamp;
          qtest qcheck_ring_keeps_newest;
          qtest qcheck_ring_model ] );
      ( "hist",
        [ Alcotest.test_case "bucket edges" `Quick test_hist_bucket_edges;
          Alcotest.test_case "observe" `Quick test_hist_observe;
          Alcotest.test_case "quantile edges" `Quick test_hist_quantile_edges;
          qtest qcheck_hist_invariants;
          qtest qcheck_quantile_bounds ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors ] );
      ( "spans",
        [ qtest qcheck_span_jsonl_roundtrip;
          Alcotest.test_case "call line shapes" `Quick test_call_line_shapes;
          Alcotest.test_case "session JSONL" `Quick test_spans_parse_as_jsonl ] );
      ( "attribution",
        [ Alcotest.test_case "four-deep null stack" `Quick
            test_attribution_four_deep;
          Alcotest.test_case "depth zero" `Quick test_attribution_depth_zero;
          Alcotest.test_case "errors counted" `Quick test_error_spans_counted;
          Alcotest.test_case "exit/exec abort spans" `Quick
            test_exit_exec_spans_aborted;
          Alcotest.test_case "ring drops under load" `Quick
            test_ring_drop_counting_under_load ] );
      ( "sampling",
        [ qtest qcheck_sampler_ring_and_exact_counts;
          Alcotest.test_case "estimates converge" `Quick
            test_sampling_estimates_converge;
          Alcotest.test_case "exact counts across rates" `Quick
            test_sampling_exact_counts_across_rates;
          Alcotest.test_case "open-span guard matches a per-pid model" `Quick
            test_open_span_guard;
          Alcotest.test_case "out-of-range sysnos share the overflow row"
            `Quick test_out_of_range_sysnos_share_overflow_row;
          Alcotest.test_case "wild trap numbers answer ENOSYS under obs"
            `Quick test_wild_trap_numbers_enosys_under_obs ] );
      ( "chrome",
        [ Alcotest.test_case "export shape" `Quick test_chrome_export_shape;
          Alcotest.test_case "session export" `Quick test_chrome_from_session;
          Alcotest.test_case "pid labels" `Quick test_chrome_pid_labels ] );
      ( "rewrites",
        [ Alcotest.test_case "timex under trace" `Quick
            test_rewrite_flag_timex_under_trace;
          Alcotest.test_case "marks do not depend on the sampler" `Quick
            test_rewrite_marks_sampler_free ] );
      ( "sinks",
        [ Alcotest.test_case "trace agent call records" `Quick
            test_trace_agent_records_calls;
          Alcotest.test_case "trace records sampled with their span" `Quick
            test_trace_records_sampled_with_span;
          Alcotest.test_case "/obs synthetic files" `Quick test_obs_fs_files;
          Alcotest.test_case "/obs/metrics reproducible" `Quick
            test_obs_metrics_reproducible;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing ] ) ]
