(* One workload in this process: a discarded warm-up round, then
   fixed-size rounds until the time budget is spent.  Every round is
   checked; the metrics are medians over rounds. *)

let default_seed = 1
let now_ns = Spans.now_ns

let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

type round = {
  slowdown : float;  (** the host's, from {!Reference} around this round *)
  wall_ns : int;
  cpu_ns : int;
  minor : float;
  promoted : float;
  majors : int;
  setup : int;
  retained : int;  (** live words the round's kernel(s) kept, after a full major *)
  o : Load.outcome;
}

(* [wrap] runs around the timed part of the round (the traced run turns
   spans and GC-pause recording on there) *)
let round ?(wrap = fun f -> f ()) (w : Load.t) =
  (* [Kernel.create] makes the new kernel the current shard, which keeps
     it alive: an empty kernel takes that place, so the previous round's
     kernels are garbage before the baseline is read *)
  ignore (Kernel.create ());
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let before = Reference.sample () in
  Load.setup_ns := 0;
  let g0 = Gc.quick_stat () in
  let c0 = cpu_ns () in
  let t0 = now_ns () in
  let finish = wrap (fun () -> Spans.span "round" w.Load.round) in
  let t1 = now_ns () in
  let c1 = cpu_ns () in
  let g1 = Gc.quick_stat () in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let slowdown = Reference.slowdown (before @ Reference.sample ()) in
  let o = finish () in
  { slowdown; wall_ns = t1 - t0; cpu_ns = c1 - c0;
    minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
    setup = !Load.setup_ns; retained = live1 - live0; o }

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* host ns of a round, as on the reference host at full speed *)
let host r ns = float_of_int ns /. r.slowdown

let tps r = float_of_int r.o.Load.traps /. (host r r.wall_ns /. 1e9)

(* The end-to-end metrics, in BENCHMARK.json order: name, unit, and the
   per-round values (peak heap is one value per run). *)
let end_to_end : (string * string * (round list -> float list)) list =
  let per_trap f r = f r /. float_of_int r.o.Load.traps in
  [ ("traps_per_s", "1/s", List.map tps);
    ("cpu_ns_per_trap", "ns", List.map (per_trap (fun r -> host r r.cpu_ns)));
    ("minor_words_per_trap", "words", List.map (per_trap (fun r -> r.minor)));
    ("promoted_words_per_trap", "words", List.map (per_trap (fun r -> r.promoted)));
    ("peak_heap_mb", "MB", fun _ -> [ mb (Gc.quick_stat ()).Gc.top_heap_words ]);
    ("retained_mb", "MB", List.map (fun r -> mb r.retained));
    ("setup_s", "s", List.map (fun r -> host r r.setup /. 1e9)) ]

(* --- correctness ----------------------------------------------------------- *)

let signature (o : Load.outcome) = (o.traps, o.vus, o.digest)

(* The reference a round must reproduce: the committed expectation at
   the default seed, otherwise the warm-up round's own outcome. *)
let reference ~seed (w : Load.t) (warm : Load.outcome) =
  match List.assoc_opt w.Load.name Expected.at_default_seed with
  | Some e when seed = default_seed -> e
  | _ -> signature warm

(* a round that does not reproduce the reference failed as a whole *)
let failed_ops ref_sig (o : Load.outcome) =
  if signature o = ref_sig then o.failed else o.ops

(* --- output ------------------------------------------------------------------ *)

let json_metric ~unit v = Obs.Json.Obj [ ("value", Float v); ("unit", Str unit) ]

let result_line ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obj
       [ ("correct", Bool (failed = 0)); ("attempted", Int attempted);
         ("failed", Int failed);
         ("metrics", Obj (List.map (fun (n, u, v) -> (n, json_metric ~unit:u v)) metrics)) ])

let detail_prefix = "perf-detail "

let summary_json (s : Stats.summary) =
  Obs.Json.Obj
    [ ("median", Float s.median); ("q1", Float s.q1); ("q3", Float s.q3); ("n", Int s.n) ]

let print_check name ref_sig (o : Load.outcome) =
  let t, v, d = ref_sig in
  Printf.printf "%s: traps %d  virtual %d us  digest %s  (expected %d / %d / %s)\n"
    name o.traps o.vus o.digest t v d

(* --- running a workload --------------------------------------------------------- *)

(* the medians need both of the host's speed modes sampled; see README.md *)
let min_rounds = 20

let run_rounds ~seconds ~each =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    if now_ns () >= deadline && List.length acc >= min_rounds then List.rev acc
    else go (each (List.length acc) :: acc)
  in
  go []

(* the discarded warm-up round, which also fixes the reference *)
let warm_up (w : Load.t) ~seed =
  let warm = round w in
  let ref_sig = reference ~seed w warm.o in
  print_check w.Load.name ref_sig warm.o;
  ref_sig

let tally ref_sig rounds =
  ( List.fold_left (fun a r -> a + r.o.Load.ops) 0 rounds,
    List.fold_left (fun a r -> a + failed_ops ref_sig r.o) 0 rounds )

let finish ~attempted ~failed metrics =
  Printf.printf "ops %d  failed %d  fail_ratio %g\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline (result_line ~attempted ~failed metrics);
  failed = 0

(* The untraced run: every end-to-end metric. *)
let untraced (w : Load.t) ~seed ~seconds =
  let ref_sig = warm_up w ~seed in
  let rounds = run_rounds ~seconds ~each:(fun _ -> round w) in
  let attempted, failed = tally ref_sig rounds in
  let rows =
    List.map (fun (name, unit, f) -> (name, unit, Stats.summarize (f rounds))) end_to_end
  in
  Printf.printf "%-26s %14s %14s %14s %4s  %s\n" "metric" "median" "q1" "q3" "n" "unit";
  List.iter
    (fun (name, unit, (s : Stats.summary)) ->
      Printf.printf "%-26s %14.6g %14.6g %14.6g %4d  %s\n" name s.median s.q1 s.q3 s.n unit)
    rows;
  let slowdown = Stats.summarize (List.map (fun r -> r.slowdown) rounds) in
  Printf.printf "host slowdown %.3f (q1 %.3f, q3 %.3f): times above are divided by it\n"
    slowdown.median slowdown.q1 slowdown.q3;
  print_endline
    (detail_prefix
    ^ Obs.Json.to_string
        (Obj
           [ ("workload", Str w.Load.name); ("seed", Int seed);
             ("attempted", Int attempted); ("failed", Int failed);
             ("slowdown", summary_json slowdown);
             ("metrics", Obj (List.map (fun (n, _, s) -> (n, summary_json s)) rows)) ]));
  finish ~attempted ~failed (List.map (fun (n, u, (s : Stats.summary)) -> (n, u, s.median)) rows)

(* spans whose self time per traced round is a per-layer metric *)
let self_spans =
  List.map
    (fun s -> ("self." ^ s ^ "_ms", s))
    [ "round"; "setup"; "kernel.create"; "workloads.setup"; "toolkit.install"; "boot" ]

(* The per-layer metrics, in BENCHMARK.json order. *)
let per_layer : (string * string) list =
  List.concat_map
    (fun op -> [ ("libc." ^ op ^ "_ns_p50", "ns"); ("libc." ^ op ^ "_ns_p99", "ns") ])
    Load.op_names
  @ [ ("abi.encode_ns", "ns"); ("abi.decode_ns", "ns"); ("abi.envelope_words", "words");
      ("toolkit.layer_ns", "ns"); ("toolkit.layer_words", "words");
      ("toolkit.install_ns", "ns"); ("agents.sandbox_ns_per_op", "ns");
      ("agents.crypt_ns_per_op", "ns"); ("agents.trace_ns_per_op", "ns");
      ("kernel.fork_wait_ns", "ns"); ("kernel.fork_wait_words", "words");
      ("kernel.exec_ns", "ns"); ("kernel.socket_rtt_ns", "ns"); ("kernel.create_ns", "ns");
      ("vfs.resolve_ns", "ns"); ("vfs.create_unlink_ns", "ns");
      ("vfs.filedata_read64_ns", "ns"); ("vfs.filedata_write64_ns", "ns");
      ("obs.overhead_1in256_ns_per_trap", "ns"); ("obs.overhead_1in1_ns_per_trap", "ns");
      ("obs.engine_words", "words"); ("workloads.setup_ns", "ns");
      ("gc.minor_pause_us_p50", "us"); ("gc.minor_pause_us_p99", "us");
      ("gc.major_pause_us_p99", "us"); ("gc.pause_us_max", "us");
      ("gc.major_cycles_per_mtrap", "1/Mtrap"); ("trace.overhead_pct", "%");
      ("trace.clock_read_ns", "ns"); ("host.slowdown", "x") ]
  @ List.map (fun (metric, _) -> (metric, "ms")) self_spans

(* The traced run: untraced and traced rounds alternate, so the tracing
   overhead is measured under the same conditions; the probes follow. *)
let traced (w : Load.t) ~seed ~seconds ~out_dir =
  Gcpause.start ();
  let ref_sig = warm_up w ~seed in
  let trace f =
    Spans.on := true;
    Fun.protect (fun () -> Gcpause.record f) ~finally:(fun () -> Spans.on := false)
  in
  let rounds =
    run_rounds ~seconds ~each:(fun i ->
      if i mod 2 = 1 then (true, round ~wrap:trace w) else (false, round w))
  in
  let all = List.map snd rounds in
  let traced, plain = List.partition fst rounds in
  let median_tps rs = Stats.median (List.map (fun (_, r) -> tps r) rs) in
  let n_traced = float_of_int (List.length traced) in
  let stat name f = match Spans.stats name with Some p -> f p | None -> nan in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 all) in
  let from_rounds =
    [ ("trace.overhead_pct", ((median_tps plain /. median_tps traced) -. 1.) *. 100.);
      ("trace.clock_read_ns", Spans.clock_read_ns ());
      ("host.slowdown", Stats.median (List.map (fun r -> r.slowdown) all));
      ("workloads.setup_ns", stat "workloads.setup" (fun p -> Stats.Hist.percentile p.Spans.hist 0.5));
      ("gc.major_cycles_per_mtrap", 1e6 *. sum (fun r -> r.majors) /. sum (fun r -> r.o.Load.traps)) ]
    @ List.map
        (fun (metric, span) ->
          (metric, stat span (fun p -> float_of_int p.Spans.self_ns /. n_traced /. 1e6)))
        self_spans
  in
  let mix = Load.gen_mix ~seed 20_000 in
  let probes =
    List.concat
      [ Probes.run "libc" (fun () -> Probes.libc mix);
        Probes.run "abi" (fun () -> Probes.abi mix);
        Probes.run "toolkit" (fun () -> Probes.toolkit_and_agents mix);
        Probes.run "kernel" Probes.kernel;
        Probes.run "vfs" (fun () -> Probes.vfs ~seed mix);
        Probes.run "obs" (fun () -> Probes.obs ~seed) ]
  in
  let us h p = Stats.Hist.percentile h p /. 1e3 in
  let gc =
    [ ("gc.minor_pause_us_p50", us Gcpause.minor 0.5);
      ("gc.minor_pause_us_p99", us Gcpause.minor 0.99);
      ("gc.major_pause_us_p99", us Gcpause.major 0.99);
      ("gc.pause_us_max",
       float_of_int (max Gcpause.minor.Stats.Hist.max Gcpause.major.Stats.Hist.max) /. 1e3) ]
  in
  let values = from_rounds @ probes @ gc in
  let rows = List.map (fun (name, unit) -> (name, unit, List.assoc name values)) per_layer in
  List.iter (fun (name, unit, v) -> Printf.printf "%-34s %14.6g  %s\n" name v unit) rows;
  if !Gcpause.lost > 0 then Printf.printf "gc events lost: %d\n" !Gcpause.lost;
  let path = Filename.concat out_dir ("trace-" ^ w.Load.name ^ ".json") in
  Spans.write_chrome path;
  Printf.printf "spans: %s (%d dropped past %d per name)\n" path !Spans.dropped
    Spans.keep_per_name;
  let attempted, failed = tally ref_sig all in
  finish ~attempted ~failed rows
