(* Per-layer probes for the traced run.  Each times calls into one
   layer's public functions from outside, on inputs drawn from the
   workload mix, and reports a median over a few repetitions.  They run
   after the traced rounds, so they cannot disturb the rounds' spans. *)

open Abi
module U = Libc.Unistd

let now_ns = Spans.now_ns
let reps = 5

(* median over [reps] repetitions of [f ()], each returning a value per
   operation *)
let med f = Stats.median (List.init reps (fun _ -> f ()))

let ns_per ~n f =
  let t0 = now_ns () in
  f ();
  float_of_int (now_ns () - t0) /. float_of_int n

let words_per ~n f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n

(* --- abi: the codec outside any kernel ------------------------------------- *)

let calls_of_mix (mix : Load.mix) =
  let buf = Bytes.create 64 in
  Array.to_list mix.Load.ops
  |> List.concat_map (function
       | Load.Getpid -> [ Call.Getpid ]
       | Read64 off -> [ Call.Lseek (3, off, Flags.Seek.set); Read (3, buf, 64) ]
       | Write64 (off, d) -> [ Call.Lseek (3, off, Flags.Seek.set); Write (3, d) ]
       | Stat p -> [ Call.Stat (p, ref None) ]
       | Fstat -> [ Call.Fstat (3, ref None) ]
       | Open_close p -> [ Call.Open (p, Flags.Open.o_rdonly, 0); Close 4 ])
  |> Array.of_list

let abi mix =
  let calls = calls_of_mix mix in
  let n = Array.length calls in
  let wires = Array.map Call.encode calls in
  [ ("abi.encode_ns",
     med (fun () ->
       ns_per ~n (fun () ->
         Array.iter (fun c -> ignore (Sys.opaque_identity (Call.encode c))) calls)));
    ("abi.decode_ns",
     med (fun () ->
       ns_per ~n (fun () ->
         Array.iter (fun w -> ignore (Sys.opaque_identity (Call.decode w))) wires)));
    ("abi.envelope_words",
     med (fun () ->
       words_per ~n (fun () ->
         Array.iter
           (fun w -> ignore (Sys.opaque_identity (Envelope.call (Envelope.of_wire w))))
           wires))) ]

(* --- toolkit and agents: the mix under a stack, minus the mix bare ---------- *)

(* host ns and minor words per op of one mix session, set-up excluded *)
let session mix agents =
  let n = float_of_int (Array.length mix.Load.ops) in
  Load.setup_ns := 0;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  ignore (Load.mix_session mix ~agents);
  let ns = float_of_int (now_ns () - t0 - !Load.setup_ns) /. n in
  (ns, (Gc.minor_words () -. w0) /. n)

(* per-op cost of each stack over bare, repetitions interleaved *)
let over_bare mix stacks =
  let runs =
    List.init reps (fun _ ->
      let bare = session mix (fun () -> []) in
      List.map (fun (name, agents) -> (name, bare, session mix agents)) stacks)
    |> List.concat
  in
  List.map
    (fun (name, _) ->
      let mine = List.filter (fun (n, _, _) -> n = name) runs in
      let d f = Stats.median (List.map (fun (_, b, s) -> f s -. f b) mine) in
      (name, d fst, d snd))
    stacks

let toolkit_and_agents mix =
  let c = Conformance.(fun s -> s.sk_make) in
  let rows =
    over_bare mix
      [ ("null4", Load.null_agents 4); ("sandbox", c Conformance.sandbox);
        ("crypt", c Conformance.crypt); ("trace", c Conformance.trace) ]
  in
  let ns name = let _, v, _ = List.find (fun (n, _, _) -> n = name) rows in v in
  let _, _, null_words = List.find (fun (n, _, _) -> n = "null4") rows in
  let install =
    med (fun () ->
      let k = Kernel.create () in
      let t = ref 0 in
      ignore
        (Kernel.boot k ~name:"install" (fun () ->
           let agents = Load.null_agents 4 () in
           let t0 = now_ns () in
           List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) agents;
           t := now_ns () - t0;
           0));
      float_of_int !t /. 4.)
  in
  [ ("toolkit.layer_ns", ns "null4" /. 4.); ("toolkit.layer_words", null_words /. 4.);
    ("toolkit.install_ns", install); ("agents.sandbox_ns_per_op", ns "sandbox");
    ("agents.crypt_ns_per_op", ns "crypt"); ("agents.trace_ns_per_op", ns "trace") ]

(* --- kernel ------------------------------------------------------------------ *)

(* [body] runs as pid 1 of a fresh kernel and returns a measurement *)
let in_kernel ?(prepare = ignore) body =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  prepare k;
  let r = ref nan in
  ignore
    (Kernel.boot k ~name:"probe" (fun () ->
       r := body ();
       0));
  !r

let fork_n = 2000

let fork_wait measure =
  in_kernel (fun () ->
    measure ~n:fork_n (fun () ->
      for _ = 1 to fork_n do
        match U.fork ~child:(fun () -> 0) with
        | Ok pid -> ignore (U.waitpid pid 0)
        | Error _ -> ()
      done))

(* one process exec'ing itself [exec_n] times *)
let exec_n = 2000

let exec_chain k =
  Kernel.register_image k "perf_exec" (fun ~argv ~envp:_ () ->
    match int_of_string_opt argv.(1) with
    | Some n when n > 0 ->
      ignore (U.execv "/bin/perf_exec" [| "perf_exec"; string_of_int (n - 1) |]);
      1
    | _ -> 0);
  Kernel.install_image k ~path:"/bin/perf_exec" ~image:"perf_exec"

let exec () =
  in_kernel ~prepare:exec_chain (fun () ->
    ns_per ~n:exec_n (fun () ->
      match U.fork ~child:(fun () ->
        ignore (U.execv "/bin/perf_exec" [| "perf_exec"; string_of_int exec_n |]);
        1)
      with
      | Ok pid -> ignore (U.waitpid pid 0)
      | Error _ -> ()))

(* 1-byte ping-pong between two processes over a socketpair *)
let rtt_n = 5000

let socket_rtt () =
  in_kernel (fun () ->
    match U.socketpair () with
    | Error _ -> nan
    | Ok (a, b) ->
      let echo () =
        let buf = Bytes.create 1 in
        for _ = 1 to rtt_n do
          ignore (U.read b buf 1);
          ignore (U.write b "y")
        done;
        0
      in
      (match U.fork ~child:echo with
       | Error _ -> nan
       | Ok pid ->
         let buf = Bytes.create 1 in
         let ns =
           ns_per ~n:rtt_n (fun () ->
             for _ = 1 to rtt_n do
               ignore (U.write a "x");
               ignore (U.read a buf 1)
             done)
         in
         ignore (U.waitpid pid 0);
         ns))

let kernel () =
  [ ("kernel.fork_wait_ns", med (fun () -> fork_wait ns_per));
    ("kernel.fork_wait_words", med (fun () -> fork_wait words_per));
    ("kernel.exec_ns", med exec); ("kernel.socket_rtt_ns", med socket_rtt);
    ("kernel.create_ns", med (fun () -> ns_per ~n:200 (fun () ->
       for _ = 1 to 200 do ignore (Sys.opaque_identity (Kernel.create ())) done))) ]

(* --- vfs: direct calls with the root credential --------------------------------- *)

let vfs ~seed (mix : Load.mix) =
  let k = Kernel.create () in
  Load.setup_mix mix k;
  let fs = Kernel.fs k in
  let cred = Vfs.Fs.root_cred and cwd = Vfs.Fs.root_ino fs in
  let n = 100_000 in
  let rng = Sim.Rng.create seed in
  let paths = Array.init n (fun _ -> Sim.Rng.pick rng Load.paths) in
  let offs = Array.init n (fun _ -> Sim.Rng.int rng (Load.blob_size - 64)) in
  let data = Vfs.Filedata.of_string mix.Load.blob in
  let buf = Bytes.create 64 and chunk = String.make 64 'w' in
  let created = 20_000 in
  let names = Array.init created (Printf.sprintf "/data/tmp%d") in
  let create_flags = Flags.Open.(o_wronly lor o_creat lor o_excl) in
  [ ("vfs.resolve_ns",
     med (fun () -> ns_per ~n (fun () ->
       Array.iter (fun p -> ignore (Vfs.Fs.resolve fs cred ~cwd p)) paths)));
    ("vfs.create_unlink_ns",
     med (fun () -> ns_per ~n:created (fun () ->
       Array.iter
         (fun p ->
           ignore (Vfs.Fs.open_lookup fs cred ~cwd p ~flags:create_flags ~perm:0o644);
           ignore (Vfs.Fs.unlink fs cred ~cwd p))
         names)));
    ("vfs.filedata_read64_ns",
     med (fun () -> ns_per ~n (fun () ->
       Array.iter (fun pos -> ignore (Vfs.Filedata.read data ~pos buf ~off:0 ~len:64)) offs)));
    ("vfs.filedata_write64_ns",
     med (fun () -> ns_per ~n (fun () ->
       Array.iter (fun pos -> ignore (Vfs.Filedata.write data ~pos chunk)) offs))) ]

(* --- obs ------------------------------------------------------------------------ *)

(* host ns per trap of one make build, with observation at [rate] *)
let make_ns ~seed obs_rate =
  let t0 = now_ns () in
  let _, outcome = Load.make_session ~obs_rate ~seed in
  float_of_int (now_ns () - t0) /. float_of_int (outcome ()).Load.traps

let obs ~seed =
  let rates = [ None; Some 256; Some 1 ] in
  let runs = List.init reps (fun _ -> List.map (make_ns ~seed) rates) in
  let col i = Stats.median (List.map (fun r -> List.nth r i) runs) in
  let k, _ = Load.kvd_session (Load.gen_store ~seed) in
  let engine_words = Obj.reachable_words (Obj.repr (Kernel.obs_engine k)) in
  [ ("obs.overhead_1in256_ns_per_trap", col 1 -. col 0);
    ("obs.overhead_1in1_ns_per_trap", col 2 -. col 0);
    ("obs.engine_words", float_of_int engine_words) ]

(* --- libc: one span per op of the op mix ------------------------------------------ *)

(* the op spans of the syscall_* rounds; the workloads that make none of
   their own (kvd, make) get them from bare sessions of the mix, like
   the other probes *)
let libc mix =
  if Spans.stats "libc.getpid" = None then begin
    Spans.on := true;
    for _ = 1 to reps do
      ignore (Load.mix_session mix ~agents:(fun () -> []))
    done;
    Spans.on := false
  end;
  List.concat_map
    (fun op ->
      let h =
        match Spans.stats ("libc." ^ op) with
        | Some p -> p.Spans.hist
        | None -> Stats.Hist.create ()
      in
      [ (Printf.sprintf "libc.%s_ns_p50" op, Stats.Hist.percentile h 0.5);
        (Printf.sprintf "libc.%s_ns_p99" op, Stats.Hist.percentile h 0.99) ])
    Load.op_names

let run name f =
  let s = Spans.enter ("probe." ^ name) in
  let v = f () in
  Spans.exit s;
  v
