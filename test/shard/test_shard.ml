(* The shard handle (DESIGN.md 3.6): kernels own all their state, so
   sequential kernels are invisible to each other, coexisting kernels
   multiplex through [with_shard], single-shard runs are deterministic,
   a send-free 2-shard cluster is exactly two solo runs, and a cluster
   with cross-shard signal traffic reproduces byte-identically. *)

open Abi

(* a small mixed-traffic session body: files, stat, and a getpid burst *)
let traffic tag n () =
  let path = "/tmp/" ^ tag in
  (match
     Libc.Unistd.open_ path
       Flags.Open.(o_wronly lor o_creat lor o_trunc)
       0o644
   with
   | Ok fd ->
     ignore (Libc.Unistd.write fd tag);
     ignore (Libc.Unistd.close fd)
   | Error e -> Alcotest.failf "open %s: %s" path (Errno.name e));
  ignore (Libc.Unistd.stat path);
  for _ = 1 to n do
    ignore (Libc.Unistd.getpid ())
  done;
  Libc.Stdio.printf "%s done\n" tag;
  0

let observe k =
  ( Sim.Clock.now_us (Kernel.clock k),
    Kernel.total_syscalls k,
    Kernel.console_output k )

(* --- satellite: two sequential kernels share nothing ------------------- *)

let test_sequential_isolation () =
  let a = Tharness.fresh_kernel () in
  Kernel.register_image a "only-in-a" (fun ~argv:_ ~envp:_ () -> 0);
  Tharness.check_exit "a session" 0 (Tharness.boot_k a (traffic "a-only" 10));
  let a_traps = Kernel.total_syscalls a in
  let a_codec = Kernel.codec_stats a in
  Alcotest.(check bool)
    "a registered its image" true
    (List.mem "only-in-a" (Kernel.Registry.registered (Kernel.registry a)));
  (* a fresh kernel observes none of it *)
  let b = Tharness.fresh_kernel () in
  Alcotest.(check bool)
    "b sees no image of a" false
    (List.mem "only-in-a" (Kernel.Registry.registered (Kernel.registry b)));
  Alcotest.(check int) "b counted no syscalls" 0 (Kernel.total_syscalls b);
  Alcotest.(check int)
    "b codec counters start at zero" 0 (Kernel.codec_stats b).Obs.Codec.traps;
  Alcotest.(check bool)
    "b fs has no file of a" false (Kernel.exists b "/tmp/a-only");
  Tharness.check_exit "b session" 0 (Tharness.boot_k b (traffic "b-only" 4));
  (* and running b did not disturb a *)
  Alcotest.(check int) "a trap count unchanged" a_traps (Kernel.total_syscalls a);
  Alcotest.(check int)
    "a codec unchanged" a_codec.Obs.Codec.traps
    (Kernel.codec_stats a).Obs.Codec.traps;
  Alcotest.(check bool)
    "a fs has no file of b" false (Kernel.exists a "/tmp/b-only")

(* --- two live kernels, multiplexed by hand ------------------------------ *)

let test_with_shard_coexist () =
  let a = Tharness.fresh_kernel () in
  let b = Tharness.fresh_kernel () in
  (* b is current (create enters); visit a without losing that *)
  Kernel.with_shard a (fun () ->
    Alcotest.(check int)
      "a is current inside with_shard" (Kernel.shard_id a)
      (Kernel.shard_id (Kernel.current_exn ()));
    Kernel.write_file (Kernel.current_exn ()) ~path:"/tmp/in-a" "A");
  Alcotest.(check bool)
    "b current again after with_shard" true (Kernel.current_exn () == b);
  Alcotest.(check bool) "a got the write" true (Kernel.exists a "/tmp/in-a");
  Alcotest.(check bool) "b did not" false (Kernel.exists b "/tmp/in-a");
  (* interleave two full sessions *)
  Tharness.check_exit "b session" 0 (Tharness.boot_k b (traffic "bb" 6));
  Tharness.check_exit "a session" 0 (Tharness.boot_k a (traffic "aa" 3));
  Alcotest.(check bool) "consoles are private" true
    (Kernel.console_output a <> Kernel.console_output b)

(* --- determinism at one shard ------------------------------------------- *)

let traced_session () =
  let k = Tharness.fresh_kernel () in
  let status =
    Tharness.boot_k k (fun () ->
      Obs.enable ();
      Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
      let rc = traffic "traced" 20 () in
      Obs.disable ();
      rc)
  in
  Tharness.check_exit "traced session" 0 status;
  let clock_us, traps, console = observe k in
  (* every byte of the metrics document is a function of simulation
     state *)
  (clock_us, traps, console, Obs.Json.to_string (Kernel.metrics_json k))

let test_determinism_one_shard () =
  let c1, t1, o1, m1 = traced_session () in
  let c2, t2, o2, m2 = traced_session () in
  Alcotest.(check int) "virtual clock identical" c1 c2;
  Alcotest.(check int) "trap count identical" t1 t2;
  Alcotest.(check string) "console identical" o1 o2;
  Alcotest.(check string) "metrics json byte-identical" m1 m2

(* --- a send-free 2-shard cluster is exactly two solo runs --------------- *)

let test_cluster_matches_solo () =
  let solo i =
    let k = Tharness.fresh_kernel () in
    Tharness.check_exit "solo" 0
      (Tharness.boot_k k (traffic (Printf.sprintf "w%d" i) (8 + (6 * i))));
    observe k
  in
  let s0 = solo 0 in
  let s1 = solo 1 in
  let c = Kernel.Cluster.create ~shards:2 () in
  Kernel.populate_standard (Kernel.Cluster.shard c 0);
  Kernel.populate_standard (Kernel.Cluster.shard c 1);
  let p0 =
    Kernel.Cluster.boot_shard c 0 ~name:"test" (traffic "w0" 8)
  in
  let p1 =
    Kernel.Cluster.boot_shard c 1 ~name:"test" (traffic "w1" 14)
  in
  Kernel.Cluster.run c;
  Tharness.check_exit "shard 0 init" 0 p0.Kernel.Proc.exit_status;
  Tharness.check_exit "shard 1 init" 0 p1.Kernel.Proc.exit_status;
  let check_shard what solo_obs i =
    let sc, st, so = solo_obs in
    let cc, ct, co = observe (Kernel.Cluster.shard c i) in
    Alcotest.(check int) (what ^ ": virtual clock") sc cc;
    Alcotest.(check int) (what ^ ": trap count") st ct;
    Alcotest.(check string) (what ^ ": console") so co
  in
  check_shard "shard 0 = solo 0" s0 0;
  check_shard "shard 1 = solo 1" s1 1

(* --- cross-shard signals: deterministic merge, reproducible runs -------- *)

let ring_run () =
  let n = 3 in
  let c = Kernel.Cluster.create ~shards:n () in
  for i = 0 to n - 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let woke = Array.make n false in
  let procs =
    List.init n (fun i ->
      Kernel.Cluster.boot_shard c i ~name:"ring" (fun () ->
        ignore
          (Tharness.check_ok "signal"
             (Libc.Unistd.signal Signal.sigusr1
                (Value.H_fn (fun _ -> woke.(i) <- true))));
        (* skew the shard clocks so merge order is exercised *)
        for _ = 1 to 3 + i do
          ignore (Libc.Unistd.getpid ())
        done;
        Kernel.Cluster.send ~dst:((i + 1) mod n) ~pid:1
          ~signal:Signal.sigusr1;
        ignore (Libc.Unistd.sigsuspend 0);
        Libc.Stdio.printf "shard %d woke\n" i;
        0))
  in
  Kernel.Cluster.run c;
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Tharness.check_exit "ring init" 0 p.Kernel.Proc.exit_status)
    procs;
  Alcotest.(check bool)
    "every shard's handler fired" true
    (Array.for_all Fun.id woke);
  List.init n (fun i -> observe (Kernel.Cluster.shard c i))

let test_cluster_reproducible () =
  let r1 = ring_run () in
  let r2 = ring_run () in
  List.iteri
    (fun i ((c1, t1, o1), (c2, t2, o2)) ->
      let what fmt = Printf.sprintf "shard %d: %s" i fmt in
      Alcotest.(check int) (what "virtual clock") c1 c2;
      Alcotest.(check int) (what "trap count") t1 t2;
      Alcotest.(check string) (what "console") o1 o2)
    (List.combine r1 r2)

(* --- cross-shard mail: merge order and misuse ------------------------------ *)

(* Shards 0 and 1 each mail three signals to shard 2 at one virtual
   timestamp; each lands on its own process parked in [sigsuspend], so
   the handlers run in posting order, which is the mailbox's
   (ts, src, seq) order. *)
let test_cluster_mail_order () =
  let c = Kernel.Cluster.create ~shards:3 () in
  for i = 0 to 2 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let ran = ref [] in
  let u = Tharness.check_ok in
  let receiver =
    Kernel.Cluster.boot_shard c 2 ~name:"receiver" (fun () ->
      let kids =
        List.init 6 (fun _ ->
          u "fork"
            (Libc.Unistd.fork ~child:(fun () ->
               let me = Libc.Unistd.getpid () in
               ignore
                 (u "signal"
                    (Libc.Unistd.signal Signal.sigusr1
                       (Value.H_fn (fun _ -> ran := me :: !ran))));
               ignore (Libc.Unistd.sigsuspend 0);
               0)))
      in
      List.iter (fun pid -> ignore (u "wait" (Libc.Unistd.waitpid pid 0))) kids;
      0)
  in
  let sender targets () =
    (* both senders sleep alike: their clocks agree at the sends *)
    ignore (u "sleep" (Libc.Unistd.sleep_us 1_000_000));
    List.iter
      (fun pid -> Kernel.Cluster.send ~dst:2 ~pid ~signal:Signal.sigusr1)
      targets;
    0
  in
  let s0 = Kernel.Cluster.boot_shard c 0 ~name:"s0" (sender [ 7; 3; 5 ]) in
  let s1 = Kernel.Cluster.boot_shard c 1 ~name:"s1" (sender [ 2; 6; 4 ]) in
  Kernel.Cluster.run c;
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Tharness.check_exit "init" 0 p.Kernel.Proc.exit_status)
    [ receiver; s0; s1 ];
  Alcotest.(check (list int))
    "handlers run in (ts, src, send order)" [ 7; 3; 5; 2; 6; 4 ]
    (List.rev !ran)

let test_cluster_send_misuse () =
  let raises_invalid f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let solo = ref false in
  let k = Tharness.fresh_kernel () in
  Tharness.check_exit "solo session" 0
    (Tharness.boot_k k (fun () ->
       solo :=
         raises_invalid (fun () ->
           Kernel.Cluster.send ~dst:0 ~pid:1 ~signal:Signal.sigusr1);
       0));
  Alcotest.(check bool) "send from a solo kernel" true !solo;
  let c = Kernel.Cluster.create ~shards:2 () in
  Kernel.populate_standard (Kernel.Cluster.shard c 0);
  let out_of_range = ref [] in
  let p =
    Kernel.Cluster.boot_shard c 0 ~name:"misuse" (fun () ->
      out_of_range :=
        List.map
          (fun dst ->
            raises_invalid (fun () ->
              Kernel.Cluster.send ~dst ~pid:1 ~signal:Signal.sigusr1))
          [ -1; 2 ];
      0)
  in
  Kernel.Cluster.run c;
  Tharness.check_exit "cluster session" 0 p.Kernel.Proc.exit_status;
  Alcotest.(check (list bool)) "send to no such shard" [ true; true ]
    !out_of_range

(* --- with_shard restores the current shard when its body raises --------- *)

let test_with_shard_raise () =
  let a = Tharness.fresh_kernel () in
  let b = Tharness.fresh_kernel () in
  let current = ref false and engine = ref false in
  let a_traps = ref 0 and b_traps = ref 0 in
  Tharness.check_exit "session" 0
    (Tharness.boot_k b (fun () ->
       (match Kernel.with_shard a (fun () -> raise Exit) with
        | () -> ()
        | exception Exit -> ());
       current := Kernel.current_exn () == b;
       engine := Obs.installed () == Kernel.obs_engine b;
       let traps k = (Kernel.codec_stats k).Obs.Codec.traps in
       let a0 = traps a and b0 = traps b in
       ignore (Libc.Unistd.getpid ());
       a_traps := traps a - a0;
       b_traps := traps b - b0;
       0));
  Alcotest.(check bool) "b is current again" true !current;
  Alcotest.(check bool) "b's obs engine is installed again" true !engine;
  Alcotest.(check int) "the next trap counts on b" 1 !b_traps;
  Alcotest.(check int) "and not on a" 0 !a_traps

(* --- the installed engine's counters are the current shard's --------------- *)

let test_installed_sets () =
  let k = Tharness.fresh_kernel () in
  Tharness.check_exit "session" 0 (Tharness.boot_k k (traffic "shim" 5));
  (* k is the current shard, so the installed engine, and the codec and
     pool counters on it, are its own *)
  Alcotest.(check bool)
    "installed engine is the current shard's" true
    (Obs.installed () == Kernel.obs_engine k);
  let codec_amb = Obs.codec_of (Obs.installed ()) in
  Alcotest.(check bool) "the session counted traps" true
    (codec_amb.Obs.Codec.traps > 0);
  Alcotest.(check int)
    "installed codec set is the current shard's"
    (Kernel.codec_stats k).Obs.Codec.traps
    codec_amb.Obs.Codec.traps;
  let pool_amb = Obs.env_pool_of (Obs.installed ()) in
  Alcotest.(check int)
    "installed env-pool set is the current shard's"
    (Kernel.env_pool_stats k).Obs.Env_pool.hits
    pool_amb.Obs.Env_pool.hits;
  Obs.reset ();
  Alcotest.(check int)
    "Obs.reset leaves the cumulative counters alone"
    codec_amb.Obs.Codec.traps
    (Kernel.codec_stats k).Obs.Codec.traps

(* --- a cluster's metrics stay per shard ----------------------------------- *)

(* Each shard of an observed cluster counts only the traffic booted on
   it, and [Cluster.drain_obs] is the shards' own drains concatenated in
   shard-id order (checked against a same-seed twin drained shard by
   shard). *)

let observed_cluster () =
  let c = Kernel.Cluster.create ~shards:2 () in
  for i = 0 to 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let procs =
    List.init 2 (fun i ->
      Kernel.Cluster.boot_shard c i ~name:"metrics" (fun () ->
        Obs.enable ();
        let rc = traffic (Printf.sprintf "m%d" i) (5 + (7 * i)) () in
        Obs.disable ();
        rc))
  in
  Kernel.Cluster.run c;
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Tharness.check_exit "metrics init" 0 p.Kernel.Proc.exit_status)
    procs;
  c

let test_cluster_metrics_per_shard () =
  let c = observed_cluster () in
  let getpids i =
    let m = Kernel.metrics (Kernel.Cluster.shard c i) in
    match
      List.find_opt
        (fun s -> s.Obs.sm_sysno = Sysno.sys_getpid)
        m.Obs.m_syscalls
    with
    | Some s -> s.Obs.sm_calls
    | None -> 0
  in
  Alcotest.(check bool) "shard 0 saw its burst" true (getpids 0 >= 5);
  Alcotest.(check int) "shard 1 saw 7 getpids more" 7 (getpids 1 - getpids 0);
  let lines = List.map Obs.Span.to_line in
  let twin = observed_cluster () in
  let by_shard =
    List.concat_map
      (fun i -> Kernel.drain_obs (Kernel.Cluster.shard twin i))
      [ 0; 1 ]
  in
  Alcotest.(check bool) "shards drained records" true (by_shard <> []);
  Alcotest.(check (list string))
    "drain_obs = shard drains in shard-id order" (lines by_shard)
    (lines (Kernel.Cluster.drain_obs c));
  Alcotest.(check int) "drained empty" 0
    (List.length (Kernel.Cluster.drain_obs c))

(* --- select timer hygiene ------------------------------------------------ *)

(* Every way out of a timed select must drop its armed deadline: the
   timer list is shard state the test body can inspect directly (the
   simulation shares the host heap), so park a child in select, wake it
   each possible way, and look while the child is still alive — a
   leaked [T_select] would still be armed then. *)
let test_select_timer_hygiene () =
  let k = Tharness.fresh_kernel () in
  let select_timers () =
    List.length
      (List.filter
         (fun (_, ev) ->
           match ev with Kernel.Kstate.T_select _ -> true | _ -> false)
         k.Kernel.Kstate.timers)
  in
  let u = Tharness.check_ok in
  let status =
    Tharness.boot_k k (fun () ->
      let r, w = u "pipe" (Libc.Unistd.pipe ()) in
      (* a pure poll never arms a deadline at all *)
      ignore (u "poll" (Libc.Unistd.select ~read:[ r ] ~timeout_us:0 ()));
      if select_timers () <> 0 then 1
      else begin
        let ar, aw = u "pipe2" (Libc.Unistd.pipe ()) in
        let spawn sel =
          u "fork"
            (Libc.Unistd.fork ~child:(fun () ->
               sel ();
               ignore (Libc.Unistd.write aw "k");
               (* stay alive: a leaked deadline would still be armed
                  when the driver looks *)
               ignore (Libc.Unistd.sleep_us 30_000);
               0))
        in
        let awake_leaks pid =
          let b = Bytes.create 1 in
          ignore (u "ack" (Libc.Unistd.read ar b 1));
          let leaked = select_timers () in
          ignore (u "reap" (Libc.Unistd.waitpid pid 0));
          leaked
        in
        (* data arrives before the deadline *)
        let pid =
          spawn (fun () ->
            ignore (Libc.Unistd.select ~read:[ r ] ~timeout_us:1_000_000 ()))
        in
        ignore (Libc.Unistd.sleep_us 2_000);
        ignore (u "wake" (Libc.Unistd.write w "x"));
        if awake_leaks pid <> 0 then 2
        else begin
          let b = Bytes.create 1 in
          ignore (u "drain" (Libc.Unistd.read r b 1));
          (* the deadline itself expires *)
          let pid =
            spawn (fun () ->
              ignore (Libc.Unistd.select ~read:[ r ] ~timeout_us:3_000 ()))
          in
          if awake_leaks pid <> 0 then 3
          else begin
            (* a signal ends the wait: select is not restartable, the
               EINTR surfaces, and the deadline dies with the wait *)
            let pid =
              spawn (fun () ->
                ignore
                  (Libc.Unistd.signal Signal.sigusr1
                     (Value.H_fn (fun _ -> ())));
                match
                  Libc.Unistd.select ~read:[ r ] ~timeout_us:1_000_000 ()
                with
                | Error Errno.EINTR -> ()
                | Ok _ | Error _ -> Libc.Unistd._exit 9)
            in
            ignore (Libc.Unistd.sleep_us 2_000);
            u "kill" (Libc.Unistd.kill pid Signal.sigusr1);
            if awake_leaks pid <> 0 then 4
            else begin
              ignore (Libc.Unistd.close r);
              ignore (Libc.Unistd.close w);
              ignore (Libc.Unistd.close ar);
              ignore (Libc.Unistd.close aw);
              0
            end
          end
        end
      end)
  in
  Tharness.check_exit "no leaked select deadlines" 0 status

let () =
  Alcotest.run "shard"
    [ ( "isolation",
        [ Alcotest.test_case "sequential kernels share nothing" `Quick
            test_sequential_isolation;
          Alcotest.test_case "with_shard multiplexes two kernels" `Quick
            test_with_shard_coexist;
          Alcotest.test_case "installed counter sets read the current shard"
            `Quick test_installed_sets;
          Alcotest.test_case "with_shard restores both cells on a raise"
            `Quick test_with_shard_raise ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same bytes at 1 shard" `Quick
            test_determinism_one_shard;
          Alcotest.test_case "2 shards without sends = two solo runs" `Quick
            test_cluster_matches_solo;
          Alcotest.test_case "signal ring reproduces byte-identically" `Quick
            test_cluster_reproducible;
          Alcotest.test_case "cross-shard mail runs in (ts, src, seq) order"
            `Quick test_cluster_mail_order;
          Alcotest.test_case "send from a solo kernel or to no shard raises" `Quick
            test_cluster_send_misuse ] );
      ( "cluster metrics",
        [ Alcotest.test_case "each shard counts and drains its own" `Quick
            test_cluster_metrics_per_shard ] );
      ( "timer-hygiene",
        [ Alcotest.test_case "select deadlines never leak" `Quick
            test_select_timer_hygiene ] ) ]
