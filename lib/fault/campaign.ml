open Abi
open Agents.Faultinject

(* --- workloads -------------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_seed : int;
  w_setup : Kernel.t -> unit;
  w_body : unit -> int;
  w_output : string;
}

let scribe =
  let params = Workloads.Scribe.quick_params in
  {
    w_name = "scribe";
    w_seed = 1;
    w_setup = (fun k -> Workloads.Scribe.setup ~params ~seed:1 k);
    w_body = (fun () -> Workloads.Scribe.body ~params ());
    w_output = Workloads.Scribe.output_path;
  }

let make =
  let params = Workloads.Make_cc.quick_params in
  {
    w_name = "make";
    w_seed = 1;
    w_setup = (fun k -> Workloads.Make_cc.setup ~params ~seed:1 k);
    w_body = (fun () -> Workloads.Make_cc.body ());
    (* make's product of record is its build transcript on the console;
       there is no single output file to pin *)
    w_output = "";
  }

let afs =
  let params = Workloads.Afs_bench.quick_params in
  {
    w_name = "afs";
    w_seed = 1;
    w_setup = (fun k -> Workloads.Afs_bench.setup ~params ~seed:1 k);
    w_body = (fun () -> Workloads.Afs_bench.body ~params ());
    w_output = "";
  }

let kvd =
  (* batch = 1 serializes the client waves, making fork order — hence
     pid assignment — deterministic; the conformance checker's
     per-process comparison depends on that *)
  let params = { Workloads.Kvd.quick_params with Workloads.Kvd.batch = 1 } in
  {
    w_name = "kvd";
    w_seed = 1;
    w_setup = (fun k -> Workloads.Kvd.setup k);
    w_body =
      (fun () ->
        Workloads.Kvd.body ~params ~mode:Workloads.Kvd.Fork_per_conn ());
    w_output = Workloads.Kvd.summary_path;
  }

let workloads = [ scribe; make; afs; kvd ]

let of_name name =
  List.find_opt (fun w -> w.w_name = name) workloads

(* --- one run under a plan ---------------------------------------------------- *)

type mode = Bare | Record | Replay of string

type run = {
  r_sites : site list;
  r_outcome : Oracle.outcome;
  r_detail : string;
  r_report : Oracle.report;
  r_journal : string;
  r_injected : int;
  r_restarted : int;
  r_delayed : int;
  r_desyncs : int;
}

let prepare w =
  let k = Kernel.create () in
  (* image registration is per-kernel and idempotent; make sure the
     workloads' spawned tools resolve in this run's registry *)
  Workloads.Scribe.register k;
  Workloads.Make_cc.register k;
  Workloads.Kvd.register k;
  Kernel.populate_standard k;
  w.w_setup k;
  k

let execute w ~mode ~sites =
  let k = prepare w in
  let recorder =
    match mode with
    | Record -> Some (Agents.Record_replay.create_recorder ())
    | Bare | Replay _ -> None
  in
  let replayer =
    match mode with
    | Replay journal -> Some (Agents.Record_replay.create_replayer ~journal)
    | Bare | Record -> None
  in
  let agent = create_planned sites in
  let status =
    Kernel.boot k ~name:(w.w_name ^ "-campaign") (fun () ->
      (* recorder/replayer sit below the injector: the journal holds
         what the kernel answered, and injected faults replay from the
         injector's own deterministic bookkeeping, not from the
         journal *)
      (match replayer with
       | Some r -> Toolkit.Loader.install r ~argv:[||]
       | None -> ());
      (match recorder with
       | Some r -> Toolkit.Loader.install r ~argv:[||]
       | None -> ());
      Toolkit.Loader.install agent ~argv:[||];
      w.w_body ())
  in
  let report = Oracle.observe k ~status ~output_path:w.w_output in
  ( report,
    (match recorder with Some r -> r#journal | None -> ""),
    agent,
    match replayer with Some r -> r#desyncs | None -> 0 )

let run_plan ?(mode = Record) ~clean w sites =
  let report, journal, agent, desyncs = execute w ~mode ~sites in
  let outcome, detail = Oracle.classify ~clean report in
  {
    r_sites = sites;
    r_outcome = outcome;
    r_detail = detail;
    r_report = report;
    r_journal = journal;
    r_injected = agent#total_injected;
    r_restarted = agent#restarted;
    r_delayed = agent#delayed;
    r_desyncs = desyncs;
  }

let clean_run ?(mode = Bare) w =
  let report, journal, agent, desyncs = execute w ~mode ~sites:[] in
  let outcome, detail = Oracle.classify ~clean:report report in
  {
    r_sites = [];
    r_outcome = outcome;
    r_detail = detail;
    r_report = report;
    r_journal = journal;
    r_injected = agent#total_injected;
    r_restarted = agent#restarted;
    r_delayed = agent#delayed;
    r_desyncs = desyncs;
  }

(* --- site discovery from an obs-profiled fault-free run ------------------------ *)

let default_candidates =
  [ Sysno.sys_read; Sysno.sys_write; Sysno.sys_open; Sysno.sys_stat ]

let default_errnos = [ Errno.EIO; Errno.ENOENT; Errno.EINTR ]

(* connection-level sites: faults on the server/client rendezvous path
   of a socket workload *)
let conn_candidates = [ Sysno.sys_accept; Sysno.sys_recv; Sysno.sys_send ]

type baseline = {
  b_run : run;
  b_profile : (int * int) list;
}

let baseline ?(candidates = default_candidates) w =
  let was_enabled = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  let report, journal, agent, desyncs = execute w ~mode:Record ~sites:[] in
  let m = Obs.metrics () in
  Obs.disable ();
  Obs.reset ();
  if was_enabled then Obs.enable ();
  let profile =
    List.filter_map
      (fun (s : Obs.syscall_metrics) ->
        if List.mem s.Obs.sm_sysno candidates && s.Obs.sm_calls > 0 then
          Some (s.Obs.sm_sysno, s.Obs.sm_calls)
        else None)
      m.Obs.m_syscalls
  in
  let outcome, detail = Oracle.classify ~clean:report report in
  {
    b_run =
      {
        r_sites = [];
        r_outcome = outcome;
        r_detail = detail;
        r_report = report;
        r_journal = journal;
        r_injected = agent#total_injected;
        r_restarted = agent#restarted;
        r_delayed = agent#delayed;
        r_desyncs = desyncs;
      };
    b_profile = profile;
  }

(* first, middle and last occurrence of each discovered call — the
   cheap ends-and-middle probe of the call stream *)
let ks_of_count ?(per_sysno = 3) count =
  [ 1; (count + 1) / 2; count ]
  |> List.filter (fun k -> k >= 1)
  |> List.sort_uniq compare
  |> fun ks ->
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take per_sysno ks

let sites_from_profile ?per_sysno profile ~errnos =
  List.concat_map
    (fun (sysno, count) ->
      List.concat_map
        (fun k ->
          List.map (fun e -> site ~kth:k sysno (Fail e)) errnos)
        (ks_of_count ?per_sysno count))
    profile

(* --- the sweep ------------------------------------------------------------------ *)

type case = {
  c_workload : string;
  c_site : site;
  c_run : run;
}

let sweep ?candidates ?per_sysno ?(errnos = default_errnos) w =
  let b = baseline ?candidates w in
  let sites = sites_from_profile ?per_sysno b.b_profile ~errnos in
  let cases =
    List.map
      (fun s ->
        { c_workload = w.w_name;
          c_site = s;
          c_run = run_plan ~clean:b.b_run.r_report w [ s ] })
      sites
  in
  b, cases

(* --- shrinking a failing plan ----------------------------------------------------- *)

(* Greedy delta reduction: repeatedly drop any site whose removal
   preserves the failure class, to a fixpoint.  The result is
   1-minimal — removing any single remaining site loses the failure —
   which is what a repro bundle should carry. *)
let shrink w ~clean ~outcome sites =
  let reproduces sites =
    sites <> [] && (run_plan ~mode:Bare ~clean w sites).r_outcome = outcome
  in
  let rec drop_one prefix = function
    | [] -> None
    | s :: rest ->
      let candidate = List.rev_append prefix rest in
      if reproduces candidate then Some candidate
      else drop_one (s :: prefix) rest
  in
  let rec fix sites =
    if List.length sites <= 1 then sites
    else
      match drop_one [] sites with
      | Some reduced -> fix reduced
      | None -> sites
  in
  fix sites
