open Abi
open Agents.Faultinject

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

(* One session of [w] under [sites], classified against [clean] (the
   run's own report when none is given: a fault-free run is its own
   reference). *)
let execute ?clean (w : Workloads.Table.workload) ~mode sites =
  let k = Workloads.Table.prepare w.w_setup in
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
  let agent = create sites in
  (* recorder/replayer sit below the injector: the journal holds what
     the kernel answered, and injected faults replay from the
     injector's own deterministic bookkeeping, not from the journal *)
  let status =
    Kernel.boot k ~name:(w.w_name ^ "-campaign") (fun () ->
      Option.iter (fun r -> Toolkit.Loader.install r ~argv:[||]) replayer;
      Option.iter (fun r -> Toolkit.Loader.install r ~argv:[||]) recorder;
      Toolkit.Loader.install agent ~argv:[||];
      w.w_body ())
  in
  let report = Oracle.observe k ~status ~output_path:w.w_output in
  let outcome, detail =
    Oracle.classify ~clean:(Option.value clean ~default:report) report
  in
  {
    r_sites = sites;
    r_outcome = outcome;
    r_detail = detail;
    r_report = report;
    r_journal = (match recorder with Some r -> r#journal | None -> "");
    r_injected = agent#total_injected;
    r_restarted = agent#restarted;
    r_delayed = agent#delayed;
    r_desyncs = (match replayer with Some r -> r#desyncs | None -> 0);
  }

let run_plan ?(mode = Record) ~clean w sites = execute ~clean w ~mode sites
let clean_run ?(mode = Bare) w = execute w ~mode []

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
  let b_run = clean_run ~mode:Record w in
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
  { b_run; b_profile = profile }

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

let sweep ?candidates ?per_sysno ?(errnos = default_errnos)
    (w : Workloads.Table.workload) =
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
let shrink (w : Workloads.Table.workload) ~clean ~outcome sites =
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
