(* Repro bundles: everything needed to replay a failing campaign case
   deterministically, in one line-oriented text file.

     # interpose fault repro bundle v2
     W <workload>            what to run
     O <outcome>             the classification being reproduced
     D <detail>              human detail line (rest of line verbatim)
     E <status>              pid 1 wait status of the failing run
     H output <hex>          FNV-1a digest of the output artifact
     H console <hex>         FNV-1a digest of the console
     F <site>                one site of the (shrunk) injection plan,
                             as a Plan spec: F read#4=fail:EIO
     J ...                   record_replay journal lines, verbatim

   Replaying = same workload + same plan + inputs pinned by the
   journal; byte-identical means outcome, status and both digests
   match the recorded ones. *)

let header = "# interpose fault repro bundle v2"

(* FNV-1a, 64-bit: tiny, dependency-free, and stable across runs —
   enough to certify byte-identity of replays (this is an integrity
   check, not cryptography). *)
let digest s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

type t = {
  b_workload : string;
  b_sites : Agents.Faultinject.site list;
  b_outcome : Oracle.outcome;
  b_detail : string;
  b_status : int;
  b_output_hash : string;
  b_console_hash : string;
  b_journal : string;
}

let of_run ~workload (r : Campaign.run) =
  {
    b_workload = workload;
    b_sites = r.Campaign.r_sites;
    b_outcome = r.Campaign.r_outcome;
    b_detail = r.Campaign.r_detail;
    b_status = r.Campaign.r_report.Oracle.status;
    b_output_hash = digest r.Campaign.r_report.Oracle.output;
    b_console_hash = digest r.Campaign.r_report.Oracle.console;
    b_journal = r.Campaign.r_journal;
  }

let to_string b =
  let buf = Buffer.create (String.length b.b_journal + 512) in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "W %s\n" b.b_workload);
  Buffer.add_string buf
    (Printf.sprintf "O %s\n" (Oracle.outcome_name b.b_outcome));
  Buffer.add_string buf (Printf.sprintf "D %s\n" b.b_detail);
  Buffer.add_string buf (Printf.sprintf "E %d\n" b.b_status);
  Buffer.add_string buf (Printf.sprintf "H output %s\n" b.b_output_hash);
  Buffer.add_string buf (Printf.sprintf "H console %s\n" b.b_console_hash);
  List.iter
    (fun site ->
      Buffer.add_string buf (Printf.sprintf "F %s\n" (Plan.to_spec [ site ])))
    b.b_sites;
  Buffer.add_string buf b.b_journal;
  Buffer.contents buf

let of_string text =
  let workload = ref None
  and outcome = ref None
  and detail = ref ""
  and status = ref None
  and out_hash = ref None
  and con_hash = ref None
  and sites = ref []
  and journal = Buffer.create 1024
  and bad = ref None in
  let after prefix line =
    String.sub line (String.length prefix)
      (String.length line - String.length prefix)
  in
  List.iter
    (fun line ->
      if !bad <> None then ()
      else if line = "" || line.[0] = '#' then ()
      else if String.length line > 2 && String.sub line 0 2 = "W " then
        workload := Some (after "W " line)
      else if String.length line > 2 && String.sub line 0 2 = "O " then (
        match Oracle.outcome_of_name (after "O " line) with
        | Some o -> outcome := Some o
        | None -> bad := Some ("bad outcome: " ^ line))
      else if String.length line >= 2 && String.sub line 0 2 = "D " then
        detail := after "D " line
      else if String.length line > 2 && String.sub line 0 2 = "E " then (
        match int_of_string_opt (after "E " line) with
        | Some s -> status := Some s
        | None -> bad := Some ("bad status: " ^ line))
      else if String.length line > 2 && String.sub line 0 2 = "H " then (
        match String.split_on_char ' ' (after "H " line) with
        | [ "output"; h ] -> out_hash := Some h
        | [ "console"; h ] -> con_hash := Some h
        | _ -> bad := Some ("bad digest line: " ^ line))
      else if String.length line > 2 && String.sub line 0 2 = "F " then (
        match Plan.of_spec (after "F " line) with
        | Ok [ s ] -> sites := s :: !sites
        | Ok _ | Error _ -> bad := Some ("bad plan line: " ^ line))
      else if String.length line > 2 && String.sub line 0 2 = "J " then (
        Buffer.add_string journal line;
        Buffer.add_char journal '\n')
      else bad := Some ("unrecognized line: " ^ line))
    (String.split_on_char '\n' text);
  match !bad with
  | Some msg -> Error msg
  | None ->
    (match !workload, !outcome, !status, !out_hash, !con_hash with
     | Some b_workload, Some b_outcome, Some b_status, Some b_output_hash,
       Some b_console_hash ->
       Ok
         {
           b_workload;
           b_sites = List.rev !sites;
           b_outcome;
           b_detail = !detail;
           b_status;
           b_output_hash;
           b_console_hash;
           b_journal = Buffer.contents journal;
         }
     | _ -> Error "incomplete bundle (need W, O, E and both H lines)")

let replay b =
  match Workloads.Table.(find quick) b.b_workload with
  | None -> Error (Printf.sprintf "unknown workload %S" b.b_workload)
  | Some w ->
    let clean = (Campaign.clean_run w).Campaign.r_report in
    Ok
      (Campaign.run_plan ~mode:(Campaign.Replay b.b_journal) ~clean w
         b.b_sites)

let verify b (r : Campaign.run) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if r.Campaign.r_outcome <> b.b_outcome then
    err "outcome diverged: bundle %s, replay %s"
      (Oracle.outcome_name b.b_outcome)
      (Oracle.outcome_name r.Campaign.r_outcome)
  else if r.Campaign.r_report.Oracle.status <> b.b_status then
    err "status diverged: bundle 0x%x, replay 0x%x" b.b_status
      r.Campaign.r_report.Oracle.status
  else if digest r.Campaign.r_report.Oracle.output <> b.b_output_hash then
    err "output artifact diverged from the recorded run"
  else if digest r.Campaign.r_report.Oracle.console <> b.b_console_hash then
    err "console output diverged from the recorded run"
  else Ok ()
