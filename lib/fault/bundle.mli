(** Repro bundles: a failing campaign case as one replayable text
    file — the (shrunk) injection plan, the [record_replay] journal
    that pins the run's inputs, the workload name, and the recorded
    outcome with digests of the run's observable products.

    [agentrun --repro FILE] parses a bundle, {!replay}s it and
    {!verify}s byte-identity: same outcome class, same wait status,
    same output-artifact and console digests. *)

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

val of_run : workload:string -> Campaign.run -> t

val to_string : t -> string
val of_string : string -> (t, string) result

val replay : t -> (Campaign.run, string) result
(** Re-run the bundle: same workload, same plan, inputs fed from the
    journal.  [Error] only when the workload name is unknown. *)

val verify : t -> Campaign.run -> (unit, string) result
(** Did the replay reproduce the bundle byte-identically? *)
