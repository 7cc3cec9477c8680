(** Record/replay interposition — the "debuggers and program trace
    facilities" direction of §1.4, taken to its logical end.

    The {!recorder} journals the result of every {e input} system call
    (reads, stats, time-of-day, directory listings, link targets, the
    working directory) as its clients run.  The {!replayer} feeds a
    later run of the same program from that journal instead of from the
    kernel: the program re-observes exactly the inputs of the original
    run, even if the filesystem or the clock has changed since — the
    basis of reproducible debugging.

    Output and structural calls (write, open, close, fork, execve, …)
    pass through in both modes: the replayed program really runs, it is
    only its {e view of the world} that is pinned.  Journals are keyed
    by pid, and the simulation's deterministic pid assignment makes
    multi-process recordings replayable.

    A replay that observes a call sequence diverging from the journal
    counts a desync and fails the call with [EIO] rather than serving
    wrong data.

    Declared deltas: the recorder only watches, so it declares none;
    the replayer declares [Rewrites_results] over the replayable calls
    (inputs come from the journal) and [May_fail \{replayable; EIO\}]
    for desyncs. *)

class recorder : object
  inherit Toolkit.numeric_syscall

  method journal : string
  (** The serialized journal so far (one line per entry). *)

  method entries : int
end

class replayer : journal:string -> object
  inherit Toolkit.numeric_syscall

  method consumed : int
  method desyncs : int
  (** Calls that did not match the journal (served as [EIO]). *)
end

val create_recorder : unit -> recorder
val create_replayer : journal:string -> replayer
