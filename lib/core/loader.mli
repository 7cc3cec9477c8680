(** The agent loader: installing agents into the current process and
    launching applications under them.

    Mirrors the paper's general agent-loader program: it captures the
    current interception state as the agent's down path (so agents
    stack — Figures 1-3/1-4, nested transactions), installs the agent's
    entry points for the syscall numbers it registered (plus the
    boilerplate minimum: fork, execve and exit must always be seen or
    the agent could not survive process-management calls), interposes
    on incoming signals, initialises the agent, and finally execs the
    unmodified application. *)

val install : #Numeric.numeric_syscall -> argv:string array -> unit
(** Install in the calling process.  Installing a second agent stacks
    it above the first. *)

val run_under :
  #Numeric.numeric_syscall -> ?argv:string array -> (unit -> 'a) -> 'a
(** [run_under agent f] installs, runs [f], uninstalls — even if [f]
    raises.  The workhorse for tests and in-process uses. *)

val exec_under :
  #Numeric.numeric_syscall -> path:string -> argv:string array
  -> ?envp:string array -> unit -> int
(** Install the agent, then exec the target program under it via the
    toolkit execve (the agent survives into the new image).  Returns
    only on exec failure, with a shell-style 127. *)
