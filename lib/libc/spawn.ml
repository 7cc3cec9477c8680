open Abi

let redirect fd target =
  if fd <> target then ignore (Unistd.dup2 fd target)

let child_body ?stdin ?stdout path argv () =
  Option.iter (fun fd -> redirect fd 0) stdin;
  Option.iter (fun fd -> redirect fd 1) stdout;
  match Unistd.execve path argv [||] with
  | Ok _ -> 0
  | Error e ->
    Stdio.eprintf "%s: %s\n" path (Errno.message e);
    127

let spawn ?stdin ?stdout path argv =
  Unistd.fork ~child:(child_body ?stdin ?stdout path argv)

let run ?stdin ?stdout path argv =
  match spawn ?stdin ?stdout path argv with
  | Error e -> Error e
  | Ok pid ->
    (match Unistd.waitpid pid 0 with
     | Ok (_, status) -> Ok status
     | Error e -> Error e)

let run_exit_code path argv =
  match run path argv with
  | Ok status when Flags.Wait.wifexited status ->
    Flags.Wait.wexitstatus status
  | Ok _ | Error _ -> 127
