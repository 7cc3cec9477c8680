let sighup = 1
let sigint = 2
let sigquit = 3
let sigill = 4
let sigtrap = 5
let sigabrt = 6
let sigemt = 7
let sigfpe = 8
let sigkill = 9
let sigbus = 10
let sigsegv = 11
let sigsys = 12
let sigpipe = 13
let sigalrm = 14
let sigterm = 15
let sigurg = 16
let sigstop = 17
let sigtstp = 18
let sigcont = 19
let sigchld = 20
let sigttin = 21
let sigttou = 22
let sigio = 23
let sigxcpu = 24
let sigxfsz = 25
let sigvtalrm = 26
let sigprof = 27
let sigwinch = 28
let siginfo = 29
let sigusr1 = 30
let sigusr2 = 31

let max_signal = 31
let is_valid s = s >= 1 && s <= max_signal

let names =
  [| ""; "SIGHUP"; "SIGINT"; "SIGQUIT"; "SIGILL"; "SIGTRAP"; "SIGABRT";
     "SIGEMT"; "SIGFPE"; "SIGKILL"; "SIGBUS"; "SIGSEGV"; "SIGSYS";
     "SIGPIPE"; "SIGALRM"; "SIGTERM"; "SIGURG"; "SIGSTOP"; "SIGTSTP";
     "SIGCONT"; "SIGCHLD"; "SIGTTIN"; "SIGTTOU"; "SIGIO"; "SIGXCPU";
     "SIGXFSZ"; "SIGVTALRM"; "SIGPROF"; "SIGWINCH"; "SIGINFO"; "SIGUSR1";
     "SIGUSR2" |]

let name s =
  if is_valid s then names.(s) else Printf.sprintf "SIG%d" s

let of_name n =
  let n = String.uppercase_ascii n in
  let n = if String.length n >= 3 && String.sub n 0 3 = "SIG" then n
    else "SIG" ^ n in
  let rec search i =
    if i > max_signal then None
    else if names.(i) = n then Some i
    else search (i + 1)
  in
  search 1

type default_action = Terminate | Ignore | Stop | Continue

let default_action s =
  if s = sigurg || s = sigchld || s = sigio || s = sigwinch
     || s = siginfo || s = sigcont
  then (if s = sigcont then Continue else Ignore)
  else if s = sigstop || s = sigtstp || s = sigttin || s = sigttou then Stop
  else Terminate

module Mask = struct
  type t = int

  let full = (1 lsl max_signal) - 1
  let mask_bit s = 1 lsl (s - 1)
  let add m s = m lor mask_bit s
  let remove m s = m land lnot (mask_bit s)
  let mem m s = m land mask_bit s <> 0
  let union = ( lor )
  let inter = ( land )
  let sanitize m = remove (remove m sigkill) sigstop
end
