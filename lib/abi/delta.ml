(* Declared interposition deltas: the vocabulary agents use to state,
   up front, every way they may lawfully change what the application
   observes at the system interface.  Conformance checking normalizes
   two syscall signatures by a stack's composed declarations and flags
   any residual divergence — so the paper's transparency claim becomes
   "empty residue", not prose. *)

type clause =
  | Shifts_results of int list
  | Rewrites_results of int list
  | Renumbers of (int * int) list
  | May_fail of { sysnos : int list; errnos : Errno.t list }
  | May_delay of int list

type t = clause list

let none : t = []

let compose deltas = List.concat deltas

let clause_to_string = function
  | Shifts_results ns ->
    "shifts-results(" ^ String.concat "," (List.map Call.name ns) ^ ")"
  | Rewrites_results ns ->
    "rewrites-results(" ^ String.concat "," (List.map Call.name ns) ^ ")"
  | Renumbers pairs ->
    "renumbers("
    ^ String.concat ","
        (List.map (fun (f, n) -> Printf.sprintf "%d>%s" f (Call.name n)) pairs)
    ^ ")"
  | May_fail { sysnos; errnos } ->
    Printf.sprintf "may-fail(%s:%s)"
      (String.concat "," (List.map Call.name sysnos))
      (String.concat "," (List.map Errno.name errnos))
  | May_delay ns ->
    "may-delay(" ^ String.concat "," (List.map Call.name ns) ^ ")"

let to_string = function
  | [] -> "none"
  | clauses -> String.concat "; " (List.map clause_to_string clauses)
