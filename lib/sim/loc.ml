type count = { statements : int; lines : int }

let zero = { statements = 0; lines = 0 }
let add a b =
  { statements = a.statements + b.statements; lines = a.lines + b.lines }

(* A tiny OCaml lexer, just precise enough to strip comments and string
   literals before counting.  States: code, string, comment (nested). *)
type lex_state = Code | In_string | In_comment of int

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9') || c = '_' || c = '\''

(* Keywords that introduce a binding; each counts as one statement,
   mirroring the role of a semicolon-terminated declaration in C. *)
let binding_keywords = [ "let"; "method"; "val"; "external"; "and" ]

let count_string src =
  let n = String.length src in
  let statements = ref 0 in
  let lines = ref 0 in
  let line_has_code = ref false in
  let state = ref Code in
  let i = ref 0 in
  let word_at j w =
    let lw = String.length w in
    j + lw <= n
    && String.sub src j lw = w
    && (j = 0 || not (is_word_char src.[j - 1]))
    && (j + lw = n || not (is_word_char src.[j + lw]))
  in
  while !i < n do
    let c = src.[!i] in
    (match !state with
     | Code ->
       if c = '\n' then begin
         if !line_has_code then incr lines;
         line_has_code := false
       end else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
         state := In_comment 1;
         incr i
       end else if c = '"' then begin
         line_has_code := true;
         state := In_string
       end else if c = ';' then begin
         line_has_code := true;
         incr statements;
         (* treat ";;" as a single statement terminator *)
         if !i + 1 < n && src.[!i + 1] = ';' then incr i
       end else if c <> ' ' && c <> '\t' && c <> '\r' then begin
         line_has_code := true;
         if List.exists (word_at !i) binding_keywords then incr statements
       end
     | In_string ->
       if c = '\\' && !i + 1 < n then incr i
       else if c = '"' then state := Code
       else if c = '\n' then begin
         if !line_has_code then incr lines;
         line_has_code := false
       end
     | In_comment depth ->
       if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
         state := In_comment (depth + 1);
         incr i
       end else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
         state := (if depth = 1 then Code else In_comment (depth - 1));
         incr i
       end else if c = '\n' then begin
         if !line_has_code then incr lines;
         line_has_code := false
       end);
    incr i
  done;
  if !line_has_code then incr lines;
  { statements = !statements; lines = !lines }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_file path = count_string (read_file path)

let find_repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())
