open Abi
open Libc

type params = {
  programs : int;
  sources_per_program : int;
  source_lines : int;
  io_chunk : int;
  cpu_us_per_line : int;
}

let default_params = {
  programs = 8;
  sources_per_program = 2;
  source_lines = 260;
  io_chunk = 64;
  cpu_us_per_line = 1_560;
}

let quick_params = {
  programs = 2;
  sources_per_program = 2;
  source_lines = 10;
  io_chunk = 128;
  cpu_us_per_line = 30;
}

let project_dir = "/proj"
let makefile = project_dir ^ "/Makefile"
let header_path = project_dir ^ "/include/defs.h"

(* chunked I/O configuration shared by the tool stages; each stage
   reads it at entry from the environment-ish /proj/.ccrc so every
   stage of a session agrees, and no state outlives the stage *)

type cfg = { chunk : int; cpu : int }

let default_cfg =
  { chunk = default_params.io_chunk; cpu = default_params.cpu_us_per_line }

let read_config () =
  match Stdio.read_file (project_dir ^ "/.ccrc") with
  | Ok content ->
    (match String.split_on_char ' ' (String.trim content) with
     | [ a; b ] ->
       (match int_of_string_opt a, int_of_string_opt b with
        | Some chunk, Some cpu -> { chunk; cpu }
        | _ -> default_cfg)
     | _ -> default_cfg)
  | Error _ -> default_cfg

let read_chunked cfg path =
  match Unistd.open_ path Flags.Open.o_rdonly 0 with
  | Error e -> Error e
  | Ok fd ->
    let buf = Bytes.create cfg.chunk in
    let collected = Buffer.create 4096 in
    let rec go () =
      match Unistd.read fd buf cfg.chunk with
      | Error e ->
        ignore (Unistd.close fd);
        Error e
      | Ok 0 ->
        ignore (Unistd.close fd);
        Ok (Buffer.contents collected)
      | Ok n ->
        Buffer.add_subbytes collected buf 0 n;
        go ()
    in
    go ()

let write_chunked cfg path content =
  match
    Unistd.open_ path Flags.Open.(o_wronly lor o_creat lor o_trunc) 0o644
  with
  | Error e -> Error e
  | Ok fd ->
    let n = String.length content in
    let rec go pos =
      if pos >= n then begin
        ignore (Unistd.close fd);
        Ok ()
      end
      else begin
        let len = min cfg.chunk (n - pos) in
        match Unistd.write_all fd (String.sub content pos len) with
        | Ok () -> go (pos + len)
        | Error e ->
          ignore (Unistd.close fd);
          Error e
      end
    in
    go 0

let fail_stage tool what e =
  Stdio.eprintf "%s: %s: %s\n" tool what (Errno.message e);
  1

(* --- cpp: include expansion --------------------------------------------- *)

let cpp ~argv ~envp:_ () =
  let cfg = read_config () in
  match argv with
  | [| _; src; out |] ->
    (match read_chunked cfg src with
     | Error e -> fail_stage "cpp" src e
     | Ok content ->
       let expanded = Buffer.create (String.length content) in
       List.iter
         (fun line ->
           let prefix = "#include \"" in
           let pl = String.length prefix in
           if
             String.length line > pl
             && String.sub line 0 pl = prefix
             && String.length line > pl + 1
           then begin
             let name =
               String.sub line pl (String.index_from line pl '"' - pl)
             in
             match read_chunked cfg (project_dir ^ "/include/" ^ name) with
             | Ok inc -> Buffer.add_string expanded inc
             | Error _ ->
               Buffer.add_string expanded ("/* missing " ^ name ^ " */\n")
           end
           else begin
             Buffer.add_string expanded line;
             Buffer.add_char expanded '\n'
           end)
         (String.split_on_char '\n' content);
       (match write_chunked cfg out (Buffer.contents expanded) with
        | Ok () -> 0
        | Error e -> fail_stage "cpp" out e))
  | _ ->
    Stdio.eprint "usage: cpp src out\n";
    2

(* --- cc1: "code generation" ----------------------------------------------- *)

let cc1 ~argv ~envp:_ () =
  let cfg = read_config () in
  match argv with
  | [| _; src; out |] ->
    (match read_chunked cfg src with
     | Error e -> fail_stage "cc1" src e
     | Ok content ->
       let asm = Buffer.create (2 * String.length content) in
       let lines = String.split_on_char '\n' content in
       List.iteri
         (fun i line ->
           if String.trim line <> "" then begin
             Unistd.cpu_work cfg.cpu;
             Buffer.add_string asm
               (Printf.sprintf "\tmovl\t$%d,r0\t# %s\n" i
                  (String.sub line 0 (min 24 (String.length line))));
             Buffer.add_string asm "\tpushl\tr0\n";
             Buffer.add_string asm "\tcalls\t$0,_emit\n"
           end)
         lines;
       (match write_chunked cfg out (Buffer.contents asm) with
        | Ok () -> 0
        | Error e -> fail_stage "cc1" out e))
  | _ ->
    Stdio.eprint "usage: cc1 src.i out.s\n";
    2

(* --- as: assembly ------------------------------------------------------------ *)

let as_ ~argv ~envp:_ () =
  let cfg = read_config () in
  match argv with
  | [| _; src; out |] ->
    (match read_chunked cfg src with
     | Error e -> fail_stage "as" src e
     | Ok content ->
       let obj = Buffer.create (String.length content / 2) in
       Buffer.add_string obj "\007OBJ\n";
       List.iter
         (fun line ->
           let t = String.trim line in
           if t <> "" then begin
             Unistd.cpu_work (cfg.cpu / 4);
             Buffer.add_string obj
               (Printf.sprintf "%04x\n" (Hashtbl.hash t land 0xffff))
           end)
         (String.split_on_char '\n' content);
       (match write_chunked cfg out (Buffer.contents obj) with
        | Ok () -> 0
        | Error e -> fail_stage "as" out e))
  | _ ->
    Stdio.eprint "usage: as src.s out.o\n";
    2

(* --- ld: linking ---------------------------------------------------------------- *)

let ld ~argv ~envp:_ () =
  let cfg = read_config () in
  if Array.length argv < 4 || argv.(1) <> "-o" then begin
    Stdio.eprint "usage: ld -o out obj...\n";
    2
  end
  else begin
    let out = argv.(2) in
    let objs = Array.to_list (Array.sub argv 3 (Array.length argv - 3)) in
    let image = Buffer.create 8192 in
    Buffer.add_string image "\007EXE\n";
    let rc =
      List.fold_left
        (fun rc obj ->
          match read_chunked cfg obj with
          | Ok content ->
            Unistd.cpu_work (cfg.cpu * 2);
            Buffer.add_string image content;
            rc
          | Error e -> fail_stage "ld" obj e)
        0 objs
    in
    if rc <> 0 then rc
    else
      match write_chunked cfg out (Buffer.contents image) with
      | Ok () -> 0
      | Error e -> fail_stage "ld" out e
  end

(* --- cc: the driver --------------------------------------------------------------- *)

let run_tool tool args =
  let argv = Array.of_list (tool :: args) in
  Spawn.run_exit_code ("/bin/" ^ tool) argv

let cc ~argv ~envp:_ () =
  (* cc itself doesn't chunk, but it reads the config like every other
     stage -- keep the trap traffic of a session stable *)
  ignore (read_config ());
  if Array.length argv < 4 || argv.(1) <> "-o" then begin
    Stdio.eprint "usage: cc -o prog src.c...\n";
    2
  end
  else begin
    let out = argv.(2) in
    let sources = Array.to_list (Array.sub argv 3 (Array.length argv - 3)) in
    let objects = ref [] in
    let rc =
      List.fold_left
        (fun rc src ->
          if rc <> 0 then rc
          else begin
            let base = Filename.remove_extension src in
            let preprocessed = base ^ ".i" in
            let assembly = base ^ ".s" in
            let obj = base ^ ".o" in
            let rc = run_tool "cpp" [ src; preprocessed ] in
            let rc =
              if rc = 0 then run_tool "cc1" [ preprocessed; assembly ]
              else rc
            in
            let rc =
              if rc = 0 then run_tool "as" [ assembly; obj ] else rc
            in
            if rc = 0 then objects := obj :: !objects;
            rc
          end)
        0 sources
    in
    if rc <> 0 then rc
    else run_tool "ld" ("-o" :: out :: List.rev !objects)
  end

(* --- make ----------------------------------------------------------------------------- *)

type rule = { target : string; deps : string list }

let parse_makefile content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
       match String.index_opt line ':' with
       | Some i when String.trim line <> "" && line.[0] <> '#' ->
         let target = String.trim (String.sub line 0 i) in
         let deps =
           String.sub line (i + 1) (String.length line - i - 1)
           |> String.split_on_char ' '
           |> List.filter (( <> ) "")
         in
         Some { target; deps }
       | Some _ | None -> None)

let mtime path =
  match Unistd.stat path with
  | Ok st -> Some st.Stat.st_mtime
  | Error _ -> None

let out_of_date rule =
  match mtime rule.target with
  | None -> true
  | Some target_time ->
    List.exists
      (fun dep ->
        match mtime dep with
        | None -> true
        | Some dep_time -> dep_time > target_time)
      rule.deps

let make ~argv ~envp:_ () =
  ignore (read_config ());
  let mf = if Array.length argv > 1 then argv.(1) else makefile in
  match Stdio.read_file mf with
  | Error e ->
    Stdio.eprintf "make: %s: %s\n" mf (Errno.message e);
    2
  | Ok content ->
    let dir = Filename.dirname mf in
    let rules = parse_makefile content in
    List.fold_left
      (fun rc rule ->
        if rc <> 0 then rc
        else begin
          let abs p = if String.length p > 0 && p.[0] = '/' then p else dir ^ "/" ^ p in
          let rule =
            { target = abs rule.target; deps = List.map abs rule.deps }
          in
          if out_of_date rule then begin
            Stdio.printf "cc -o %s %s\n" rule.target
              (String.concat " " rule.deps);
            let code =
              Spawn.run_exit_code "/bin/cc"
                (Array.of_list ("cc" :: "-o" :: rule.target :: rule.deps))
            in
            if code <> 0 then begin
              Stdio.printf "make: *** [%s] Error %d\n" rule.target code;
              code
            end
            else rc
          end
          else begin
            Stdio.printf "`%s' is up to date.\n" rule.target;
            rc
          end
        end)
      0 rules

(* --- generation and wiring --------------------------------------------------------------- *)

let images =
  [ "make", make; "cc", cc; "cpp", cpp; "cc1", cc1; "as", as_; "ld", ld ]

let register k =
  List.iter (fun (name, body) -> Kernel.register_image k name body) images

let gen_source rng ~lines ~prog ~part =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#include \"defs.h\"\n";
  Buffer.add_string buf (Printf.sprintf "int %s_%s_entry(void) {\n" prog part);
  for i = 1 to lines do
    let v = Sim.Rng.int rng 1000 in
    Buffer.add_string buf
      (Printf.sprintf "    register int x%d = compute(%d, %d);\n" i v
         (Sim.Rng.int rng 97))
  done;
  Buffer.add_string buf "    return 0;\n}\n";
  Buffer.contents buf

let setup ?(params = default_params) ?(seed = 7) k =
  register k;
  Progs.install_all k;
  List.iter
    (fun (name, _) ->
      Kernel.install_image k ~path:("/bin/" ^ name) ~image:name)
    images;
  let rng = Sim.Rng.create seed in
  Kernel.mkdir_p k (project_dir ^ "/include");
  Kernel.write_file k ~path:header_path
    "#define compute(a, b) ((a) * 31 + (b))\n#define NULL 0\n";
  Kernel.write_file k
    ~path:(project_dir ^ "/.ccrc")
    (Printf.sprintf "%d %d\n" params.io_chunk params.cpu_us_per_line);
  let rules = ref [] in
  for p = 1 to params.programs do
    let prog = Printf.sprintf "prog%d" p in
    let sources =
      List.init params.sources_per_program (fun i ->
        let part = Char.escaped (Char.chr (Char.code 'a' + i)) in
        let name = Printf.sprintf "%s_%s.c" prog part in
        Kernel.write_file k
          ~path:(project_dir ^ "/" ^ name)
          (gen_source rng ~lines:params.source_lines ~prog ~part);
        name)
    in
    rules := Printf.sprintf "%s: %s" prog (String.concat " " sources) :: !rules
  done;
  Kernel.write_file k ~path:makefile
    (String.concat "\n" (List.rev !rules) ^ "\n")

let body () = make ~argv:[| "make"; makefile |] ~envp:[||] ()
