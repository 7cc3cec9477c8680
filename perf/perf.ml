(* The host-time benchmark.

     perf.exe run [--seed N] [--seconds S] [--workload W]... [--out F]
                  [--history F]
     perf.exe trace [--seed N] [--seconds S] [--workload W]...
     perf.exe compare A.jsonl B.jsonl [--spec BENCHMARK.json]
     perf.exe selftest --spec BENCHMARK.json --fixture-spec fixtures/spec.json
     perf.exe --workload W --seed N --seconds S --trace 0|1

   The last form measures one workload in this process and ends with
   one JSON result line; [run] and [trace] invoke it once per workload,
   each in a child process, one at a time.  See README.md. *)

let usage () =
  prerr_endline
    "usage: perf.exe run|trace|compare|selftest ... | --workload W [--seed N] \
     [--seconds S] [--trace 0|1]  (see perf/README.md)";
  exit 2

let rec opt key = function
  | k :: v :: _ when k = key -> Some v
  | _ :: rest -> opt key rest
  | [] -> None

let rec opts key = function
  | k :: v :: rest when k = key -> v :: opts key rest
  | _ :: rest -> opts key rest
  | [] -> []

let int_opt key args ~default =
  match opt key args with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> usage ())

let seconds args =
  match opt "--seconds" args with
  | None -> 12.
  | Some s -> ( match float_of_string_opt s with Some x when x > 0. -> x | _ -> usage ())

let out_dir = "perf/_out"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* --- one workload in this process ---------------------------------------------- *)

let measure args name =
  let seed = int_opt "--seed" args ~default:Measure.default_seed in
  let trace =
    match opt "--trace" args with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  match Load.of_name name ~seed with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name (String.concat ", " Load.names);
    exit 2
  | Some w ->
    let seconds = seconds args in
    let ok =
      if trace then (
        mkdir_p out_dir;
        (* the GC event ring file goes beside the span files; the runtime
           reads its directory once, at start-up *)
        if Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" = None then begin
          Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" out_dir;
          Unix.execv Sys.executable_name Sys.argv
        end;
        Measure.traced w ~seed ~seconds ~out_dir)
      else Measure.untraced w ~seed ~seconds
    in
    exit (if ok then 0 else 1)

(* --- run / trace: each workload in a child process ---------------------------- *)

(* this executable on one workload; its output is echoed as it arrives
   and returned as lines, with whether it exited 0 *)
let child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with
    | l ->
      if not (String.starts_with ~prefix:Measure.detail_prefix l) then print_endline l;
      lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let _, st = Unix.waitpid [] pid in
  (out, st = Unix.WEXITED 0)

let workloads args = match opts "--workload" args with [] -> Load.names | ws -> ws

let commit () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c
  with Unix.Unix_error _ -> "unknown"

let machine =
  Obs.Json.Obj
    [ ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version); ("flambda", Bool Build_info.flambda);
      ("word_size", Int Sys.word_size) ]

let json_line line =
  match Obs.Json.of_string line with Ok j -> j | Error e -> failwith ("child output: " ^ e)

(* [f name (output, ok)] for each selected workload, measured in turn
   by a child process *)
let each_workload args ~trace f =
  let seed = int_opt "--seed" args ~default:Measure.default_seed in
  let secs = seconds args in
  let results =
    List.map
      (fun name ->
        Printf.printf "== %s%s (seed %d, %gs)\n%!" name
          (if trace then " traced" else "") seed secs;
        f name
          (child
             [ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
               Printf.sprintf "%g" secs; "--trace"; (if trace then "1" else "0") ]))
      (workloads args)
  in
  (seed, secs, results)

let run args =
  let seed, secs, results =
    each_workload args ~trace:false (fun name (out, ok) ->
      let detail =
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:Measure.detail_prefix l then
              let n = String.length Measure.detail_prefix in
              Some (json_line (String.sub l n (String.length l - n)))
            else None)
          out
      in
      let get k = Option.bind detail (Obs.Json.member k) |> Option.value ~default:Obs.Json.Null in
      ( name,
        Obs.Json.Obj
          [ ("attempted", get "attempted"); ("failed", get "failed");
            ("slowdown", get "slowdown"); ("metrics", get "metrics") ],
        ok && detail <> None ))
  in
  let doc =
    Obs.Json.Obj
      [ ("commit", Str (commit ())); ("machine", machine); ("seed", Int seed);
        ("seconds", Float secs);
        ("workloads", Obj (List.map (fun (n, j, _) -> (n, j)) results)) ]
  in
  print_endline "== summary (median q1 q3 n)";
  List.iter
    (fun (name, _, ok) ->
      List.iter
        (fun (metric, unit, _) ->
          Option.iter
            (fun (c : Compare.cell) ->
              Printf.printf "%-18s %-24s %14.6g %14.6g %14.6g %4d  %s\n" name metric
                c.s.median c.s.q1 c.s.q3 c.s.n unit)
            (Compare.cell ~workload:name ~metric doc))
        Measure.end_to_end;
      if not ok then Printf.printf "%-18s FAILED\n" name)
    results;
  let write path flags =
    mkdir_p (Filename.dirname path);
    let oc = open_out_gen flags 0o644 path in
    output_string oc (Obs.Json.to_string doc ^ "\n");
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write
    (Option.value (opt "--out" args) ~default:(Filename.concat out_dir "run.jsonl"))
    [ Open_wronly; Open_creat; Open_trunc ];
  Option.iter (fun h -> write h [ Open_wronly; Open_creat; Open_append ]) (opt "--history" args);
  exit (if List.for_all (fun (_, _, ok) -> ok) results then 0 else 1)

let trace args =
  let _, _, overheads =
    each_workload args ~trace:true (fun name (out, ok) ->
      let overhead =
        match List.rev out with
        | last :: _ when ok ->
          Option.bind (Obs.Json.member "metrics" (json_line last))
            (Obs.Json.member "trace.overhead_pct")
          |> Fun.flip Option.bind (Compare.num "value")
        | _ -> None
      in
      (name, overhead))
  in
  print_endline "== tracing overhead (untraced / traced traps_per_s - 1)";
  List.iter
    (fun (name, o) ->
      match o with
      | Some o -> Printf.printf "%-18s %6.1f%%\n" name o
      | None -> Printf.printf "%-18s FAILED\n" name)
    overheads;
  exit (if List.for_all (fun (_, o) -> o <> None) overheads then 0 else 1)

let load_spec path =
  match Spec.load path with
  | Ok s -> s
  | Error e ->
    prerr_endline e;
    exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "run" :: args -> run args
  | "trace" :: args -> trace args
  | "compare" :: a :: b :: args ->
    let spec = load_spec (Option.value (opt "--spec" args) ~default:"BENCHMARK.json") in
    exit (if Compare.run ~spec ~a ~b then 0 else 1)
  | "selftest" :: args -> (
    match (opt "--spec" args, opt "--fixture-spec" args) with
    | Some spec, Some fixture_spec ->
      exit (if Selftest.run ~spec:(load_spec spec) ~fixture_spec then 0 else 1)
    | _ -> usage ())
  | args -> ( match opt "--workload" args with Some name -> measure args name | None -> usage ())
