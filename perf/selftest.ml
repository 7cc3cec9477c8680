(* The benchmark's own test, run by [dune runtest]: metric and workload
   names against BENCHMARK.json, the committed expectations, the order
   statistics, and the compare rules on fixture runs.  It runs no
   workload. *)

let failures = ref 0
let checks = ref 0

let check what ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let one_to_one what (spec : Spec.metric list) code =
  let s = List.map (fun (m : Spec.metric) -> (m.name, m.unit)) spec in
  check
    (what ^ " metrics match BENCHMARK.json one to one")
    (List.sort_uniq compare s = List.sort compare code
    && List.length (List.sort_uniq compare code) = List.length code)

let fixture_cases =
  Compare.
    [ ("same", [ Same; Same; Same ]); ("regress", [ Regression; Regression; Same ]);
      ("gain", [ Gain; Gain; Same ]); ("noisy", [ Unresolved; Gain; Same ]);
      ("few", [ Same; Same; Same ]); ("failing", [ Same; Same; Regression ]) ]

let run ~(spec : Spec.t) ~fixture_spec =
  one_to_one "end-to-end" spec.end_to_end
    (List.map (fun (n, u, _) -> (n, u)) Measure.end_to_end);
  one_to_one "per-layer" spec.per_layer Measure.per_layer;
  check "workloads match BENCHMARK.json"
    (List.sort compare spec.workloads = List.sort compare Load.names);
  check "every end-to-end metric has a bound in (0, 0.25]"
    (List.for_all
       (fun (m : Spec.metric) ->
         match m.bound with Some b -> b > 0. && b <= 0.25 | None -> false)
       spec.end_to_end);
  check "every workload has a default-seed expectation"
    (List.for_all (fun w -> List.mem_assoc w Expected.at_default_seed) Load.names);
  (match
     ( List.assoc_opt "syscall_bare" Expected.at_default_seed,
       List.assoc_opt "syscall_stacked" Expected.at_default_seed )
   with
   | Some (t1, _, d1), Some (t2, _, d2) ->
     check "null agents leave the trap count and output unchanged" (t1 = t2 && d1 = d2)
   | _ -> ());
  check "quartiles follow statistics.quantiles"
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = (2.75, 5.5, 8.25)
    && Stats.quartiles [ 1.; 2. ] = (0.75, 1.5, 2.25));
  let h = Stats.Hist.create () in
  for v = 1 to 100_000 do
    Stats.Hist.add h v
  done;
  let near want got = Float.abs (got -. want) /. want < 0.035 in
  check "histogram percentiles within 3.5%"
    (near 50_000. (Stats.Hist.percentile h 0.5) && near 99_000. (Stats.Hist.percentile h 0.99));
  (match Spec.load fixture_spec with
   | Error e -> check e false
   | Ok fspec ->
     let dir = Filename.dirname fixture_spec in
     let runs name = Compare.read_runs (Filename.concat dir (name ^ ".jsonl")) in
     let base = runs "base" in
     List.iter
       (fun (name, want) ->
         let got = List.map (fun r -> r.Compare.status) (Compare.rows fspec base (runs name)) in
         check
           (Printf.sprintf "compare base %s: %s" name
              (String.concat "," (List.map Compare.status_name got)))
           (got = want))
       fixture_cases);
  Printf.printf "selftest: %d checks, %d failed\n" !checks !failures;
  !failures = 0
