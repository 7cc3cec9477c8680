(* Two sets of runs, A (the base) and B, compared per (workload,
   end-to-end metric) row.  A run is one line of [perf.exe run] output
   (the format of history.jsonl); a side may hold several runs.

   - regression: B's median is worse than A's by more than the bound;
   - unresolved: the spread (IQR over median, the wider side's) exceeds
     the bound, unless every run of B beats every run of A;
   - gain: B wins at least 9 in 10 of the runs paired in order, the
     medians differ by more than A's IQR, and there are at least 10
     pairs;
   - same: otherwise.

   A side with one run falls back to that run's spread over rounds.
   [fail_ratio] is its own row per workload: any increase is a
   regression. *)

(* one run's view of one row *)
type cell = { s : Stats.summary; attempted : int; failed : int }

let num key j = Option.bind (Obs.Json.member key j) Obs.Json.to_number
let int key j = Option.bind (Obs.Json.member key j) Obs.Json.to_int

let cell ~workload ~metric run =
  let ( let* ) = Option.bind in
  let* w = Option.bind (Obs.Json.member "workloads" run) (Obs.Json.member workload) in
  let* m = Option.bind (Obs.Json.member "metrics" w) (Obs.Json.member metric) in
  let* median = num "median" m in
  let* q1 = num "q1" m in
  let* q3 = num "q3" m in
  let n = Option.value (int "n" m) ~default:0 in
  let* attempted = int "attempted" w in
  let* failed = int "failed" w in
  Some { s = { Stats.median; q1; q3; n }; attempted; failed }

let read_runs path =
  Spec.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.mapi (fun i line ->
       match Obs.Json.of_string line with
       | Ok j -> j
       | Error e -> failwith (Printf.sprintf "%s:%d: %s" path (i + 1) e))

type status = Regression | Unresolved | Gain | Same | Missing

let status_name = function
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Gain -> "gain"
  | Same -> "same"
  | Missing -> "missing"

type row = {
  workload : string;
  metric : string;
  a : float;  (** medians of the run medians *)
  b : float;
  worse : float;  (** share of [a] by which [b] is worse; negative = better *)
  spread : float;
  bound : float;
  status : status;
}

(* spread and absolute IQR of one side *)
let side_spread cells =
  match cells with
  | [ c ] -> ((c.s.q3 -. c.s.q1) /. Float.abs c.s.median, c.s.q3 -. c.s.q1)
  | _ ->
    let q1, _, q3 = Stats.quartiles (List.map (fun c -> c.s.median) cells) in
    (Stats.rel_iqr (List.map (fun c -> c.s.median) cells), q3 -. q1)

let min_pairs = 10

let classify ~higher ~bound ~(a : float list) ~(b : float list) ~spread ~iqr_a =
  let better x y = if higher then x > y else x < y in
  let ma = Stats.median a and mb = Stats.median b in
  let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let all_beat = List.for_all (fun x -> List.for_all (better x) a) b in
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let ps = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) ps) in
  let status =
    if worse > bound then Regression
    else if spread > bound && not all_beat then Unresolved
    else if
      List.length ps >= min_pairs
      && 10 * wins >= 9 * List.length ps
      && Float.abs (mb -. ma) > iqr_a
      && better mb ma
    then Gain
    else Same
  in
  (ma, mb, worse, status)

let rows (spec : Spec.t) runs_a runs_b =
  List.concat_map
    (fun workload ->
      let cells runs metric = List.filter_map (cell ~workload ~metric) runs in
      let metric_rows =
        List.map
          (fun (m : Spec.metric) ->
            let bound = Option.value m.bound ~default:0. in
            let ca = cells runs_a m.name and cb = cells runs_b m.name in
            if ca = [] || cb = [] then
              { workload; metric = m.name; a = nan; b = nan; worse = nan; spread = nan;
                bound; status = Missing }
            else
              let sa, iqr_a = side_spread ca and sb, _ = side_spread cb in
              let spread = Float.max sa sb in
              let median c = c.s.median in
              let a, b, worse, status =
                classify ~higher:m.higher_is_better ~bound ~a:(List.map median ca)
                  ~b:(List.map median cb) ~spread ~iqr_a
              in
              { workload; metric = m.name; a; b; worse; spread; bound; status })
          spec.Spec.end_to_end
      in
      (* failures, from the cells of any metric *)
      let fail_ratio runs =
        match spec.Spec.end_to_end with
        | [] -> None
        | m :: _ -> (
          match cells runs m.Spec.name with
          | [] -> None
          | cs ->
            let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
            Some
              (float_of_int (sum (fun c -> c.failed))
              /. float_of_int (max 1 (sum (fun c -> c.attempted)))))
      in
      let fail_row =
        match (fail_ratio runs_a, fail_ratio runs_b) with
        | Some a, Some b ->
          [ { workload; metric = "fail_ratio"; a; b; worse = b -. a; spread = 0.;
              bound = 0.; status = (if b > a then Regression else Same) } ]
        | _ -> []
      in
      metric_rows @ fail_row)
    spec.Spec.workloads

let print rows =
  Printf.printf "%-18s %-24s %14s %14s %8s %8s %6s  %s\n" "workload" "metric" "A" "B"
    "worse%" "spread%" "bound%" "status";
  List.iter
    (fun r ->
      Printf.printf "%-18s %-24s %14.6g %14.6g %8.2f %8.2f %6.1f  %s\n" r.workload r.metric
        r.a r.b (100. *. r.worse) (100. *. r.spread) (100. *. r.bound)
        (status_name r.status))
    rows

let run ~spec ~a ~b =
  let runs_a = read_runs a and runs_b = read_runs b in
  let rs = rows spec runs_a runs_b in
  print rs;
  let pairs = min (List.length runs_a) (List.length runs_b) in
  if pairs < min_pairs then
    Printf.printf "%d run pair(s): a gain needs at least %d\n" pairs min_pairs;
  let count st = List.length (List.filter (fun r -> r.status = st) rs) in
  Printf.printf "regressions %d  unresolved %d  gains %d  missing %d\n" (count Regression)
    (count Unresolved) (count Gain) (count Missing);
  count Regression = 0 && count Missing = 0
