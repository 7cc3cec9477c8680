(* BENCHMARK.json: the one list of workload and metric names, with each
   end-to-end metric's direction and regression bound. *)

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float option;  (** share of the base median; end-to-end only *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let ( let* ) = Result.bind
let field key j = Option.to_result ~none:("missing " ^ key) (Obs.Json.member key j)

let list key conv j =
  let* v = field key j in
  let* items = Option.to_result ~none:(key ^ " is not a list") (Obs.Json.to_list v) in
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* x = conv item in
      Ok (x :: acc))
    items (Ok [])

let str key j =
  let* v = field key j in
  Option.to_result ~none:(key ^ " is not a string") (Obs.Json.to_str v)

let metric j =
  let* name = str "name" j in
  let* unit = str "unit" j in
  let* better = str "better" j in
  let bound = Option.bind (Obs.Json.member "bound" j) Obs.Json.to_number in
  match better with
  | "higher" | "lower" -> Ok { name; unit; higher_is_better = better = "higher"; bound }
  | b -> Error (Printf.sprintf "%s: better is %S" name b)

let of_json j =
  let* workloads = list "workloads" (str "name") j in
  let* end_to_end = list "end_to_end" metric j in
  let* per_layer = list "per_layer" metric j in
  Ok { workloads; end_to_end; per_layer }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
    really_input_string ic (in_channel_length ic))

let load path =
  match Obs.Json.of_string (read_file path) with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)
