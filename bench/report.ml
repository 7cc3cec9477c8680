(* Plain-text table rendering for the benchmark reports. *)

let print_title title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_note note = Printf.printf "%s\n" note

let print_table ~headers rows =
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure headers;
  List.iter measure rows;
  let line ch =
    Printf.printf "+%s+\n"
      (String.concat "+"
         (Array.to_list (Array.map (fun w -> String.make (w + 2) ch) widths)))
  in
  let print_row row =
    let cells =
      List.mapi (fun i cell -> Printf.sprintf " %-*s " widths.(i) cell) row
    in
    Printf.printf "|%s|\n" (String.concat "|" cells)
  in
  line '-';
  print_row headers;
  line '-';
  List.iter print_row rows;
  line '-'

(* A gate's document: BENCH_<stem>.json in the current directory, one
   top-level field (and one element of each top-level array) per line
   so a diff against the golden copy names the row that moved.
   Returns the path. *)
let write_json ~stem json =
  let path = Printf.sprintf "BENCH_%s.json" stem in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Obs.Json.to_lines json);
      output_char oc '\n');
  Printf.printf "[json] wrote %s\n" path;
  path

(* --- BENCH_*.json schema checking ------------------------------------------ *)

(* One declarative validator for every section's machine-readable
   companion.  Each section states its document shape as a [Schema.t]
   value; [validate_file] re-reads what [write_json] wrote and walks
   it.  (Previously each section hand-rolled its own copy of exactly
   this fold.) *)
module Schema = struct
  type t =
    | Num            (* any JSON number *)
    | Int
    | Str
    | Bool
    | Numbers of int (* exactly n numbers *)
    | Ints           (* non-empty array of ints *)
    | Arr of t       (* homogeneous array, possibly empty *)
    | Arr_nonempty of t
    | Obj of (string * t) list
        (* required fields (extra fields are fine: documents may grow
           without breaking old validators) *)

  let err fmt = Printf.ksprintf (fun s -> Error s) fmt

  let leaf_ok t v =
    let open Obs.Json in
    match t with
    | Num -> to_number v <> None
    | Int -> to_int v <> None
    | Str -> to_str v <> None
    | Bool -> to_bool v <> None
    | _ -> false

  let rec validate ?(kind = "document") t json =
    let open Obs.Json in
    match t with
    | Num | Int | Str | Bool ->
      if leaf_ok t json then Ok () else err "%s: wrong type" kind
    | Numbers n ->
      (match to_list json with
       | Some l
         when List.length l = n
              && List.for_all (fun v -> to_number v <> None) l ->
         Ok ()
       | Some _ -> err "%s: want %d numbers" kind n
       | None -> err "%s: expected an array" kind)
    | Ints ->
      (match to_list json with
       | Some (_ :: _ as l)
         when List.for_all (fun v -> to_int v <> None) l ->
         Ok ()
       | Some _ -> err "%s: want a non-empty int array" kind
       | None -> err "%s: expected an array" kind)
    | Arr t' | Arr_nonempty t' ->
      (match to_list json with
       | None -> err "%s: expected an array" kind
       | Some [] ->
         (match t with
          | Arr_nonempty _ -> err "%s: empty" kind
          | _ -> Ok ())
       | Some items ->
         List.fold_left
           (fun acc item ->
             match acc with
             | Error _ -> acc
             | Ok () -> validate ~kind t' item)
           (Ok ()) items)
    | Obj fields ->
      List.fold_left
        (fun acc (field, sub) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            (match Obs.Json.member field json with
             | None -> err "%s: missing field %S" kind field
             | Some v ->
               (match sub with
                | Num | Int | Str | Bool ->
                  if leaf_ok sub v then Ok ()
                  else err "%s: field %S has wrong type" kind field
                | _ -> validate ~kind:field sub v)))
        (Ok ()) fields
end

(* Re-read a BENCH_*.json from disk and validate it against [schema]. *)
let validate_file path schema =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.of_string (String.trim content) with
  | Error e -> Error (Printf.sprintf "%s: malformed JSON: %s" path e)
  | Ok json ->
    (match Schema.validate schema json with
     | Error e -> Error (Printf.sprintf "%s: schema: %s" path e)
     | Ok () ->
       Printf.printf "%s: schema ok\n" path;
       Ok ())

let pct base v =
  if base <= 0.0 then "-"
  else Printf.sprintf "%+.1f%%" ((v -. base) /. base *. 100.0)

let secs v = Printf.sprintf "%.1f" v
let us v = Printf.sprintf "%.0f" v
