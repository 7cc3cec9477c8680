(* Minimal JSON: enough to emit span JSONL / BENCH_*.json and to parse
   them back for schema validation and round-trip tests.  The container
   ships no JSON library, and the subset we need (finite numbers,
   UTF-8 strings, arrays, objects) is small enough to carry here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- emit ---------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    Printf.sprintf "%.12g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> escape_to buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* [emit], breaking the line before each top-level field and before
   each element of a top-level array *)
let to_lines v =
  let buf = Buffer.create 1024 in
  let block ~indent first last items item =
    Buffer.add_char buf first;
    List.iteri
      (fun i x ->
        Buffer.add_string buf (if i > 0 then ",\n" else "\n");
        Buffer.add_string buf indent;
        item x)
      items;
    if items <> [] then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.sub indent 2 (String.length indent - 2))
    end;
    Buffer.add_char buf last
  in
  let lines_of_array ~indent = function
    | Arr xs -> block ~indent '[' ']' xs (emit buf)
    | x -> emit buf x
  in
  (match v with
   | Obj kvs ->
     block ~indent:"  " '{' '}' kvs (fun (k, x) ->
         escape_to buf k;
         Buffer.add_string buf ": ";
         lines_of_array ~indent:"    " x)
   | x -> lines_of_array ~indent:"  " x);
  Buffer.contents buf

(* ---------- parse ---------- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let eof st = st.pos >= String.length st.src
let peek st = st.src.[st.pos]

let skip_ws st =
  while (not (eof st)) && (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    st.pos <- st.pos + 1
  done

let expect st c =
  if eof st || peek st <> c then error st (Printf.sprintf "expected '%c'" c);
  st.pos <- st.pos + 1

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected %s" word)

(* UTF-8-encode a code point from a \uXXXX escape. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then error st "unterminated string";
    match peek st with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
      st.pos <- st.pos + 1;
      if eof st then error st "unterminated escape";
      let c = peek st in
      st.pos <- st.pos + 1;
      (match c with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
         if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
         let hex = String.sub st.src st.pos 4 in
         st.pos <- st.pos + 4;
         (match int_of_string_opt ("0x" ^ hex) with
          | Some cp -> add_utf8 buf cp
          | None -> error st "bad \\u escape")
       | _ -> error st "bad escape");
      loop ()
    | c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let advance () = st.pos <- st.pos + 1 in
  if (not (eof st)) && peek st = '-' then advance ();
  while (not (eof st)) && (match peek st with '0' .. '9' -> true | _ -> false) do
    advance ()
  done;
  if (not (eof st)) && peek st = '.' then begin
    is_float := true;
    advance ();
    while (not (eof st)) && (match peek st with '0' .. '9' -> true | _ -> false) do
      advance ()
    done
  end;
  if (not (eof st)) && (peek st = 'e' || peek st = 'E') then begin
    is_float := true;
    advance ();
    if (not (eof st)) && (peek st = '+' || peek st = '-') then advance ();
    while (not (eof st)) && (match peek st with '0' .. '9' -> true | _ -> false) do
      advance ()
    done
  end;
  let s = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error st "bad number"
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None ->
      (match float_of_string_opt s with
       | Some f -> Float f
       | None -> error st "bad number")

let rec parse_value st =
  skip_ws st;
  if eof st then error st "unexpected end of input";
  match peek st with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> Str (parse_string st)
  | '-' | '0' .. '9' -> parse_number st
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if (not (eof st)) && peek st = ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        if eof st then error st "unterminated array"
        else if peek st = ',' then begin
          st.pos <- st.pos + 1;
          items (v :: acc)
        end
        else begin
          expect st ']';
          List.rev (v :: acc)
        end
      in
      Arr (items [])
    end
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if (not (eof st)) && peek st = '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let member () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let rec members acc =
        let kv = member () in
        skip_ws st;
        if eof st then error st "unterminated object"
        else if peek st = ',' then begin
          st.pos <- st.pos + 1;
          members (kv :: acc)
        end
        else begin
          expect st '}';
          List.rev (kv :: acc)
        end
      in
      Obj (members [])
    end
  | _ -> error st "unexpected character"

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if eof st then Ok v else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_number = function Int n -> Some (float_of_int n) | Float f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
