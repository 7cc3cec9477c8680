type t = { d_ino : int; d_name : string }

let header_len = 8

let align4 n = (n + 3) land lnot 3

let record_len name = align4 (header_len + String.length name)

let fits buf ~pos e = pos + record_len e.d_name <= Bytes.length buf

let encode_name buf ~pos ~ino name =
  let rl = record_len name in
  if pos + rl > Bytes.length buf then
    invalid_arg "Dirent.encode: buffer too small";
  let nl = String.length name in
  Bytes.set_int32_le buf pos (Int32.of_int ino);
  Bytes.set_uint16_le buf (pos + 4) rl;
  Bytes.set_uint16_le buf (pos + 6) nl;
  Bytes.blit_string name 0 buf (pos + header_len) nl;
  (* zero the padding so encodings are deterministic *)
  for i = pos + header_len + nl to pos + rl - 1 do
    Bytes.set buf i '\000'
  done;
  pos + rl

let encode buf ~pos e = encode_name buf ~pos ~ino:e.d_ino e.d_name

let decode buf ~pos ~limit =
  if pos + header_len > limit then None
  else
    let ino = Int32.to_int (Bytes.get_int32_le buf pos) in
    let rl = Bytes.get_uint16_le buf (pos + 4) in
    let nl = Bytes.get_uint16_le buf (pos + 6) in
    if rl < header_len + nl || pos + rl > limit then None
    else
      let name = Bytes.sub_string buf (pos + header_len) nl in
      Some ({ d_ino = ino; d_name = name }, pos + rl)

let decode_all buf ~len =
  let rec go pos acc =
    match decode buf ~pos ~limit:len with
    | Some (e, next) -> go next (e :: acc)
    | None -> List.rev acc
  in
  go 0 []
