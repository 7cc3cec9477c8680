open Abi

let stdin = 0
let stdout = 1
let stderr = 2

let fprint fd s = ignore (Unistd.write_all fd s)
let print s = fprint stdout s
let eprint s = fprint stderr s

let printf fmt = Printf.ksprintf print fmt
let eprintf fmt = Printf.ksprintf eprint fmt

let read_line fd =
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unistd.read fd byte 1 with
    | Error _ | Ok 0 ->
      if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | Ok _ ->
      (match Bytes.get byte 0 with
       | '\n' -> Some (Buffer.contents buf)
       | c ->
         Buffer.add_char buf c;
         go ())
  in
  go ()

let read_file path =
  match Unistd.open_ path Flags.Open.o_rdonly 0 with
  | Error e -> Error e
  | Ok fd ->
    let r = Unistd.read_all fd in
    ignore (Unistd.close fd);
    r

let write_with extra_flags path ?(mode = 0o644) data =
  let flags = Flags.Open.(o_wronly lor o_creat lor extra_flags) in
  match Unistd.open_ path flags mode with
  | Error e -> Error e
  | Ok fd ->
    let r = Unistd.write_all fd data in
    ignore (Unistd.close fd);
    r

let write_file path ?mode data =
  write_with Flags.Open.o_trunc path ?mode data

let append_file path ?mode data =
  write_with Flags.Open.o_append path ?mode data
