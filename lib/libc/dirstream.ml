open Abi

type t = {
  fd : int;
  buf : Bytes.t;
  mutable pending : Dirent.t list;
  mutable eof : bool;
}

let opendir path =
  match Unistd.open_ path Flags.Open.o_rdonly 0 with
  | Error e -> Error e
  | Ok fd -> Ok { fd; buf = Bytes.create 512; pending = []; eof = false }

(* A failing getdirentries is the caller's error, not the end of the
   directory: a listing is whole or it is an errno. *)
let rec readdir t =
  match t.pending with
  | e :: rest ->
    t.pending <- rest;
    Ok (Some e)
  | [] when t.eof -> Ok None
  | [] ->
    match Unistd.getdirentries t.fd t.buf with
    | Error e -> Error e
    | Ok (0, _) ->
      t.eof <- true;
      Ok None
    | Ok (n, _) ->
      t.pending <- Dirent.decode_all t.buf ~len:n;
      readdir t

let closedir t = ignore (Unistd.close t.fd)

let entries path =
  match opendir path with
  | Error e -> Error e
  | Ok d ->
    let rec all acc =
      match readdir d with
      | Ok (Some e) when e.Dirent.d_name = "." || e.Dirent.d_name = ".." ->
        all acc
      | Ok (Some e) -> all (e :: acc)
      | Ok None -> Ok (List.rev acc)
      | Error e -> Error e
    in
    let es = all [] in
    closedir d;
    es

let names path =
  match entries path with
  | Error e -> Error e
  | Ok es ->
    Ok (List.sort compare (List.map (fun e -> e.Dirent.d_name) es))
