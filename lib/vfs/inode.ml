module Names = Map.Make (String)

type dir = { mutable entries : int Names.t }

type kind =
  | Reg of Filedata.t
  | Dir of dir
  | Symlink of string
  | Chardev of int
  | Fifo of Pipebuf.t

type t = {
  ino : int;
  kind : kind;
  mutable perm : int;
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : int;
  mutable mtime : int;
  mutable ctime : int;
}

let kind_bits t =
  let open Abi.Flags.Mode in
  match t.kind with
  | Reg _ -> ifreg
  | Dir _ -> ifdir
  | Symlink _ -> iflnk
  | Chardev _ -> ifchr
  | Fifo _ -> ififo

let mode t = kind_bits t lor (t.perm land 0o7777)

let dir_entries t =
  match t.kind with
  | Dir d -> Names.bindings d.entries
  | Reg _ | Symlink _ | Chardev _ | Fifo _ -> []

(* What a full listing would encode to, summed without building it. *)
let dir_size d =
  Names.fold (fun name _ acc -> acc + Abi.Dirent.record_len name) d.entries 0

let size t =
  match t.kind with
  | Reg d -> Filedata.size d
  | Dir d -> dir_size d
  | Symlink s -> String.length s
  | Chardev _ -> 0
  | Fifo p -> Pipebuf.available p

let to_stat ~dev t =
  let rdev = match t.kind with Chardev r -> r | _ -> 0 in
  let sz = size t in
  { Abi.Stat.st_dev = dev;
    st_ino = t.ino;
    st_mode = mode t;
    st_nlink = t.nlink;
    st_uid = t.uid;
    st_gid = t.gid;
    st_rdev = rdev;
    st_size = sz;
    st_atime = t.atime;
    st_mtime = t.mtime;
    st_ctime = t.ctime;
    st_blksize = 512;
    st_blocks = (sz + 511) / 512 }

let is_dir t = match t.kind with Dir _ -> true | _ -> false

let dir t =
  match t.kind with
  | Dir d -> Ok d
  | Reg _ | Symlink _ | Chardev _ | Fifo _ -> Error Abi.Errno.ENOTDIR
