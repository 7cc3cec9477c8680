(* VFS tests: file data storage, pipe buffers, path resolution,
   namespace operations, permissions and reference counting. *)

open Abi
open Vfs

let qtest = QCheck_alcotest.to_alcotest

let errno = Alcotest.testable Errno.pp ( = )

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.name e)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got success" what
              (Errno.name expected)
  | Error e -> Alcotest.check errno what expected e

(* --- Filedata ---------------------------------------------------------- *)

let test_filedata_roundtrip =
  QCheck.Test.make ~name:"filedata write/read roundtrip" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_bound 100))
    (fun (s, pos) ->
      let d = Filedata.create () in
      ignore (Filedata.write d ~pos s);
      let buf = Bytes.create (String.length s) in
      let n = Filedata.read d ~pos buf ~off:0 ~len:(String.length s) in
      n = String.length s && Bytes.to_string buf = s)

let test_filedata_sparse () =
  let d = Filedata.create () in
  ignore (Filedata.write d ~pos:10 "xy");
  Alcotest.(check int) "size" 12 (Filedata.size d);
  let s = Filedata.to_string d in
  Alcotest.(check string) "gap zero-filled"
    (String.make 10 '\000' ^ "xy") s

let test_filedata_truncate () =
  let d = Filedata.of_string "0123456789" in
  Filedata.truncate d 4;
  Alcotest.(check string) "shrunk" "0123" (Filedata.to_string d);
  Filedata.truncate d 8;
  Alcotest.(check string) "zero-extended"
    ("0123" ^ String.make 4 '\000')
    (Filedata.to_string d)

(* The block layout against a flat [Bytes] model of the same calls: a
   write past EOF leaves zeros, a truncate shrinks or zero-extends.
   Offsets and lengths cluster at multiples of a block, plus or minus
   one, so writes, reads and truncates land on every kind of block
   edge, leave holes, and shrink a file then grow it again. *)
type fop = W of int * int | R of int * int | T of int

module Flat = struct
  type t = { mutable b : Bytes.t; mutable len : int }

  let of_string s = { b = Bytes.of_string s; len = String.length s }

  let reserve t n =
    if n > Bytes.length t.b then begin
      let b = Bytes.make (max n (2 * Bytes.length t.b)) '\000' in
      Bytes.blit t.b 0 b 0 t.len;
      t.b <- b
    end

  (* an empty write changes nothing, even past EOF *)
  let write t ~pos s =
    let n = String.length s in
    if n > 0 then begin
      reserve t (pos + n);
      if pos > t.len then Bytes.fill t.b t.len (pos - t.len) '\000';
      Bytes.blit_string s 0 t.b pos n;
      t.len <- max t.len (pos + n)
    end

  let read t ~pos n =
    if pos >= t.len || n <= 0 then "" else Bytes.sub_string t.b pos (min n (t.len - pos))

  let truncate t n =
    reserve t n;
    if n > t.len then Bytes.fill t.b t.len (n - t.len) '\000';
    t.len <- n

  let contents t = Bytes.sub_string t.b 0 t.len
end

let text ~seed n = String.init n (fun i -> Char.chr (97 + ((seed + i) mod 26)))

let gen_near_block =
  QCheck.Gen.(
    map2
      (fun k d -> max 0 ((k * Filedata.block) + d))
      (0 -- 5) (oneofl [ -1; 0; 1 ]))

let gen_offset =
  QCheck.Gen.(frequency [ (3, gen_near_block); (1, 0 -- (6 * Filedata.block)) ])

let gen_length =
  QCheck.Gen.(
    frequency [ (3, gen_near_block); (2, 0 -- 100); (1, 0 -- (3 * Filedata.block)) ])

let gen_fop =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun p n -> W (p, n)) gen_offset gen_length);
        (3, map2 (fun p n -> R (p, n)) gen_offset gen_length);
        (2, map (fun n -> T n) gen_offset) ])

let show_fop = function
  | W (p, n) -> Printf.sprintf "write %d@%d" n p
  | R (p, n) -> Printf.sprintf "read %d@%d" n p
  | T n -> Printf.sprintf "truncate %d" n

let test_filedata_matches_flat =
  QCheck.Test.make ~name:"filedata = a flat byte array" ~count:300
    (QCheck.make
       ~print:(fun (init, ops) ->
         Printf.sprintf "%s; %s"
           (match init with None -> "create" | Some n -> Printf.sprintf "of_string %d" n)
           (String.concat "; " (List.map show_fop ops)))
       QCheck.Gen.(pair (opt gen_length) (list_size (1 -- 24) gen_fop)))
    (fun (init, ops) ->
      let d, m =
        match init with
        | None -> (Filedata.create (), Flat.of_string "")
        | Some n ->
          let s = text ~seed:7 n in
          (Filedata.of_string s, Flat.of_string s)
      in
      List.iteri
        (fun step op ->
          (match op with
           | W (pos, n) ->
             let s = text ~seed:step n in
             ignore (Filedata.write d ~pos s);
             Flat.write m ~pos s
           | R (pos, n) ->
             let buf = Bytes.make n '?' in
             let got = Filedata.read d ~pos buf ~off:0 ~len:n in
             if Bytes.sub_string buf 0 got <> Flat.read m ~pos n then
               QCheck.Test.fail_reportf "step %d: %s read differs" step
                 (show_fop op)
           | T n ->
             Filedata.truncate d n;
             Flat.truncate m n);
          if Filedata.to_string d <> Flat.contents m then
            QCheck.Test.fail_reportf "step %d: %s: contents differ (size %d, model %d)"
              step (show_fop op) (Filedata.size d) m.Flat.len)
        ops;
      true)

(* --- Pipebuf ------------------------------------------------------------ *)

let test_pipebuf_fifo =
  QCheck.Test.make ~name:"pipebuf preserves FIFO order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (string_of_size Gen.(0 -- 200)))
    (fun chunks ->
      let p = Pipebuf.create () in
      let written = Buffer.create 64 in
      let read_back = Buffer.create 64 in
      let buf = Bytes.create 256 in
      List.iter
        (fun chunk ->
          let n = Pipebuf.write p chunk ~pos:0 in
          Buffer.add_substring written chunk 0 n;
          (* drain roughly half to exercise wraparound *)
          let want = Pipebuf.available p / 2 in
          let got = Pipebuf.read p buf ~off:0 ~len:want in
          Buffer.add_subbytes read_back buf 0 got)
        chunks;
      let rec drain () =
        let got = Pipebuf.read p buf ~off:0 ~len:256 in
        if got > 0 then begin
          Buffer.add_subbytes read_back buf 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents read_back = Buffer.contents written)

let test_pipebuf_capacity () =
  let p = Pipebuf.create () in
  let big = String.make (Pipebuf.capacity + 100) 'x' in
  let n = Pipebuf.write p big ~pos:0 in
  Alcotest.(check int) "fills to capacity" Pipebuf.capacity n;
  Alcotest.(check int) "no room" 0 (Pipebuf.room p);
  Alcotest.(check int) "refuses more" 0 (Pipebuf.write p "y" ~pos:0)

(* The ring against a reference: a string queue capped at
   [Pipebuf.capacity].  A write carries [pos] bytes of prefix that must
   not be taken; a read lands at [off] in a buffer whose other bytes
   must stay untouched. *)
type pipe_op =
  | Write of string * int  (** data, pos *)
  | Read of int * int  (** len, off *)

let show_pipe_op = function
  | Write (s, pos) -> Printf.sprintf "write %d@%d" (String.length s - pos) pos
  | Read (len, off) -> Printf.sprintf "read %d@%d" len off

(* After every step: the count accepted or read, the bytes read,
   [available] and [room] all agree with the reference. *)
let pipebuf_agrees ops =
  let p = Pipebuf.create () in
  let q = ref "" in
  List.for_all
    (fun op ->
      let agrees =
        match op with
        | Write (data, pos) ->
          let n =
            min (String.length data - pos)
              (Pipebuf.capacity - String.length !q)
          in
          q := !q ^ String.sub data pos n;
          Pipebuf.write p data ~pos = n
        | Read (len, off) ->
          let n = min len (String.length !q) in
          let buf = Bytes.make (off + len + 1) '#' in
          let got = Pipebuf.read p buf ~off ~len in
          let want =
            String.make off '#' ^ String.sub !q 0 n
            ^ String.make (len + 1 - n) '#'
          in
          q := String.sub !q n (String.length !q - n);
          got = n && Bytes.to_string buf = want
      in
      agrees
      && Pipebuf.available p = String.length !q
      && Pipebuf.room p = Pipebuf.capacity - String.length !q)
    ops

(* Lengths that take the ring through every storage size s = 64, 128,
   .., 4096 and wrap it at each: with 3s/8 unread bytes lying across
   the end of the s/2 storage, fill to 3s/4 (a grow that copies a
   wrapped ring), read s/2, write s/2 (split at the end), read 5s/8
   (split too), write 3s/4, read 5s/8, write s/8, which leaves 3s/8
   across the end again.  Then fill to capacity and drain. *)
let staircase =
  let rec steps s carry =
    if s > Pipebuf.capacity then [ `W 5000; `R 5000 ]
    else
      [ `W (3 * s / 4 - carry); `R (s / 2); `W (s / 2); `R (5 * s / 8);
        `W (3 * s / 4); `R (5 * s / 8); `W (s / 8) ]
      @ steps (2 * s) (3 * s / 8)
  in
  steps 64 0

let gen_pipe_ops =
  let open QCheck.Gen in
  let len = frequency [ (3, 0 -- 100); (2, 0 -- 1000); (1, 0 -- 5000) ] in
  let write n pos = map (fun s -> Write (s, pos)) (string_size (return n)) in
  let read n = map (fun off -> Read (n, off)) (int_bound 16) in
  let random =
    list_size (0 -- 60)
      (oneof
         [ (len >>= fun n -> int_bound n >>= fun pos -> write n pos);
           (len >>= read) ])
  in
  let fixed =
    flatten_l
      (List.map
         (function
           | `W n -> int_bound 16 >>= fun pos -> write (pos + n) pos
           | `R n -> read n)
         staircase)
  in
  oneof [ random; map2 ( @ ) fixed random ]

let test_pipebuf_model =
  QCheck.Test.make ~name:"pipebuf matches a capped string queue" ~count:300
    (QCheck.make gen_pipe_ops
       ~print:(fun ops -> String.concat "; " (List.map show_pipe_op ops)))
    pipebuf_agrees

let test_pipebuf_endpoints () =
  let p = Pipebuf.create () in
  Pipebuf.add_reader p;
  Pipebuf.add_writer p;
  Pipebuf.add_writer p;
  Alcotest.(check (pair int int)) "counts" (1, 2)
    (Pipebuf.readers p, Pipebuf.writers p);
  Pipebuf.drop_writer p;
  Pipebuf.drop_writer p;
  Pipebuf.drop_writer p;
  Alcotest.(check int) "no negative" 0 (Pipebuf.writers p)

(* --- Fs fixtures ------------------------------------------------------------ *)

let user = { Fs.uid = 100; gid = 100 }
let other_user = { Fs.uid = 200; gid = 200 }

let make_fs () =
  let fs = Fs.create () in
  let root = Fs.root_ino fs in
  let cred = Fs.root_cred in
  ignore (check_ok "mkdir /tmp" (Fs.mkdir fs cred ~cwd:root "/tmp" ~perm:0o1777));
  ignore (check_ok "mkdir /home" (Fs.mkdir fs cred ~cwd:root "/home" ~perm:0o755));
  fs

let write_content fs path content =
  let root = Fs.root_ino fs in
  let inode, _ =
    check_ok ("create " ^ path)
      (Fs.open_lookup fs Fs.root_cred ~cwd:root path
         ~flags:Flags.Open.(o_wronly lor o_creat)
         ~perm:0o644)
  in
  match inode.Inode.kind with
  | Inode.Reg d -> ignore (Filedata.write d ~pos:0 content)
  | _ -> Alcotest.fail "not a regular file"

(* --- resolution ---------------------------------------------------------------- *)

let test_resolve_basic () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/f" "x";
  let inode = check_ok "resolve" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/f") in
  Alcotest.(check int) "size" 1 (Inode.size inode);
  check_err "missing" Errno.ENOENT
    (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/missing");
  check_err "through file" Errno.ENOTDIR
    (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/f/deeper")

let test_resolve_relative_and_dots () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore (check_ok "mkdir" (Fs.mkdir fs Fs.root_cred ~cwd:root "/home/u" ~perm:0o755));
  write_content fs "/home/u/f" "y";
  let home = check_ok "home" (Fs.resolve fs Fs.root_cred ~cwd:root "/home") in
  let via_rel =
    check_ok "relative" (Fs.resolve fs Fs.root_cred ~cwd:home.Inode.ino "u/f")
  in
  let via_dots =
    check_ok "dots"
      (Fs.resolve fs Fs.root_cred ~cwd:home.Inode.ino "../home/./u/f")
  in
  Alcotest.(check int) "same inode" via_rel.Inode.ino via_dots.Inode.ino

let test_symlink_follow () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/real" "data";
  ignore
    (check_ok "symlink"
       (Fs.symlink fs Fs.root_cred ~cwd:root ~target:"/tmp/real" "/tmp/lnk"));
  let followed = check_ok "follow" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/lnk") in
  Alcotest.(check bool) "regular" true
    (match followed.Inode.kind with Inode.Reg _ -> true | _ -> false);
  let nofollow =
    check_ok "nofollow"
      (Fs.resolve fs Fs.root_cred ~cwd:root ~follow_last:false "/tmp/lnk")
  in
  Alcotest.(check bool) "symlink itself" true
    (match nofollow.Inode.kind with Inode.Symlink _ -> true | _ -> false)

let test_symlink_relative_target () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/real" "data";
  ignore
    (check_ok "symlink"
       (Fs.symlink fs Fs.root_cred ~cwd:root ~target:"real" "/tmp/rel"));
  let inode = check_ok "resolve" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/rel") in
  Alcotest.(check int) "size" 4 (Inode.size inode)

let test_symlink_loop () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore
    (check_ok "a->b" (Fs.symlink fs Fs.root_cred ~cwd:root ~target:"/tmp/b" "/tmp/a"));
  ignore
    (check_ok "b->a" (Fs.symlink fs Fs.root_cred ~cwd:root ~target:"/tmp/a" "/tmp/b"));
  check_err "loop" Errno.ELOOP (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/a")

let test_name_too_long () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  let long = "/tmp/" ^ String.make 300 'n' in
  check_err "ENAMETOOLONG" Errno.ENAMETOOLONG
    (Fs.resolve fs Fs.root_cred ~cwd:root long)

let test_trailing_slash () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/f" "x";
  check_err "file with slash" Errno.ENOTDIR
    (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/f/");
  ignore (check_ok "dir with slash" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/"))

(* --- namespace operations --------------------------------------------------------- *)

let test_link_and_nlink () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/orig" "shared";
  ignore
    (check_ok "link" (Fs.link fs Fs.root_cred ~cwd:root ~existing:"/tmp/orig" "/tmp/alias"));
  let a = check_ok "a" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/orig") in
  let b = check_ok "b" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/alias") in
  Alcotest.(check int) "same inode" a.Inode.ino b.Inode.ino;
  Alcotest.(check int) "nlink 2" 2 a.Inode.nlink;
  ignore (check_ok "unlink" (Fs.unlink fs Fs.root_cred ~cwd:root "/tmp/orig"));
  Alcotest.(check int) "nlink 1" 1 b.Inode.nlink;
  ignore (check_ok "still reachable" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/alias"))

let test_unlink_with_open_refs () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/f" "z";
  let inode = check_ok "resolve" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/f") in
  let before = Fs.live_inodes fs in
  Fs.incr_opens fs inode.Inode.ino;
  ignore (check_ok "unlink" (Fs.unlink fs Fs.root_cred ~cwd:root "/tmp/f"));
  Alcotest.(check int) "kept while open" before (Fs.live_inodes fs);
  Fs.decr_opens fs inode.Inode.ino;
  Alcotest.(check int) "reclaimed after close" (before - 1) (Fs.live_inodes fs)

let test_rmdir_semantics () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore (check_ok "mkdir" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/d" ~perm:0o755));
  write_content fs "/tmp/d/f" "x";
  check_err "not empty" Errno.ENOTEMPTY (Fs.rmdir fs Fs.root_cred ~cwd:root "/tmp/d");
  ignore (check_ok "unlink" (Fs.unlink fs Fs.root_cred ~cwd:root "/tmp/d/f"));
  ignore (check_ok "rmdir" (Fs.rmdir fs Fs.root_cred ~cwd:root "/tmp/d"));
  check_err "gone" Errno.ENOENT (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/d");
  check_err "rmdir file" Errno.ENOTDIR
    (write_content fs "/tmp/f" "x";
     Fs.rmdir fs Fs.root_cred ~cwd:root "/tmp/f")

(* [Dots_table]'s rows on the VFS, in a fixture under /tmp/t. *)
let test_dots_table () =
  let fs = make_fs () in
  let cwd = Fs.root_ino fs and c = Fs.root_cred in
  let at = Dots_table.at "/tmp/t/" in
  List.iter
    (fun d -> ignore (check_ok "mkdir" (Fs.mkdir fs c ~cwd (at d) ~perm:0o755)))
    [ ""; "d"; "d/sub" ];
  write_content fs (at "f") "x";
  List.iter
    (fun (call, want) ->
      let got =
        match (call : Dots_table.call) with
        | Rmdir p -> Fs.rmdir fs c ~cwd (at p)
        | Rename (a, b) -> Fs.rename fs c ~cwd ~src:(at a) (at b)
        | Unlink p -> Fs.unlink fs c ~cwd (at p)
        | Mkdir p -> Result.map ignore (Fs.mkdir fs c ~cwd (at p) ~perm:0o755)
        | Link (a, b) -> Fs.link fs c ~cwd ~existing:(at a) (at b)
        | Symlink (target, p) -> Fs.symlink fs c ~cwd ~target (at p)
      in
      check_err (Dots_table.show call) want got)
    Dots_table.rows;
  List.iter
    (fun p -> ignore (check_ok ("kept " ^ p) (Fs.resolve fs c ~cwd (at p))))
    Dots_table.present;
  List.iter
    (fun p -> check_err ("no " ^ p) Errno.ENOENT (Fs.resolve fs c ~cwd (at p)))
    Dots_table.absent

(* [Creat_table]'s rows on the VFS, in a fixture under /tmp/t. *)
let test_creat_table () =
  let fs = make_fs () in
  let cwd = Fs.root_ino fs and c = Fs.root_cred in
  let at p = "/tmp/t/" ^ p in
  List.iter
    (fun d -> ignore (check_ok "mkdir" (Fs.mkdir fs c ~cwd (at d) ~perm:0o755)))
    ("" :: Creat_table.dirs);
  List.iter (fun f -> write_content fs (at f) "x") Creat_table.files;
  List.iter
    (fun (target, p) -> ignore (check_ok "symlink" (Fs.symlink fs c ~cwd ~target (at p))))
    Creat_table.links;
  List.iter
    (fun (call, want) ->
      let got =
        Fs.open_lookup fs c ~cwd (at (Creat_table.path call))
          ~flags:(Creat_table.flags call) ~perm:0o644
      in
      Alcotest.(check string) (Creat_table.show call)
        (Creat_table.outcome want)
        (Creat_table.outcome (Result.map ignore got)))
    Creat_table.rows;
  List.iter
    (fun p ->
      let st = check_ok ("created " ^ p) (Fs.stat_path fs c ~cwd ~follow:false (at p)) in
      Alcotest.(check int) ("regular " ^ p) Flags.Mode.ifreg
        (st.Stat.st_mode land Flags.Mode.ifmt))
    Creat_table.created;
  List.iter
    (fun p -> check_err ("no " ^ p) Errno.ENOENT (Fs.resolve fs c ~cwd (at p)))
    Creat_table.absent

let test_rename_file () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/a" "content";
  write_content fs "/tmp/b" "will be replaced";
  ignore (check_ok "rename" (Fs.rename fs Fs.root_cred ~cwd:root ~src:"/tmp/a" "/tmp/b"));
  check_err "a gone" Errno.ENOENT (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/a");
  let b = check_ok "b" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/b") in
  Alcotest.(check int) "content moved" 7 (Inode.size b)

let test_rename_dir_into_subtree () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore (check_ok "mkdir" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/d" ~perm:0o755));
  ignore (check_ok "mkdir2" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/d/sub" ~perm:0o755));
  check_err "into own subtree" Errno.EINVAL
    (Fs.rename fs Fs.root_cred ~cwd:root ~src:"/tmp/d" "/tmp/d/sub/d2")

let test_rename_dir_updates_dotdot () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore (check_ok "p1" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/p1" ~perm:0o755));
  ignore (check_ok "p2" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/p2" ~perm:0o755));
  ignore (check_ok "d" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/p1/d" ~perm:0o755));
  ignore
    (check_ok "rename" (Fs.rename fs Fs.root_cred ~cwd:root ~src:"/tmp/p1/d" "/tmp/p2/d"));
  let d = check_ok "resolve" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/p2/d") in
  let up = check_ok "dotdot" (Fs.resolve fs Fs.root_cred ~cwd:d.Inode.ino "..") in
  let p2 = check_ok "p2" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/p2") in
  Alcotest.(check int) "..->p2" p2.Inode.ino up.Inode.ino

let test_path_of_ino () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore (check_ok "deep" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/a" ~perm:0o755));
  ignore (check_ok "deep2" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/a/b" ~perm:0o755));
  let b = check_ok "b" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/a/b") in
  Alcotest.(check (option string)) "path" (Some "/tmp/a/b")
    (Fs.path_of_ino fs b.Inode.ino);
  Alcotest.(check (option string)) "root" (Some "/") (Fs.path_of_ino fs root)

(* --- permissions -------------------------------------------------------------------- *)

let test_permission_checks () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore (check_ok "mkdir" (Fs.mkdir fs Fs.root_cred ~cwd:root "/home/u" ~perm:0o700));
  (match Fs.resolve fs Fs.root_cred ~cwd:root "/home/u" with
   | Ok inode ->
     inode.Inode.uid <- user.Fs.uid;
     inode.Inode.gid <- user.Fs.gid
   | Error _ -> Alcotest.fail "setup");
  write_content fs "/home/u/secret" "s";
  (match Fs.resolve fs Fs.root_cred ~cwd:root "/home/u/secret" with
   | Ok inode ->
     inode.Inode.uid <- user.Fs.uid;
     inode.Inode.perm <- 0o600
   | Error _ -> Alcotest.fail "setup");
  (* owner can search and read *)
  ignore (check_ok "owner" (Fs.resolve fs user ~cwd:root "/home/u/secret"));
  (* others cannot search the 0700 directory *)
  check_err "no search" Errno.EACCES
    (Fs.resolve fs other_user ~cwd:root "/home/u/secret");
  (* root bypasses *)
  ignore (check_ok "root" (Fs.resolve fs Fs.root_cred ~cwd:root "/home/u/secret"))

let test_sticky_bit () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/mine" "m";
  (match Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/mine" with
   | Ok inode -> inode.Inode.uid <- user.Fs.uid
   | Error _ -> Alcotest.fail "setup");
  (* /tmp is 1777: another user may not remove someone else's file *)
  check_err "sticky denies" Errno.EACCES
    (Fs.unlink fs other_user ~cwd:root "/tmp/mine");
  ignore (check_ok "owner may" (Fs.unlink fs user ~cwd:root "/tmp/mine"))

let test_chmod_chown_rules () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/f" "x";
  (match Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/f" with
   | Ok inode -> inode.Inode.uid <- user.Fs.uid
   | Error _ -> Alcotest.fail "setup");
  ignore (check_ok "owner chmod" (Fs.chmod fs user ~cwd:root "/tmp/f" ~perm:0o600));
  check_err "other chmod" Errno.EPERM
    (Fs.chmod fs other_user ~cwd:root "/tmp/f" ~perm:0o777);
  check_err "non-root chown" Errno.EPERM
    (Fs.chown fs user ~cwd:root "/tmp/f" ~uid:other_user.Fs.uid ~gid:(-1));
  ignore
    (check_ok "root chown"
       (Fs.chown fs Fs.root_cred ~cwd:root "/tmp/f" ~uid:5 ~gid:5))

let test_open_lookup_semantics () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  let _, created =
    check_ok "creat"
      (Fs.open_lookup fs Fs.root_cred ~cwd:root "/tmp/new"
         ~flags:Flags.Open.(o_wronly lor o_creat) ~perm:0o644)
  in
  Alcotest.(check bool) "created" true created;
  let _, created2 =
    check_ok "reopen"
      (Fs.open_lookup fs Fs.root_cred ~cwd:root "/tmp/new"
         ~flags:Flags.Open.o_rdonly ~perm:0)
  in
  Alcotest.(check bool) "existing" false created2;
  check_err "excl" Errno.EEXIST
    (Fs.open_lookup fs Fs.root_cred ~cwd:root "/tmp/new"
       ~flags:Flags.Open.(o_wronly lor o_creat lor o_excl) ~perm:0o644);
  check_err "write a directory" Errno.EISDIR
    (Fs.open_lookup fs Fs.root_cred ~cwd:root "/tmp"
       ~flags:Flags.Open.o_wronly ~perm:0)

(* O_CREAT|O_EXCL does not follow a final symlink, so a dangling one
   is a name that exists (EEXIST, as on Linux) and nothing is created;
   plain O_CREAT follows it and creates the target. *)
let test_excl_dangling_symlink () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  ignore
    (check_ok "symlink"
       (Fs.symlink fs Fs.root_cred ~cwd:root ~target:"/tmp/absent"
          "/tmp/dangling"));
  check_err "excl" Errno.EEXIST
    (Fs.open_lookup fs Fs.root_cred ~cwd:root "/tmp/dangling"
       ~flags:Flags.Open.(o_wronly lor o_creat lor o_excl) ~perm:0o644);
  check_err "target not created" Errno.ENOENT
    (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/absent");
  let inode, created =
    check_ok "creat"
      (Fs.open_lookup fs Fs.root_cred ~cwd:root "/tmp/dangling"
         ~flags:Flags.Open.(o_wronly lor o_creat) ~perm:0o644)
  in
  Alcotest.(check bool) "created" true created;
  let target = check_ok "target" (Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/absent") in
  Alcotest.(check int) "the target" target.Inode.ino inode.Inode.ino

(* A randomised workout: create a tree of files, then verify that every
   created path resolves and that directory listings agree. *)
let test_random_tree =
  QCheck.Test.make ~name:"random tree resolves" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let fs = Fs.create () in
      let root = Fs.root_ino fs in
      let dirs = ref [ "" ] in
      let files = ref [] in
      for i = 0 to 30 do
        let parent = Sim.Rng.pick rng (Array.of_list !dirs) in
        if Sim.Rng.bool rng then begin
          let d = Printf.sprintf "%s/d%d" parent i in
          match Fs.mkdir fs Fs.root_cred ~cwd:root d ~perm:0o755 with
          | Ok _ -> dirs := d :: !dirs
          | Error _ -> ()
        end
        else begin
          let f = Printf.sprintf "%s/f%d" parent i in
          match
            Fs.open_lookup fs Fs.root_cred ~cwd:root f
              ~flags:Flags.Open.(o_wronly lor o_creat) ~perm:0o644
          with
          | Ok _ -> files := f :: !files
          | Error _ -> ()
        end
      done;
      List.for_all
        (fun p -> Result.is_ok (Fs.resolve fs Fs.root_cred ~cwd:root p))
        (List.filter (( <> ) "") (!dirs @ !files))
      && List.for_all
           (fun d ->
             d = ""
             ||
             match Fs.path_of_ino fs
                     ((check_ok "r" (Fs.resolve fs Fs.root_cred ~cwd:root d))
                        .Inode.ino)
             with
             | Some p -> p = d
             | None -> false)
           !dirs)

(* --- namei against the list-walking reference ------------------------------------ *)

let namei_names = [| "a"; "b"; "f"; "s"; "t" |]

(* A small tree built as root from [rng]: directories with modes an
   unprivileged caller may or may not search, files, and absolute,
   relative, dangling and looping symlinks.  Returns the fs and its
   directories' inos. *)
let namei_tree rng =
  let fs = Fs.create () in
  let root = Fs.root_ino fs in
  let dirs = ref [ "" ] and made = ref [ "/" ] in
  for _ = 1 to 16 do
    let parent = Sim.Rng.pick rng (Array.of_list !dirs) in
    let path = parent ^ "/" ^ Sim.Rng.pick rng namei_names in
    let ok = function Ok _ -> made := path :: !made | Error _ -> () in
    let symlink target =
      ok (Fs.symlink fs Fs.root_cred ~cwd:root ~target path)
    in
    match Sim.Rng.int rng 7 with
    | 0 | 1 ->
      let perm = Sim.Rng.pick rng [| 0o755; 0o755; 0o700; 0o711; 0o744 |] in
      (match Fs.mkdir fs Fs.root_cred ~cwd:root path ~perm with
       | Ok _ -> dirs := path :: !dirs; made := path :: !made
       | Error _ -> ())
    | 2 ->
      ok (Fs.open_lookup fs Fs.root_cred ~cwd:root path
            ~flags:Flags.Open.(o_wronly lor o_creat) ~perm:0o644)
    | 3 -> symlink (Sim.Rng.pick rng (Array.of_list !made))
    | 4 ->
      symlink
        (Sim.Rng.pick rng [| "."; ".."; "a"; "../f"; "a/b/"; ""; "/"; "s" |])
    | 5 -> symlink (Sim.Rng.pick rng [| "/nowhere"; "missing/x"; "f/x" |])
    | _ ->
      (* a link to itself, or to a name that may link back *)
      symlink (Sim.Rng.pick rng [| path; parent ^ "/s"; parent ^ "/t" |])
  done;
  let dir_inos =
    List.filter_map
      (fun d ->
        match Fs.resolve fs Fs.root_cred ~cwd:root (if d = "" then "/" else d) with
        | Ok i when Inode.is_dir i -> Some i.Inode.ino
        | _ -> None)
      !dirs
  in
  (fs, Array.of_list dir_inos)

(* Paths over the tree's names, ".", ".." and a missing name, joined by
   one or two slashes, absolute or relative, with or without a trailing
   slash; now and then a name longer than [max_name], a path longer
   than [max_path], or a path of slashes and dots only. *)
let namei_path rng =
  match Sim.Rng.int rng 16 with
  | 0 -> "/a/" ^ String.make 256 'n'
  | 1 -> String.concat "/" (List.init 520 (fun _ -> "a"))
  | 2 -> Sim.Rng.pick rng [| ""; "/"; "//"; "."; ".."; "./"; "../"; "/." |]
  | _ ->
    let comps =
      List.init (Sim.Rng.int rng 5) (fun _ ->
          match Sim.Rng.int rng 8 with
          | 0 -> "."
          | 1 -> ".."
          | 2 -> "missing"
          | _ -> Sim.Rng.pick rng namei_names)
    in
    let sep () = if Sim.Rng.int rng 4 = 0 then "//" else "/" in
    let body =
      List.fold_left
        (fun acc c -> if acc = "" then c else acc ^ sep () ^ c)
        "" comps
    in
    (if Sim.Rng.bool rng then "/" else "")
    ^ body
    ^ (match Sim.Rng.int rng 4 with 0 -> "/" | 1 -> "//" | _ -> "")

let test_namei_matches_reference =
  QCheck.Test.make ~name:"resolve and resolve_parent = the list walker"
    ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let fs, dirs = namei_tree rng in
      let same what path got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s %S: got %s, reference %s" what path
            got want
      in
      let show = function
        | Ok (i : Inode.t) -> Printf.sprintf "ino %d" i.ino
        | Error e -> Errno.name e
      in
      let show_parent = function
        | Ok ((i : Inode.t), name, slash) ->
          Printf.sprintf "ino %d, %S, %b" i.ino name slash
        | Error e -> Errno.name e
      in
      for _ = 1 to 40 do
        let path = namei_path rng in
        let cwd = Sim.Rng.pick rng dirs in
        List.iter
          (fun cred ->
            List.iter
              (fun follow_last ->
                same "resolve" path
                  (show (Fs.resolve fs cred ~cwd ~follow_last path))
                  (show (Namei_ref.resolve fs cred ~cwd ~follow_last path)))
              [ true; false ];
            same "resolve_parent" path
              (show_parent (Fs.resolve_parent fs cred ~cwd path))
              (show_parent (Namei_ref.resolve_parent fs cred ~cwd path)))
          [ Fs.root_cred; user ]
      done;
      true)

(* --- fsck ---------------------------------------------------------------- *)

let fsck_clean what fs =
  match Fs.fsck fs with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "%s: fsck found: %s" what (String.concat "; " problems)

let test_fsck_on_fresh_and_built () =
  let fs = make_fs () in
  fsck_clean "fresh" fs;
  let root = Fs.root_ino fs in
  ignore (check_ok "d" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/d" ~perm:0o755));
  ignore (check_ok "d2" (Fs.mkdir fs Fs.root_cred ~cwd:root "/tmp/d/e" ~perm:0o755));
  write_content fs "/tmp/d/file" "x";
  ignore (check_ok "ln" (Fs.link fs Fs.root_cred ~cwd:root ~existing:"/tmp/d/file" "/tmp/alias"));
  ignore (check_ok "sym" (Fs.symlink fs Fs.root_cred ~cwd:root ~target:"/tmp/d" "/tmp/s"));
  fsck_clean "after building" fs;
  ignore (check_ok "rm" (Fs.unlink fs Fs.root_cred ~cwd:root "/tmp/alias"));
  ignore (check_ok "mv" (Fs.rename fs Fs.root_cred ~cwd:root ~src:"/tmp/d/e" "/tmp/e"));
  ignore (check_ok "rmdir" (Fs.rmdir fs Fs.root_cred ~cwd:root "/tmp/e"));
  fsck_clean "after mutations" fs

let test_fsck_detects_corruption () =
  let fs = make_fs () in
  let root = Fs.root_ino fs in
  write_content fs "/tmp/f" "x";
  (match Fs.resolve fs Fs.root_cred ~cwd:root "/tmp/f" with
   | Ok inode -> inode.Inode.nlink <- 5  (* corrupt the link count *)
   | Error _ -> Alcotest.fail "setup");
  (match Fs.fsck fs with
   | Ok () -> Alcotest.fail "corruption not detected"
   | Error problems ->
     Alcotest.(check bool) "names the inode" true
       (List.exists
          (fun p ->
            let needle = "nlink 5" in
            let nl = String.length needle in
            let rec search i =
              i + nl <= String.length p
              && (String.sub p i nl = needle || search (i + 1))
            in
            search 0)
          problems))

let test_fsck_random_tree =
  QCheck.Test.make ~name:"fsck clean after random namespace ops" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let fs = Fs.create () in
      let root = Fs.root_ino fs in
      let dirs = ref [ "" ] in
      let files = ref [] in
      for i = 0 to 40 do
        let parent = Sim.Rng.pick rng (Array.of_list !dirs) in
        match Sim.Rng.int rng 5 with
        | 0 ->
          let d = Printf.sprintf "%s/d%d" parent i in
          (match Fs.mkdir fs Fs.root_cred ~cwd:root d ~perm:0o755 with
           | Ok _ -> dirs := d :: !dirs
           | Error _ -> ())
        | 1 | 2 ->
          let f = Printf.sprintf "%s/f%d" parent i in
          (match
             Fs.open_lookup fs Fs.root_cred ~cwd:root f
               ~flags:Flags.Open.(o_wronly lor o_creat) ~perm:0o644
           with
           | Ok _ -> files := f :: !files
           | Error _ -> ())
        | 3 ->
          (match !files with
           | f :: rest when Sim.Rng.bool rng ->
             (match Fs.unlink fs Fs.root_cred ~cwd:root f with
              | Ok () -> files := rest
              | Error _ -> ())
           | _ -> ())
        | _ ->
          (match !files with
           | f :: _ ->
             let l = Printf.sprintf "%s/l%d" parent i in
             (match Fs.link fs Fs.root_cred ~cwd:root ~existing:f l with
              | Ok () -> files := l :: !files
              | Error _ -> ())
           | [] -> ())
      done;
      Fs.fsck fs = Ok ())

let () =
  Alcotest.run "vfs"
    [ "filedata",
      [ qtest test_filedata_roundtrip;
        Alcotest.test_case "sparse" `Quick test_filedata_sparse;
        Alcotest.test_case "truncate" `Quick test_filedata_truncate;
        qtest test_filedata_matches_flat ];
      "pipebuf",
      [ qtest test_pipebuf_fifo;
        Alcotest.test_case "capacity" `Quick test_pipebuf_capacity;
        Alcotest.test_case "endpoints" `Quick test_pipebuf_endpoints;
        qtest test_pipebuf_model ];
      "resolve",
      [ Alcotest.test_case "basic" `Quick test_resolve_basic;
        Alcotest.test_case "relative + dots" `Quick
          test_resolve_relative_and_dots;
        Alcotest.test_case "symlink follow" `Quick test_symlink_follow;
        Alcotest.test_case "symlink relative" `Quick
          test_symlink_relative_target;
        Alcotest.test_case "symlink loop" `Quick test_symlink_loop;
        Alcotest.test_case "name too long" `Quick test_name_too_long;
        Alcotest.test_case "trailing slash" `Quick test_trailing_slash;
        qtest test_namei_matches_reference ];
      "namespace",
      [ Alcotest.test_case "link/nlink" `Quick test_link_and_nlink;
        Alcotest.test_case "unlink with opens" `Quick
          test_unlink_with_open_refs;
        Alcotest.test_case "rmdir" `Quick test_rmdir_semantics;
        Alcotest.test_case "dots and empty targets, as Linux" `Quick
          test_dots_table;
        Alcotest.test_case "O_CREAT through symlinks, as Linux" `Quick
          test_creat_table;
        Alcotest.test_case "rename file" `Quick test_rename_file;
        Alcotest.test_case "rename into subtree" `Quick
          test_rename_dir_into_subtree;
        Alcotest.test_case "rename updates .." `Quick
          test_rename_dir_updates_dotdot;
        Alcotest.test_case "path_of_ino" `Quick test_path_of_ino;
        Alcotest.test_case "open_lookup" `Quick test_open_lookup_semantics;
        Alcotest.test_case "excl through a dangling symlink" `Quick
          test_excl_dangling_symlink;
        qtest test_random_tree ];
      "fsck",
      [ Alcotest.test_case "fresh + built" `Quick
          test_fsck_on_fresh_and_built;
        Alcotest.test_case "detects corruption" `Quick
          test_fsck_detects_corruption;
        qtest test_fsck_random_tree ];
      "permissions",
      [ Alcotest.test_case "search/read" `Quick test_permission_checks;
        Alcotest.test_case "sticky" `Quick test_sticky_bit;
        Alcotest.test_case "chmod/chown" `Quick test_chmod_chown_rules ] ]
