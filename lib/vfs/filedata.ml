(* A regular file's bytes in 4.3BSD's fast-file-system layout: fixed
   blocks of [block] bytes.  Block 0 is a fragment that starts at 64
   bytes and doubles up to one block.  Every later block is allocated
   whole the first time a write touches it and is never copied as the
   file grows; a block no write has touched since the file last
   reached it is [hole] and reads as zeros.

   While the file fits block 0, [data] is that fragment itself, a
   [Bytes.t]; once a write reaches past it, [data] is the table of
   every block, a [Bytes.t array] whose slot 0 holds the fragment.  The
   two forms share one field, told apart by the block's tag, so a file
   of one block costs what a single growable array does: no table and
   no word more.  Only [is_table], [frag] and [table] look at the
   field's representation.

   Invariant: every stored byte at or past [len] is zero, so growing
   the file (a write past EOF, a truncate upward) fills nothing, and
   only a shrinking truncate clears bytes. *)

let block = 4096

(* Typed at int, so a read or a write compares offsets inline rather
   than through the polymorphic compare. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

(* An unallocated block: reads past a block's storage give zeros. *)
let hole = Bytes.empty

type t = {
  mutable data : Obj.t;  (* the fragment, or the block table *)
  mutable len : int;     (* logical size *)
}

let is_table d = Obj.tag d <> Obj.string_tag
let frag d : Bytes.t = Obj.obj d
let table d : Bytes.t array = Obj.obj d

let create () = { data = Obj.repr (Bytes.make 64 '\000'); len = 0 }

let size t = t.len

(* Block [i]'s storage, [hole] past the table. *)
let get t i =
  let d = t.data in
  if is_table d then begin
    let tb = table d in
    if i < Array.length tb then tb.(i) else hole
  end
  else if i = 0 then frag d
  else hole

(* [n] bytes from file offset [pos] into [buf] at [off], block by
   block; top level, so a read allocates no closure. *)
let rec read_blocks t pos buf off n =
  if n > 0 then begin
    let b = get t (pos / block) and o = pos mod block in
    let k = min n (block - o) in
    let have = max 0 (min k (Bytes.length b - o)) in
    if have > 0 then Bytes.blit b o buf off have;
    if have < k then Bytes.fill buf (off + have) (k - have) '\000';
    read_blocks t (pos + k) buf (off + k) (n - k)
  end

let read t ~pos buf ~off ~len =
  if pos >= t.len || len <= 0 then 0
  else begin
    let n = min len (t.len - pos) in
    read_blocks t pos buf off n;
    n
  end

(* The fragment [b], grown if need be to hold its first [upto] bytes:
   it doubles from 64 bytes, to at most one block. *)
let grow_frag b upto =
  let cap = Bytes.length b in
  if upto <= cap then b
  else begin
    let nb = Bytes.make (min block (max upto (max 64 (2 * cap)))) '\000' in
    Bytes.blit b 0 nb 0 cap;
    nb
  end

(* The block table, made or doubled so it has a slot [i]. *)
let table_with t i =
  let d = t.data in
  if is_table d && i < Array.length (table d) then table d
  else begin
    let n = if is_table d then Array.length (table d) else 1 in
    let tb = Array.make (max (i + 1) (2 * n)) hole in
    if is_table d then Array.blit (table d) 0 tb 0 n else tb.(0) <- frag d;
    t.data <- Obj.repr tb;
    tb
  end

(* Block [i]'s storage, allocated so it holds its first [upto] bytes. *)
let storage t i upto =
  let d = t.data in
  if i = 0 && not (is_table d) then begin
    let b = frag d in
    let nb = grow_frag b upto in
    if nb != b then t.data <- Obj.repr nb;
    nb
  end
  else begin
    let tb = table_with t i in
    let b = tb.(i) in
    let nb =
      if i = 0 then grow_frag b upto
      else if b == hole then Bytes.make block '\000'
      else b
    in
    if nb != b then tb.(i) <- nb;
    nb
  end

let rec write_blocks t pos data doff n =
  if n > 0 then begin
    let i = pos / block and o = pos mod block in
    let k = min n (block - o) in
    Bytes.blit_string data doff (storage t i (o + k)) o k;
    write_blocks t (pos + k) data (doff + k) (n - k)
  end

let write t ~pos data =
  let n = String.length data in
  write_blocks t pos data 0 n;
  if n > 0 && pos + n > t.len then t.len <- pos + n;
  n

let of_string s =
  let n = String.length s in
  if n <= block then { data = Obj.repr (Bytes.of_string s); len = n }
  else begin
    let tb = Array.make (((n - 1) / block) + 1) hole in
    tb.(0) <- Bytes.sub (Bytes.unsafe_of_string s) 0 block;
    let t = { data = Obj.repr tb; len = n } in
    write_blocks t block s block (n - block);
    t
  end

let to_string t =
  let b = Bytes.create t.len in
  read_blocks t 0 b 0 t.len;
  Bytes.unsafe_to_string b

let truncate t n =
  let n = max 0 n in
  if n < t.len then begin
    (* clear the tail of the block holding offset [n], unless [n]
       starts a later block, which goes with the others past it *)
    let i = n / block and o = n mod block in
    if i = 0 || o > 0 then begin
      let b = get t i in
      let stop = min (Bytes.length b) (t.len - (i * block)) in
      if o < stop then Bytes.fill b o (stop - o) '\000'
    end;
    let d = t.data in
    if is_table d then begin
      let tb = table d and keep = (n + block - 1) / block in
      if keep <= 1 then t.data <- Obj.repr tb.(0)
      else if keep < Array.length tb then
        t.data <- Obj.repr (Array.sub tb 0 keep)
    end
  end;
  t.len <- n
