let capacity = 4096

(* The ring's storage is taken as unread bytes need it, the way 4.3BSD
   took mbufs as data arrived: it starts empty, doubles from
   [first_size] when a write needs the room, and stops at [capacity],
   which stays the one limit.  It is never shrunk, so a channel that
   drains and refills does not allocate again. *)
let first_size = 64

type t = {
  mutable data : Bytes.t;
  mutable head : int;        (* next byte to read *)
  mutable used : int;
  mutable written : int;     (* bytes ever written *)
  mutable readers : int;
  mutable writers : int;
  mutable stamps : Obs.stamps;
}

let create () =
  { data = Bytes.empty; head = 0; used = 0; written = 0; readers = 0;
    writers = 0; stamps = Obs.no_stamps }

let available t = t.used
let written t = t.written
let consumed t = t.written - t.used
let stamps t = t.stamps
let set_stamps t s = t.stamps <- s
let room t = capacity - t.used

(* [i] taken round the end of the storage, for [i] below twice its
   length *)
let wrap t i = if i >= Bytes.length t.data then i - Bytes.length t.data else i

(* Copy the [n] oldest unread bytes into [dst] at [off]: one blit up to
   the storage's end, a second from its front when they wrap. *)
let copy_out t dst off n =
  let first = min n (Bytes.length t.data - t.head) in
  Bytes.blit t.data t.head dst off first;
  Bytes.blit t.data 0 dst (off + first) (n - first)

(* Grow the storage to hold [need] bytes; the unread ones move to its
   front. *)
let grow t need =
  let size = ref (max first_size (2 * Bytes.length t.data)) in
  while !size < need do size := 2 * !size done;
  let data = Bytes.create (min !size capacity) in
  copy_out t data 0 t.used;
  t.data <- data;
  t.head <- 0

let write t data ~pos =
  let n = min (String.length data - pos) (room t) in
  if n > 0 then begin
    if t.used + n > Bytes.length t.data then grow t (t.used + n);
    let tail = wrap t (t.head + t.used) in
    let first = min n (Bytes.length t.data - tail) in
    Bytes.blit_string data pos t.data tail first;
    Bytes.blit_string data (pos + first) t.data 0 (n - first);
    t.used <- t.used + n;
    t.written <- t.written + n
  end;
  n

let read t buf ~off ~len =
  let n = min len t.used in
  if n > 0 then begin
    copy_out t buf off n;
    t.head <- wrap t (t.head + n);
    t.used <- t.used - n
  end;
  n

let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1
let drop_reader t = t.readers <- max 0 (t.readers - 1)
let drop_writer t = t.writers <- max 0 (t.writers - 1)
let readers t = t.readers
let writers t = t.writers
