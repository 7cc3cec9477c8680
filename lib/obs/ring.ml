(* Fixed-size flight-recorder ring: wait-free single-writer append,
   oldest entry overwritten when full.  The simulator is single-domain,
   so "lock-free" here means no synchronisation is needed at all: a
   push is one array store and three integer updates, cheap enough to
   sit on the trap path.

   Slots hold records unboxed: [stored] and [next] alone say which
   slots are live, so a slot needs no [None] to mark it empty.  The
   array is made at the first push, from the record pushed, and let go
   by [clear]: a ring that never records holds no slots, and a cleared
   one keeps no dead record reachable. *)

type 'a t = {
  capacity : int;
  mutable slots : 'a array; (* [||], or [capacity] slots *)
  mutable next : int;    (* next write position *)
  mutable stored : int;  (* live entries, <= capacity *)
  mutable dropped : int; (* overwritten-before-drained count *)
  mutable pushed : int;  (* total pushes ever; survives clear/drain so
                            stream cursors keep a stable coordinate *)
}

let create ~capacity =
  { capacity = max 1 capacity; slots = [||]; next = 0; stored = 0;
    dropped = 0; pushed = 0 }

let capacity t = t.capacity
let length t = t.stored
let dropped t = t.dropped
let pushed t = t.pushed

let push t x =
  if Array.length t.slots = 0 then
    t.slots <- Array.make t.capacity x;
  if t.stored = t.capacity then t.dropped <- t.dropped + 1
  else t.stored <- t.stored + 1;
  t.slots.(t.next) <- x;
  t.next <- (if t.next + 1 = t.capacity then 0 else t.next + 1);
  t.pushed <- t.pushed + 1

let to_list t =
  let cap = t.capacity in
  let start = (t.next - t.stored + cap) mod cap in
  let acc = ref [] in
  for i = t.stored - 1 downto 0 do
    acc := t.slots.((start + i) mod cap) :: !acc
  done;
  !acc

let clear t =
  t.slots <- [||];
  t.next <- 0;
  t.stored <- 0;
  t.dropped <- 0

let drain t =
  let xs = to_list t in
  clear t;
  xs
