(* Packed bitsets over a fixed universe [0, len).  One byte holds eight
   numbers, so the whole syscall table fits in a few words and the hot
   membership test is a single load + AND. *)

type t = { bits : Bytes.t; len : int }

let create len =
  if len < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((len + 7) lsr 3) '\000'; len }

let mem t i =
  i >= 0 && i < t.len
  && Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7))
     <> 0

let set t i =
  if i >= 0 && i < t.len then begin
    let byte = i lsr 3 in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))
  end

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if mem t i then i :: acc else acc) in
  go (t.len - 1) []

let iter f t =
  for i = 0 to t.len - 1 do
    if mem t i then f i
  done
