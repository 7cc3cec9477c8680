(* Incremental, no-double-delivery reads of a flight-recorder ring
   (DESIGN.md §3.9).

   A cursor remembers its position in *push order* — the ring's
   monotone [pushed] counter — not in ring slots, so polling delivers
   each record at most once no matter how the window moves underneath:
   records overwritten (or drained/cleared by another reader) before
   the cursor reached them are counted as lost, never re-delivered.
   The cursor sees exactly what the ring sees, so a sampled engine
   streams the same 1-in-N subset the recorder keeps.

   Cursors are plain caller-owned values (one per follower); the ring
   itself is never mutated by a poll, so any number of cursors — the
   [--follow] printer, an open [/obs/stream] file, tests — can tail
   the same engine independently. *)

type cursor = { mutable c_pos : int }

let cursor () = { c_pos = 0 }

let poll c ring =
  let pushed = Ring.pushed ring in
  (* a position beyond the counter means the ring object was replaced
     (reconfigured) under us: restart from its beginning *)
  if c.c_pos > pushed then c.c_pos <- 0;
  let live = Ring.length ring in
  let oldest = pushed - live in
  let lost = max 0 (oldest - c.c_pos) in
  let fresh =
    if pushed = c.c_pos then []
    else
      let skip = max 0 (c.c_pos - oldest) in
      let rec drop n l = if n <= 0 then l else match l with
        | [] -> []
        | _ :: tl -> drop (n - 1) tl
      in
      drop skip (Ring.to_list ring)
  in
  c.c_pos <- pushed;
  (fresh, lost)
