(** Incremental drain of a flight-recorder ring (DESIGN.md §3.9).

    A {!cursor} tracks its position in the ring's monotone push
    counter, so repeated {!poll}s deliver every record exactly once:
    no double delivery when records stay live, and records the window
    lost before the poll (overwritten, or removed by a full
    [Obs.drain]) are counted rather than re-read.  Polling never
    mutates the ring — any number of cursors can tail one engine.
    The stream is sampler-consistent: it sees exactly the records the
    recorder kept. *)

type cursor

val cursor : unit -> cursor
(** A fresh cursor positioned at the start of history (records still
    live in the ring are delivered on the first poll; older ones
    count as lost). *)

val poll : cursor -> 'a Ring.t -> 'a list * int
(** [(fresh, lost)]: records pushed since the last poll that are
    still live (oldest first), and how many were lost to overwrite or
    an interleaved drain.  Advances the cursor past both. *)
