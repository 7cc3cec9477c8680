(* Decode-once call envelopes: the wire vector and its typed decoding
   travel the stack together, each materialized at most once. *)

(* Which view the record holds.  Every constructor is constant, so the
   state is an immediate and storing it costs no write barrier. *)
type view =
  | Undecoded
  | Typed
  | Failed

type t = {
  mutable num : int;
      (* Mutable only so a pooled record can be refilled in place; no
         code path changes the number of a live envelope. *)
  mutable wire : Value.wire option;
      (* [None] until a wire is built: on a [Typed] view that is the
         dirty state, unless [implied] says the wire is the
         boundary's, counted and not yet needed. *)
  mutable view : view;
  mutable call : Call.t;
      (* The typed view when [view = Typed]; [no_call] otherwise.  The
         call sits in the record itself, not in a box around it, so
         filling a record is one pointer store and scrubbing it one
         more, and neither allocates. *)
  mutable errno : Errno.t;
      (* The memoized decode failure when [view = Failed]. *)
  mutable implied : bool;
      (* A boundary envelope: its wire is [Call.encode] of the [Typed]
         view, already counted at the boundary, so building it on
         demand counts nothing. *)
  mutable pending : bool;
      (* A boundary envelope whose decode is not counted yet: the view
         holds the application's call, but no layer has read it. *)
  mutable span : int;
      (* Obs span this envelope's codec work attributes to; 0 when
         tracing is off or the envelope is born outside any trap. *)
  mutable exposed : bool;
      (* Set once the raw wire has been handed out ([wire]/[peek_wire]):
         an agent may have kept the reference, so the record can no
         longer be recycled. *)
  mutable retained : bool;
      (* The escape hatch of the pooling contract: an agent that stashes
         the envelope past the trap boundary calls [retain], and
         [release] then leaves the whole record to the GC. *)
  mutable home : pool option;
      (* The pool the record came from, when [at_boundary]/[of_call]
         took it from one; cleared by [release] so a record recycles at
         most once. *)
}

(* The free list lives in the same recursive knot as [t] (a record
   points back at its home pool). *)
and pool = {
  mutable stack : t array;
  mutable len : int;
  capacity : int;
}

(* What the [call] field holds while the view is not [Typed]: never
   read, and a constant, so it pins nothing. *)
let no_call = Call.Sync

(* Per-process free lists of envelope records.  The free list only
   ever receives records whose trap owned them exclusively ([release]
   enforces the exposed/retained rules), and every recycled record is
   scrubbed, so a stale view, wire, argument or span can neither leak
   into the next trap nor pin dead objects against the GC. *)
module Pool = struct
  type nonrec t = pool

  let blank () =
    { num = 0; wire = None; view = Undecoded; call = no_call;
      errno = Errno.ENOSYS; implied = false; pending = false; span = 0;
      exposed = false; retained = false; home = None }

  let dummy = blank ()

  (* Array-backed stack rather than a list: a warm take/recycle pair
     must allocate nothing at all.  It starts empty and doubles up to
     [capacity] as records come back, so a process pays for the slots
     it recycles into, not for the cap. *)
  let create ?(capacity = 64) () =
    if capacity < 0 then invalid_arg "Envelope.Pool.create";
    { stack = [||]; len = 0; capacity }

  let grow p =
    let n = min p.capacity (max 1 (2 * Array.length p.stack)) in
    let stack = Array.make n dummy in
    Array.blit p.stack 0 stack 0 p.len;
    p.stack <- stack

  let size p = p.len

  (* Invariant: every record on the free list is scrubbed (the state
     [blank] builds), so [take] only refills the fields the new trap
     needs. *)
  let take p =
    if p.len = 0 then begin
      Obs.note_pool_miss ();
      blank ()
    end
    else begin
      p.len <- p.len - 1;
      let e = p.stack.(p.len) in
      p.stack.(p.len) <- dummy;
      Obs.note_pool_hit ();
      e
    end

  let recycle p e =
    if p.len >= p.capacity then Obs.note_pool_dropped ()
    else begin
      e.num <- 0;
      e.wire <- None;
      e.view <- Undecoded;
      e.call <- no_call;
      e.implied <- false;
      e.pending <- false;
      e.span <- 0;
      e.exposed <- false;
      e.retained <- false;
      e.home <- None;
      if p.len = Array.length p.stack then grow p;
      p.stack.(p.len) <- e;
      p.len <- p.len + 1;
      Obs.note_pool_recycled ()
    end
end

(* No envelope: what a process serves outside any symbolic dispatch.
   Never filled, released or read for its views; [held] sees
   [no_call]. *)
let none = Pool.dummy

let of_wire w =
  { num = w.Value.num; wire = Some w; view = Undecoded; call = no_call;
    errno = Errno.ENOSYS; implied = false; pending = false;
    span = Obs.current (); exposed = true; retained = false; home = None }

(* A record for a typed call: off the free list with [pool], which it
   then goes back to on [release], and fresh without.  The record off
   the free list is scrubbed, so only what this trap needs is filled;
   [home = pool] shares the caller's option — a fresh [Some] per trap
   would undo part of what the pool saves. *)
let typed_record pool c span =
  let t = match pool with Some p -> Pool.take p | None -> Pool.blank () in
  t.num <- Call.number c;
  t.view <- Typed;
  t.call <- c;
  t.span <- span;
  t.home <- pool;
  t

let of_call ?pool c = typed_record pool c (Obs.current ())

let at_boundary ?pool c =
  (* The application/system boundary is the untyped numeric form, and
     its encode is counted here, at the boundary.  The record keeps the
     application's call instead of the vector: [typed] counts the
     decode the first layer to read it would do and hands the call
     back, and [wire] builds the vector only if some layer reads it.
     [decode (encode c)] is [c] with its refs and buffers shared, so
     no layer can tell the two apart. *)
  let span = Obs.current () in
  Obs.note_encode span;
  let t = typed_record pool c span in
  t.implied <- true;
  t.pending <- true;
  t

let retain t = t.retained <- true
let retained t = t.retained

let release t =
  (* Recycle only what this envelope still owns exclusively.  A
     [retain]ed envelope was stashed past the trap boundary by some
     layer (trace sink, journal): leave record and wire alone — the
     stash must stay readable — and let the GC have them eventually.
     Otherwise the record recycles when it came from a pool and its
     raw wire was never handed out (which covers every rewrite: a
     dirty envelope's wire is built only when some layer forces it).
     The recycle scrub drops the record's view and wire, so a released
     envelope fails loudly (assert in [call]) rather than silently
     reading the next trap's arguments. *)
  match t.home with
  | Some p when not t.retained ->
    t.home <- None;
    if not t.exposed then Pool.recycle p t
  | Some _ | None -> ()

let span t = t.span
let set_span t s = t.span <- s

let number t = t.num

exception Undecodable of Errno.t

(* The memoized view itself, not a result boxed around it: every layer
   below the first decode reads the stored [Call.t] without allocating.
   A failed decode is memoized too and re-raised on each read. *)
let typed t =
  match t.view with
  | Typed ->
    if t.pending then begin
      (* a boundary envelope's first read: the decode it stands for *)
      t.pending <- false;
      Obs.note_decode t.span
    end;
    t.call
  | Failed -> raise_notrace (Undecodable t.errno)
  | Undecoded -> (
    let w =
      match t.wire with
      | Some w -> w
      | None -> assert false (* Undecoded implies a wire form exists *)
    in
    Obs.note_decode t.span;
    match Call.decode w with
    | Ok c ->
      t.view <- Typed;
      t.call <- c;
      c
    | Error e ->
      t.view <- Failed;
      t.errno <- e;
      raise_notrace (Undecodable e))

(* [call] holds [no_call] whenever the view is not [Typed], so this
   reads the typed view without decoding or counting anything. *)
let held t = t.call

let call t = match typed t with c -> Ok c | exception Undecodable e -> Error e

let wire t =
  t.exposed <- true;
  match t.wire with
  | Some w -> w
  | None -> (
    match t.view with
    | Typed ->
      if not t.implied then begin
        Obs.note_encode t.span;
        (* a dirty envelope forced back to wire form is a genuine
           rewrite: some layer wants the raw vector of a call that no
           longer matches any prior encoding *)
        Obs.note_rewrite t.span
      end;
      let w = Call.encode t.call in
      t.wire <- Some w;
      w
    | Undecoded | Failed -> assert false (* no wire implies Typed *))

let peek_wire t =
  if t.implied then ignore (wire t)
  else (match t.wire with Some _ -> t.exposed <- true | None -> ());
  t.wire

(* The canonical arg shape, from whichever view is already
   materialized.  Reads the wire without marking it exposed — the
   shape retains no reference — and never decodes, encodes or bumps a
   codec counter, so signature capture cannot disturb the decode-once
   accounting it is meant to audit. *)
let shape t =
  match t.wire with
  | Some w -> Shape.of_wire w
  | None -> (
    match t.view with
    | Typed -> Shape.of_call t.call
    | Undecoded | Failed -> "?")

let nargs t =
  match t.wire, t.view with
  | Some w, _ -> Array.length w.Value.args
  | None, Typed when t.implied -> Call.nargs t.call
  | None, _ -> 0

let decoded t =
  match t.view with
  | Typed -> not t.pending
  | Failed -> true
  | Undecoded -> false

let dirty t = t.wire = None && not t.implied

let pp fmt t =
  match t.view with
  | Typed when t.pending ->
    (* the vector the application trapped with, as [of_wire] prints it *)
    Value.pp_wire fmt
      (match t.wire with Some w -> w | None -> Call.encode t.call)
  | Typed -> Call.pp fmt t.call
  | Failed ->
    Format.fprintf fmt "<undecodable syscall %d: %s>" t.num
      (Errno.name t.errno)
  | Undecoded -> (
    match t.wire with
    | Some w -> Value.pp_wire fmt w
    | None -> Format.fprintf fmt "<syscall %d>" t.num)
