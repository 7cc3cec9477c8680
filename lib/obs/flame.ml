(* Flamegraph folding (DESIGN.md §3.9).

   Flight-recorder segments carry (span, depth, layer, self_us); a
   span's segments stacked by depth are exactly one trap's layer path
   (uspace → agents → kernel).  Folding groups self time by
   (sysno, layer path), producing the collapsed-stack form every
   flamegraph renderer consumes: one line per stack, space, weight.

   Self times per span sum to the root frame's total by construction
   (obs engine invariant), so the fold's total weight equals the sum
   of segment self times — the bench gate checks exactly that.

   Weights are virtual µs.  Span ids are unique per engine only, so a
   fold covers one shard's records. *)

type fold = {
  fl_sysno : int;
  fl_stack : string list; (* outermost first, leaf last *)
  fl_self_us : int;
  fl_frames : int;
}

let fold segments =
  (* Group segments by span, then reconstruct each span's layer path
     by depth.  Ring order within a span is close order; the first
     layer seen at a depth names that depth in the path (re-entered
     frames — e.g. a restarted trap's second kernel frame — fold into
     the same stack). *)
  let by_span : (int, Span.segment list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.segment) ->
      match Hashtbl.find_opt by_span s.Span.span with
      | Some l -> l := s :: !l
      | None -> Hashtbl.replace by_span s.Span.span (ref [ s ]))
    segments;
  let acc : (int * string list, int ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.iter
    (fun _span segs ->
      let segs = List.rev !segs in
      let layer_at : (int, string) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (s : Span.segment) ->
          if not (Hashtbl.mem layer_at s.Span.depth) then
            Hashtbl.replace layer_at s.Span.depth s.Span.layer)
        segs;
      List.iter
        (fun (s : Span.segment) ->
          let stack =
            List.init (s.Span.depth + 1) (fun d ->
                if d = s.Span.depth then s.Span.layer
                else
                  match Hashtbl.find_opt layer_at d with
                  | Some l -> l
                  | None -> "?")
          in
          let key = (s.Span.sysno, stack) in
          match Hashtbl.find_opt acc key with
          | Some (self, frames) ->
            self := !self + s.Span.self_us;
            incr frames
          | None -> Hashtbl.replace acc key (ref s.Span.self_us, ref 1))
        segs)
    by_span;
  Hashtbl.fold
    (fun (sysno, stack) (self, frames) l ->
      { fl_sysno = sysno; fl_stack = stack; fl_self_us = !self;
        fl_frames = !frames }
      :: l)
    acc []
  |> List.sort (fun a b ->
         compare (a.fl_sysno, a.fl_stack) (b.fl_sysno, b.fl_stack))

let total folds = List.fold_left (fun acc f -> acc + f.fl_self_us) 0 folds

let default_name n = Printf.sprintf "syscall#%d" n

let to_string ?(name = default_name) folds =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (String.concat ";" (name f.fl_sysno :: f.fl_stack));
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int f.fl_self_us);
      Buffer.add_char buf '\n')
    folds;
  Buffer.contents buf
