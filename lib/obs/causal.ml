(* Causal edges between spans (DESIGN.md §3.9).

   An edge records that one trap observably caused another across a
   process (or shard) boundary: a fork trap caused the child's first
   trap, a kill trap caused a signal delivery inside the receiver's
   current trap, a pipe write trap produced the bytes a later read
   trap consumed.  Edges are pure data here — the engine in [Obs]
   records them into its flight recorder as [Span.Edge] records; this
   module owns the representation, the deterministic merge order, the
   JSON field codec [Span] reuses for them, and the transitive [slice]
   query.

   Span ids are only unique per engine (per shard), so every endpoint
   carries its shard id and the graph is keyed by (shard, span). *)

type kind = Fork | Signal | Pipe

let kind_name = function Fork -> "fork" | Signal -> "signal" | Pipe -> "pipe"

let kind_of_name = function
  | "fork" -> Some Fork
  | "signal" -> Some Signal
  | "pipe" -> Some Pipe
  | _ -> None

type edge = {
  ed_kind : kind;
  ed_src_shard : int;  (* shard owning the source span *)
  ed_src_span : int;   (* 0 when no span was open at the source *)
  ed_src_pid : int;
  ed_shard : int;      (* recording (destination) shard *)
  ed_dst_span : int;   (* a sampled span: no edge is recorded into an
                          unsampled trap *)
  ed_dst_pid : int;
  ed_t_us : int;       (* virtual time the edge resolved, dst clock *)
  ed_seq : int;        (* the record's position in its engine's log *)
  ed_detail : string;  (* signal name / "pipe#n bytes a..b" / "" *)
}

(* The cluster merge rule (DESIGN.md §3.6): order by virtual timestamp,
   tie-break by recording shard, then per-engine emission sequence —
   the same (ts, src, seq) triple that makes cross-shard signal
   delivery deterministic makes the merged edge table byte-stable. *)
let compare_edge a b =
  compare (a.ed_t_us, a.ed_shard, a.ed_seq) (b.ed_t_us, b.ed_shard, b.ed_seq)

let sort edges = List.sort compare_edge edges

(* ---------- JSON ---------- *)

(* An edge's JSON is a log record's: the ["type":"edge"] discriminator
   comes first, as on every [Span] record line. *)
let to_json ed =
  Json.Obj
    [
      ("type", Json.Str "edge");
      ("kind", Json.Str (kind_name ed.ed_kind));
      ("src_shard", Json.Int ed.ed_src_shard);
      ("src_span", Json.Int ed.ed_src_span);
      ("src_pid", Json.Int ed.ed_src_pid);
      ("shard", Json.Int ed.ed_shard);
      ("dst_span", Json.Int ed.ed_dst_span);
      ("dst_pid", Json.Int ed.ed_dst_pid);
      ("t_us", Json.Int ed.ed_t_us);
      ("seq", Json.Int ed.ed_seq);
      ("detail", Json.Str ed.ed_detail);
    ]

let of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  let str k = Option.bind (Json.member k j) Json.to_str in
  match (str "kind", int "src_span", int "dst_span", int "t_us", int "seq") with
  | Some kn, Some src_span, Some dst_span, Some t_us, Some seq -> (
    match kind_of_name kn with
    | None -> None
    | Some kind ->
      let get k = Option.value ~default:0 (int k) in
      Some
        {
          ed_kind = kind;
          ed_src_shard = get "src_shard";
          ed_src_span = src_span;
          ed_src_pid = get "src_pid";
          ed_shard = get "shard";
          ed_dst_span = dst_span;
          ed_dst_pid = get "dst_pid";
          ed_t_us = t_us;
          ed_seq = seq;
          ed_detail = Option.value ~default:"" (str "detail");
        })
  | _ -> None

(* ---------- transitive slice ---------- *)

(* Everything a root trap caused: the set of (shard, span) nodes
   reachable from [roots] along edges, roots included.  Endpoints the
   sampler skipped (non-positive span ids) never enter the graph, so
   the slice is exact at sampling rate 1 and covers the sampled subset
   otherwise.  Output is sorted, so two deterministic runs produce
   byte-identical slices. *)
let slice ~roots edges =
  let adj : (int * int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ed ->
      if ed.ed_src_span > 0 && ed.ed_dst_span > 0 then begin
        let k = (ed.ed_src_shard, ed.ed_src_span) in
        let v = (ed.ed_shard, ed.ed_dst_span) in
        match Hashtbl.find_opt adj k with
        | Some l -> l := v :: !l
        | None -> Hashtbl.replace adj k (ref [ v ])
      end)
    edges;
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec visit n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      match Hashtbl.find_opt adj n with
      | Some l -> List.iter visit !l
      | None -> ()
    end
  in
  List.iter visit roots;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare
