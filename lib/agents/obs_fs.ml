(* /obs: the observability engine's own telemetry as synthetic files,
   readable from inside the simulation.  Reuses the synthfs machinery;
   generators run at open time in the opening process's context. *)

(* every record of the one log, causal edges included ("type":"edge") *)
let spans_text () =
  String.concat ""
    (List.map (fun r -> Obs.Span.to_line r ^ "\n") (Obs.records ()))

(* the same document [Kernel.metrics_json] serves to the host — span
   metrics plus codec (fast_path) and env_pool counters — so there is
   exactly one set of numbers however you reach it; generators run
   in-fibre, so the shard they report on is the current one *)
let metrics_text () =
  Obs.Json.to_string (Kernel.metrics_json (Kernel.current_exn ())) ^ "\n"

let codec_text () =
  Format.asprintf "%a\n" Obs.Codec.pp
    (Kernel.codec_stats (Kernel.current_exn ()))

(* /obs/stream: a tail file.  The cursor persists across opens (it
   lives in the [create] closure), so each open serves exactly the
   records pushed since the previous open — a live incremental feed
   with no double delivery.  Records overwritten before being read are
   counted in a leading "lost" line rather than silently skipped. *)
let stream_text cursor () =
  let fresh, lost = Obs.poll cursor in
  let body =
    String.concat ""
      (List.map (fun r -> Obs.Span.to_line r ^ "\n") fresh)
  in
  if lost > 0 then Printf.sprintf "# lost %d\n%s" lost body else body

let create ?(mount = "/obs") () =
  let a = new Synthfs.agent ~mount () in
  a#register_file "spans" spans_text;
  a#register_file "metrics" metrics_text;
  a#register_file "codec" codec_text;
  a#register_file "stream" (stream_text (Obs.Stream.cursor ()));
  a
