(** A multi-client key-value daemon over the socket surface.

    The server binds {!addr}, listens, and serves a line-oriented
    protocol ([P key val] / [G key] / [S prefix] / [Q]) in either of
    the two classic 4.3BSD server shapes: a child forked per accepted
    connection, or a fixed pool of pre-forked workers sharing the
    listen queue.  Each request touches the filesystem (one VFS file
    per key under {!data_dir}), so pathname and descriptor agents
    interpose on the data path as well as the socket calls.

    The driver forks the server, then the clients in bounded waves;
    each client runs a deterministic per-index put/get/scan mix with
    hold times and records round-trip latency into a shared
    {!Obs.Hist.t}.  Every connection contributes its own causal pipe
    lanes ([Obs.chan_sock] channels), so the event graph shows one
    request/reply braid per client. *)

type mode = Fork_per_conn | Prefork

val mode_name : mode -> string
(** ["fork"] / ["prefork"]. *)

type params = {
  clients : int;  (** total connections to serve *)
  workers : int;  (** pool size in {!Prefork} mode *)
  ops_per_client : int;
  hold_us : int;  (** client think time between requests *)
  cpu_us_per_op : int;  (** server compute charged per request *)
  backlog : int;  (** listen queue depth *)
  batch : int;  (** clients in flight at once *)
  keyspace : int;  (** distinct keys *)
}

val default_params : params
(** 1000 clients in waves of 64. *)

val quick_params : params
(** A dozen clients, for tests and campaigns. *)

val data_dir : string
(** [/kvd/data] — one file per key. *)

val summary_path : string
(** [/kvd/summary] — deterministic end-of-run totals, the campaign
    oracle's output artifact. *)

type stats = {
  mutable conns : int;  (** client connections established *)
  mutable ops : int;  (** requests answered without error *)
  mutable errors : int;
  hist : Obs.Hist.t;  (** per-request round-trip latency, virtual µs *)
}

val fresh_stats : unit -> stats

val setup : Kernel.t -> unit
(** Create {!data_dir} and install [/bin/kvd]. *)

val register : Kernel.t -> unit
(** Register the ["kvd"] image ([kvd [fork|prefork] [clients]],
    defaulting to {!quick_params}). *)

val body : ?params:params -> ?stats:stats -> mode:mode -> unit -> int
(** The whole workload (server + clients) as one process body; 0 when
    every client connected and no request failed. *)
