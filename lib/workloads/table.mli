(** The workload table: how every workload's kernel is prepared and
    its session booted, written once.

    The paper's experiments (Tables 3-2 and 3-3, §3.5.3) run the same
    programs bare and then under each agent; the fault campaign, the
    conformance matrix, the benchmark tables and [agentrun --setup]
    all start from these rows and {!prepare}. *)

type workload = {
  w_name : string;
  w_setup : Kernel.t -> unit;
      (** populates the filesystem (and registers images) before boot *)
  w_body : unit -> int;  (** the whole workload as init's body *)
  w_output : string;  (** output artifact path compared by the fault
                          oracle ("" when the console is the product) *)
}

module Quick : sig
  val scribe : workload
  val make : workload
  val afs : workload

  val kvd : workload
  (** fork-per-connection with [batch = 1], which serializes the client
      waves and so makes fork order, hence pid assignment,
      deterministic; its artifact is the [/kvd/summary] totals *)
end
(** The four workloads at their [quick_params], seeded 1: the fault
    campaign's and the conformance matrix's sizes. *)

module Paper : sig
  val scribe : workload
  val make : workload

  val make_split : workload
  (** make's tree with the sources moved to [/srcdir] and an empty
      [/objdir], the layout for [union:/proj=/objdir:/srcdir] (its body
      needs that union agent) *)

  val afs : workload
  val kvd : workload
end
(** The same workloads at their [default_params] and default seeds, the
    sizes of Tables 3-2/3-3 and the §3.5.3 comparison, plus
    [make-split].  [agentrun --setup NAME] populates a session with
    these rows' setups. *)

val quick : workload list
(** {!Quick}'s rows, in the order above. *)

val paper : workload list
(** {!Paper}'s rows, in the order above. *)

val find : workload list -> string -> workload option
(** [find rows name] is the row of [rows] named [name], for a name
    given on a command line or read from a bundle. *)

val prepare : (Kernel.t -> unit) -> Kernel.t
(** A fresh kernel ready to boot, made by {!populate}. *)

val populate : Kernel.t -> (Kernel.t -> unit) -> unit
(** Ready a new kernel to boot: every workload image (scribe, make_cc,
    kvd) registered, {!Kernel.populate_standard}'s tree made, then the
    given setup (a row's [w_setup], or [ignore]).  {!prepare} calls it
    on a kernel of its own; a cluster's driver on each shard.  A row's
    session is then [Kernel.boot k ~name (fun () -> install (); w_body ())],
    where [install] makes its agent stack ([Toolkit.Loader.install],
    bottom-most agent first). *)
