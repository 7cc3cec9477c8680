(** The Andrew-benchmark-style filesystem workload used for the
    §3.5.3 DFSTrace comparison.

    Five phases, as in the classic AFS benchmark: (1) make the
    directory tree, (2) copy the source files into it, (3) scan — stat
    every file, twice, (4) read every byte of every file, (5) a
    compile-like pass that reads each file, computes, and writes a
    product.  Heavy in exactly the pathname-referencing calls DFSTrace
    collects. *)

type params = {
  dirs : int;
  files_per_dir : int;
  file_size : int;
  io_chunk : int;
  cpu_us_per_file : int;  (** phase-5 "compilation" cost *)
}

val default_params : params
val quick_params : params

val setup : ?params:params -> ?seed:int -> Kernel.t -> unit
(** Create the source files; also registers the ["afsbench"] image. *)

val body : ?params:params -> unit -> int
(** Run all five phases as a process body; prints a per-phase
    summary. *)
