(** The build workload of Table 3-3: Make driving a C compiler over
    eight small programs.

    The paper's run is process-structured — 64 fork()/execve() pairs —
    and makes heavy use of system calls (tens of thousands).  Our
    pipeline reproduces that shape: a [make] image reads a Makefile and
    spawns one [cc] driver per out-of-date program; [cc] runs
    [cpp] → [cc1] → [as] over each of the program's two sources and a
    final [ld], i.e. exactly 8 fork/exec pairs per program, 64 for the
    standard 8-program tree.  The tool stages do their file I/O in
    small chunks (as 1990 compilers did) to generate a realistic call
    volume, and charge virtual CPU for the "compilation" itself. *)

type params = {
  programs : int;
  sources_per_program : int;   (** fixed at 2 for the 64-pair shape *)
  source_lines : int;          (** per source file *)
  io_chunk : int;              (** bytes per read/write *)
  cpu_us_per_line : int;       (** code-generation cost in cc1 *)
}

val default_params : params
val quick_params : params

val project_dir : string  (** /proj *)

val setup : ?params:params -> ?seed:int -> Kernel.t -> unit
(** Generate the project tree (sources, headers, Makefile) and install
    the tool images in [/bin]. *)

val register : Kernel.t -> unit
(** Register the [make], [cc], [cpp], [cc1], [as] and [ld] images
    against this kernel. *)

val body : unit -> int
(** Run [make] on {!project_dir} as a direct process body (equivalent
    to exec'ing [/bin/make /proj/Makefile]). *)
