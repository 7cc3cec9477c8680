(** Virtual-time cost model, calibrated to the paper.

    The paper's micro-benchmarks (Tables 3-4 and 3-5, 25 MHz i486
    running Mach 2.5 X144) pin down the constants from which its macro
    results follow: intercepting a call costs 30 µs, calling down via
    [htg_unix_syscall] adds 37 µs, decoding to the symbolic layer
    brings the per-call toolkit overhead to 140–210 µs, and the
    toolkit's reimplementation of [fork]/[execve] adds roughly 10 ms of
    bookkeeping.  The simulated kernel and toolkit charge these
    constants to the virtual clock so that the macro benchmarks
    (Tables 3-2/3-3) reproduce the paper's shape deterministically.

    Base (agent-free) syscall costs come from Table 3-5 where the prose
    preserves them (getpid 25 µs, gettimeofday 47 µs, read-1KiB 370 µs,
    stat over a 6-component UFS path 892 µs, fork/execve ≈ 10 ms); the
    remainder are interpolations documented in EXPERIMENTS.md. *)

val intercept_us : int
(** Trap, save registers, dispatch to the emulation handler, restore,
    return: 30 µs (Table 3-4). *)

val trivial_us : int
(** A getpid-class call: 25 µs (Table 3-5 prose).  Also what the kernel
    charges an agent's call it cannot decode. *)

val htg_overhead_us : int
(** Extra cost of [htg_unix_syscall] over a direct trap: 37 µs. *)

val numeric_dispatch_us : int
(** Emulation-vector lookup plus one virtual dispatch at the numeric
    layer. *)

val symbolic_decode_us : nargs:int -> int
(** Decoding an untyped vector and dispatching the per-call virtual
    method; grows with argument count so the symbolic-layer total
    lands in the paper's observed 140–210 µs band. *)

val pathname_layer_us : int
(** Routing one call through [pathname_set]/[pathname] objects. *)

val descriptor_layer_us : int
(** Routing one call through [descriptor_set]/[descriptor] objects. *)

val directory_layer_us : int
(** Per-entry cost of [next_direntry] iteration. *)

val agent_fork_extra_us : int
(** Bookkeeping the toolkit performs around [fork] beyond the calls it
    makes (≈ +10 ms, §3.5.1.2). *)

val agent_execve_extra_us : int
(** Ditto for the toolkit's from-scratch [execve] (§3.5.1.2). *)

val path_components : string -> int
(** Number of non-["."] components in a path (used for namei cost). *)

val syscall_us : Call.t -> int
(** Base in-kernel cost of executing one call, excluding any
    interception or toolkit overhead. *)

(** Constants reported by the paper that we display but do not charge
    (they describe its C/C++ compiler, not our runtime). *)

val paper_c_call_us : float
val paper_virtual_call_us : float
