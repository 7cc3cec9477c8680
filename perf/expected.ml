(* Trap count, virtual elapsed µs and output digest of one round of each
   workload at the default seed.  Virtual time is deterministic, so
   these hold on any host; a change that moves them changed what the
   simulated programs do, not how fast the simulator runs.  A make_traced
   round is six builds. *)

let at_default_seed =
  [ ("syscall_bare", (348142, 50701887, "aad1d85890867acc673528428004a894"));
    ("syscall_stacked", (348142, 111079805, "aad1d85890867acc673528428004a894"));
    ("kvd_fork_observed", (51714, 108916123, "5d1d8ef03de55c336b2ccc0e943dbaff"));
    ("make_traced", (125442, 169376406, "0c78d72968095d2af71fb20e89a5c1b6")) ]
