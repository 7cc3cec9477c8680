(* The host's speed drifts: it shares its cores with other tenants, and a
   slow phase can cut it by 40% for seconds or minutes at a time.  A
   fixed loop that depends on nothing in the repository is timed just
   before and just after every round, each time right after a full
   major collection, so that it sees the same GC state.  The round's
   host times are divided by the loop's slowdown against [nominal_ns],
   which makes them read as on the reference host at full speed. *)

module M = Map.Make (String)

let keys = Array.init 4096 (fun i -> string_of_int (i * 7919))

(* one call on the reference host (2-vCPU x86-64 VM, OCaml 5.1.1, no
   flambda) in its fast mode *)
let nominal_ns = 5_000_000.

(* builds a map and looks every key up six times: allocation, pointer
   chasing and string comparison, like the simulator's own work *)
let once () =
  let t0 = Spans.now_ns () in
  let m = Array.fold_left (fun m k -> M.add k (String.length k) m) M.empty keys in
  let s = ref 0 in
  for _ = 1 to 6 do
    Array.iter (fun k -> s := !s + M.find k m) keys
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (Spans.now_ns () - t0)

(* two timed calls *)
let sample () = [ once (); once () ]

(* the host's slowdown over the samples taken around one round *)
let slowdown samples = Stats.median samples /. nominal_ns
