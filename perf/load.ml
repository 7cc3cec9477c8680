(* The four workloads.  Each is a closed loop: a round is a fixed amount
   of work on fresh kernels, started only after the previous round has
   finished.  Inputs are generated from the seed before the first
   round, and every round replays them, so trap count, virtual time and
   output digest must repeat exactly from round to round. *)

open Abi
module U = Libc.Unistd

let now_ns = Spans.now_ns

(* --- set-up accounting ----------------------------------------------------- *)

(* host ns a round spent creating kernels, populating them, setting up
   the workload and installing agents *)
let setup_ns = ref 0

let timed name f =
  let t0 = now_ns () in
  let v = Spans.span name f in
  setup_ns := !setup_ns + (now_ns () - t0);
  v

(* Observation is configured on the installed engine and copied by
   [Kernel.create]; the previous round's kernel engine is still the
   installed one, so the setting is made explicitly every time. *)
let kernel ~obs_rate setup =
  timed "setup" (fun () ->
    let k =
      Spans.span "kernel.create" (fun () ->
        (match obs_rate with
         | None ->
           Obs.disable ();
           Obs.set_sampling 1
         | Some n ->
           Obs.set_sampling ~seed:1 n;
           Obs.enable ());
        Kernel.create ())
    in
    Spans.span "workloads.setup" (fun () ->
      Kernel.populate_standard k;
      setup k);
    k)

(* inside the booted init process: agents install into the caller *)
let install agents =
  timed "toolkit.install" (fun () ->
    List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) (agents ()))

let boot k ~name body = Spans.span "boot" (fun () -> Kernel.boot k ~name body)

let null_agents n () =
  List.init n (fun _ ->
    (Agents.Time_symbolic.create () :> Toolkit.Numeric.numeric_syscall))

(* --- what a round produced ------------------------------------------------- *)

type outcome = {
  traps : int;
  vus : int;  (** virtual elapsed µs, summed over the round's kernels *)
  digest : string;  (** of the program outputs *)
  ops : int;  (** operations attempted *)
  failed : int;  (** operations that failed or produced wrong output *)
}

let hex s = Digest.to_hex (Digest.string s)
let vus k = Sim.Clock.elapsed_us (Kernel.clock k)

(* --- syscall_bare / syscall_stacked: a seeded op mix in one process -------- *)

type op =
  | Getpid
  | Read64 of int
  | Write64 of int * string
  | Stat of string
  | Fstat
  | Open_close of string

let op_names = [ "getpid"; "read64"; "write64"; "stat"; "fstat"; "open_close" ]

(* span names, one per op kind, shared with the libc per-layer metrics *)
let op_span = function
  | Getpid -> "libc.getpid"
  | Read64 _ -> "libc.read64"
  | Write64 _ -> "libc.write64"
  | Stat _ -> "libc.stat"
  | Fstat -> "libc.fstat"
  | Open_close _ -> "libc.open_close"

let blob_path = "/data/blob"
let blob_size = 65536

(* two files at each depth 1..4, so stat and open exercise resolution
   of every length the mix draws from *)
let paths =
  [| "/data/f0"; "/data/f1"; "/data/d1/f2"; "/data/d1/f3"; "/data/d1/d2/f4";
     "/data/d1/d2/f5"; "/data/d1/d2/d3/f6"; "/data/d1/d2/d3/f7" |]

type mix = { ops : op array; blob : string; files : string array }

(* getpid 30%, lseek+read 64 B 25%, lseek+write 64 B 15%, stat 15%,
   fstat 10%, open+close 5% *)
let gen_mix ~seed n =
  let rng = Sim.Rng.create seed in
  let text len = String.init len (fun _ -> Char.chr (97 + Sim.Rng.int rng 26)) in
  let blob = text blob_size in
  let files = Array.map (fun _ -> text (1 + Sim.Rng.int rng 512)) paths in
  let payloads = Array.init 16 (fun _ -> text 64) in
  let path () = paths.(Sim.Rng.int rng (Array.length paths)) in
  let off () = Sim.Rng.int rng (blob_size - 64) in
  let ops =
    Array.init n (fun _ ->
      let r = Sim.Rng.int rng 100 in
      if r < 30 then Getpid
      else if r < 55 then Read64 (off ())
      else if r < 70 then Write64 (off (), payloads.(Sim.Rng.int rng 16))
      else if r < 85 then Stat (path ())
      else if r < 95 then Fstat
      else Open_close (path ()))
  in
  { ops; blob; files }

let setup_mix mix k =
  Kernel.mkdir_p k "/data/d1/d2/d3";
  Kernel.write_file k ~path:blob_path mix.blob;
  Array.iteri (fun i p -> Kernel.write_file k ~path:p mix.files.(i)) paths

(* the program folds every result into [h]; reads fold all 64 bytes *)
type acc = { mutable h : int; mutable bad : int }

let mix_in acc v = acc.h <- ((acc.h * 1_000_003) lxor v) land max_int

let exec_op acc fd buf = function
  | Getpid -> mix_in acc (U.getpid ())
  | Read64 off -> (
    match U.lseek fd off Flags.Seek.set with
    | Error _ -> acc.bad <- acc.bad + 1
    | Ok _ -> (
      match U.read fd buf 64 with
      | Ok 64 ->
        for i = 0 to 7 do
          mix_in acc (Int64.to_int (Bytes.get_int64_le buf (8 * i)))
        done
      | Ok _ | Error _ -> acc.bad <- acc.bad + 1))
  | Write64 (off, data) -> (
    match U.lseek fd off Flags.Seek.set with
    | Error _ -> acc.bad <- acc.bad + 1
    | Ok _ -> (
      match U.write fd data with
      | Ok 64 -> mix_in acc off
      | Ok _ | Error _ -> acc.bad <- acc.bad + 1))
  | Stat p -> (
    match U.stat p with
    | Ok st ->
      mix_in acc st.Stat.st_size;
      mix_in acc st.Stat.st_ino
    | Error _ -> acc.bad <- acc.bad + 1)
  | Fstat -> (
    match U.fstat fd with
    | Ok st -> mix_in acc st.Stat.st_ino
    | Error _ -> acc.bad <- acc.bad + 1)
  | Open_close p -> (
    match U.open_ p Flags.Open.o_rdonly 0 with
    | Ok f ->
      mix_in acc f;
      if U.close f <> Ok () then acc.bad <- acc.bad + 1
    | Error _ -> acc.bad <- acc.bad + 1)

(* the op loop; with tracing on, every op is a span of its own *)
let run_ops ops acc =
  match U.open_ blob_path Flags.Open.o_rdwr 0 with
  | Error _ ->
    acc.bad <- Array.length ops;
    1
  | Ok fd ->
    let buf = Bytes.create 64 in
    if !Spans.on then
      Array.iter
        (fun op ->
          let s = Spans.enter (op_span op) in
          exec_op acc fd buf op;
          Spans.exit s)
        ops
    else Array.iter (exec_op acc fd buf) ops;
    ignore (U.close fd);
    0

(* one session of the mix under [agents]; returns the finished kernel
   and a thunk computing its outcome *)
let mix_session mix ~agents =
  let k = kernel ~obs_rate:None (setup_mix mix) in
  let acc = { h = 0; bad = 0 } in
  let status =
    boot k ~name:"mix" (fun () ->
      install agents;
      run_ops mix.ops acc)
  in
  let outcome () =
    let out = Option.value (Kernel.read_file k blob_path) ~default:"" in
    let n = Array.length mix.ops in
    { traps = Kernel.total_syscalls k; vus = vus k;
      digest = hex (string_of_int acc.h ^ "/" ^ out); ops = n;
      failed = (if status <> 0 then n else acc.bad) }
  in
  (k, outcome)

(* --- kvd_fork_observed -------------------------------------------------------- *)

let kvd_params = Workloads.Kvd.default_params
let kvd_obs_rate = 256

(* the seeded input is the store's initial contents: about half the
   keys exist before the first client connects *)
let gen_store ~seed =
  let rng = Sim.Rng.create seed in
  List.init kvd_params.Workloads.Kvd.keyspace (fun i ->
    let present = Sim.Rng.bool rng in
    let v = Printf.sprintf "s%d" (Sim.Rng.int rng 1_000_000) in
    (Printf.sprintf "k%03d" i, if present then Some v else None))

let kvd_session store =
  let open Workloads in
  let k =
    kernel ~obs_rate:(Some kvd_obs_rate) (fun k ->
      Kvd.setup k;
      List.iter
        (fun (key, v) ->
          Option.iter
            (fun v -> Kernel.write_file k ~path:(Kvd.data_dir ^ "/" ^ key) v)
            v)
        store)
  in
  let stats = Kvd.fresh_stats () in
  let status =
    boot k ~name:"kvd" (fun () ->
      install Conformance.stacked.Conformance.sk_make;
      Kvd.body ~params:kvd_params ~stats ~mode:Kvd.Fork_per_conn ())
  in
  let outcome () =
    let p = kvd_params in
    let attempted = p.Kvd.clients * p.Kvd.ops_per_client in
    let read path = Option.value (Kernel.read_file k path) ~default:"-" in
    let files =
      List.map (fun (key, _) -> read (Kvd.data_dir ^ "/" ^ key)) store
    in
    let unserved = p.Kvd.clients - stats.Kvd.conns in
    let failed =
      if status <> 0 then attempted
      else min attempted (stats.Kvd.errors + (unserved * p.Kvd.ops_per_client))
    in
    { traps = Kernel.total_syscalls k; vus = vus k;
      digest = hex (String.concat "\n" (read Kvd.summary_path :: files));
      ops = attempted; failed }
  in
  (k, outcome)

(* --- make_traced ------------------------------------------------------------ *)

let make_builds_per_round = 6

let make_programs = Workloads.Make_cc.default_params.Workloads.Make_cc.programs

let make_session ~obs_rate ~seed =
  let k = kernel ~obs_rate (fun k -> Workloads.Make_cc.setup ~seed k) in
  let status =
    boot k ~name:"make" (fun () ->
      install Conformance.trace.Conformance.sk_make;
      Workloads.Make_cc.body ())
  in
  let outcome () =
    let products =
      List.init make_programs (fun i ->
        Kernel.read_file k
          (Printf.sprintf "%s/prog%d" Workloads.Make_cc.project_dir (i + 1)))
    in
    let missing = List.length (List.filter Option.is_none products) in
    { traps = Kernel.total_syscalls k; vus = vus k;
      digest = hex (String.concat "\n" (List.map (Option.value ~default:"") products));
      ops = make_programs;
      failed = (if status <> 0 then make_programs else missing) }
  in
  (k, outcome)

(* --- the table ---------------------------------------------------------------- *)

type t = {
  name : string;
  round : unit -> unit -> outcome;
      (** runs one round; the returned thunk (which keeps the round's
          last kernel alive) computes the outcome afterwards, untimed *)
}

(* ops per syscall round, sized so a stacked round takes ~0.4 s on a
   2-core x86-64 host; the bare round runs the same sequence *)
let mix_ops = 240_000

let syscall ~agents name ~seed =
  let mix = gen_mix ~seed mix_ops in
  { name; round = (fun () -> snd (mix_session mix ~agents)) }

let kvd name ~seed =
  let store = gen_store ~seed in
  { name; round = (fun () -> snd (kvd_session store)) }

let make name ~seed =
  { name;
    round =
      (fun () ->
        let builds =
          List.init make_builds_per_round (fun _ -> snd (make_session ~obs_rate:None ~seed))
        in
        fun () ->
          let outs = List.map (fun f -> f ()) builds in
          let first = List.hd outs in
          List.fold_left
            (fun acc o ->
              { acc with
                traps = acc.traps + o.traps; vus = acc.vus + o.vus;
                ops = acc.ops + o.ops;
                failed =
                  acc.failed + (if o.digest = first.digest then o.failed else o.ops) })
            { first with traps = 0; vus = 0; ops = 0; failed = 0 }
            outs) }

let table =
  [ ("syscall_bare", syscall ~agents:(fun () -> []));
    ("syscall_stacked", syscall ~agents:(null_agents 4));
    ("kvd_fork_observed", kvd); ("make_traced", make) ]

let names = List.map fst table
let of_name name ~seed = Option.map (fun mk -> mk name ~seed) (List.assoc_opt name table)
