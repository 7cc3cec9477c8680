type workload = {
  w_name : string;
  w_setup : Kernel.t -> unit;
  w_body : unit -> int;
  w_output : string;
}

(* [seed = None] keeps the setup's own default seed, the one the paper
   tables have always used *)
let scribe params seed =
  {
    w_name = "scribe";
    w_setup = (fun k -> Scribe.setup ~params ?seed k);
    w_body = (fun () -> Scribe.body ~params ());
    w_output = Scribe.output_path;
  }

(* make's product of record is its build transcript on the console;
   there is no single output file to pin *)
let make params seed =
  {
    w_name = "make";
    w_setup = (fun k -> Make_cc.setup ~params ?seed k);
    w_body = Make_cc.body;
    w_output = "";
  }

let afs params seed =
  {
    w_name = "afs";
    w_setup = (fun k -> Afs_bench.setup ~params ?seed k);
    w_body = (fun () -> Afs_bench.body ~params ());
    w_output = "";
  }

let kvd params =
  {
    w_name = "kvd";
    w_setup = Kvd.setup;
    w_body = (fun () -> Kvd.body ~params ~mode:Kvd.Fork_per_conn ());
    w_output = Kvd.summary_path;
  }

let make_split =
  let m = make Make_cc.default_params None in
  {
    m with
    w_name = "make-split";
    w_setup =
      (fun k ->
        m.w_setup k;
        Kernel.mkdir_p k "/objdir";
        let fs = Kernel.fs k in
        let root = Vfs.Fs.root_ino fs in
        match
          Vfs.Fs.rename fs Vfs.Fs.root_cred ~cwd:root ~src:Make_cc.project_dir
            "/srcdir"
        with
        | Ok () -> ()
        | Error e -> failwith ("make-split: rename: " ^ Abi.Errno.name e));
  }

module Quick = struct
  let scribe = scribe Scribe.quick_params (Some 1)
  let make = make Make_cc.quick_params (Some 1)
  let afs = afs Afs_bench.quick_params (Some 1)
  let kvd = kvd { Kvd.quick_params with Kvd.batch = 1 }
end

module Paper = struct
  let scribe = scribe Scribe.default_params None
  let make = make Make_cc.default_params None
  let make_split = make_split
  let afs = afs Afs_bench.default_params None
  let kvd = kvd Kvd.default_params
end

let quick = Quick.[ scribe; make; afs; kvd ]
let paper = Paper.[ scribe; make; make_split; afs; kvd ]

let find rows name = List.find_opt (fun w -> w.w_name = name) rows

let populate k setup =
  (* image registration is per-kernel and idempotent; every workload's
     spawned tools resolve in every session's registry *)
  Scribe.register k;
  Make_cc.register k;
  Kvd.register k;
  Kernel.populate_standard k;
  setup k

let prepare setup =
  let k = Kernel.create () in
  populate k setup;
  k
