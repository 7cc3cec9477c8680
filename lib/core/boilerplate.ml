open Abi

let charge = Kernel.Uspace.cpu_work

let do_fork dl ~init_child body =
  charge Cost_model.agent_fork_extra_us;
  let wrapped () =
    init_child ();
    body ()
  in
  Downlink.down_call dl (Call.Fork wrapped)

let down_int dl c =
  match Downlink.down_call dl c with
  | Ok { Value.r0; _ } -> Ok r0
  | Error e -> Error e

(* The reads of [read_program] until EOF, the chunks newest first.  An
   image is one short chunk, returned as the one string it was copied
   into; top level, so a load builds no closure. *)
let rec slurp dl fd buf chunks =
  match down_int dl (Call.Read (fd, buf, Bytes.length buf)) with
  | Error e -> Error e
  | Ok 0 ->
    Ok (match chunks with [ c ] -> c | _ -> String.concat "" (List.rev chunks))
  | Ok n -> slurp dl fd buf (Bytes.sub_string buf 0 n :: chunks)

(* Read the whole program file through the down path, so that stacked
   agents (a filesystem-view agent under us, say) see the load. *)
let read_program dl path : (string, Errno.t) result =
  match down_int dl (Call.Open (path, Flags.Open.o_rdonly, 0)) with
  | Error e -> Error e
  | Ok fd ->
    (* the shard's chunk, borrowed as [Libc.Unistd.read_all] does *)
    let buf = Kernel.Uspace.take_chunk () in
    let r = slurp dl fd buf [] in
    Kernel.Uspace.give_chunk buf;
    ignore (down_int dl (Call.Close fd));
    r

(* The steps a single kernel execve would have performed, done by hand
   (§3.5.2): check, load, close descriptors, reset handlers, transfer
   control — but keeping the emulation vector alive. *)
let do_execve dl path argv envp : Value.res =
  let fail e = (Error e : Value.res) in
  match down_int dl (Call.Access (path, Flags.Access.x_ok)) with
  | Error e -> fail e
  | Ok _ ->
    match read_program dl path with
    | Error e -> fail e
    | Ok content ->
      match Kernel.Registry.image_of_content content with
      | None -> fail Errno.ENOEXEC
      | Some image_name ->
        (* the agent runs in-fibre with no handle: resolve the image
           against the shard this process belongs to *)
        match
          Kernel.Registry.lookup
            (Kernel.registry (Kernel.current_exn ())) image_name
        with
        | None -> fail Errno.ENOEXEC
        | Some image ->
          let body = image ~argv ~envp in
          (* close the close-on-exec subset of the descriptors *)
          let table_size =
            match down_int dl Call.Getdtablesize with
            | Ok n -> n
            | Error _ -> 64
          in
          for fd = 0 to table_size - 1 do
            match down_int dl (Call.Fcntl (fd, Flags.Fcntl.f_getfd, 0)) with
            | Ok flags when flags land Flags.Fcntl.fd_cloexec <> 0 ->
              ignore (down_int dl (Call.Close fd))
            | Ok _ | Error _ -> ()
          done;
          (* reset caught signals to the default disposition *)
          for s = 1 to Signal.max_signal do
            let old = ref None in
            (match
               down_int dl (Call.Sigaction (s, None, Some old))
             with
             | Ok _ ->
               (match !old with
                | Some (Value.H_fn _) ->
                  ignore
                    (down_int dl
                       (Call.Sigaction (s, Some Value.H_default, None)))
                | Some Value.H_default | Some Value.H_ignore | None -> ())
             | Error _ -> ())
          done;
          charge Cost_model.agent_execve_extra_us;
          let exec_name =
            if Array.length argv > 0 then argv.(0) else image_name
          in
          Kernel.Uspace.exec_load
            { Kernel.Events.exec_name;
              exec_body = body;
              keep_emulation = true }
