open Abi
open Libc

type mode = Fork_per_conn | Prefork

let mode_name = function Fork_per_conn -> "fork" | Prefork -> "prefork"

type params = {
  clients : int;
  workers : int;
  ops_per_client : int;
  hold_us : int;
  cpu_us_per_op : int;
  backlog : int;
  batch : int;
  keyspace : int;
}

let default_params = {
  clients = 1000;
  workers = 8;
  ops_per_client = 3;
  hold_us = 200;
  cpu_us_per_op = 120;
  backlog = 16;
  batch = 64;
  keyspace = 64;
}

let quick_params = {
  clients = 12;
  workers = 3;
  ops_per_client = 3;
  hold_us = 50;
  cpu_us_per_op = 20;
  backlog = 4;
  batch = 6;
  keyspace = 8;
}

let addr = "kv.svc"
let data_dir = "/kvd/data"
let summary_path = "/kvd/summary"

type stats = {
  mutable conns : int;
  mutable ops : int;
  mutable errors : int;
  hist : Obs.Hist.t;
}

let fresh_stats () = { conns = 0; ops = 0; errors = 0; hist = Obs.Hist.create () }

(* --- store: one VFS file per key --------------------------------------- *)
(* Requests hit the filesystem on purpose: pathname and descriptor agents
   (crypt, sandbox) then interpose on the server's data path, not just on
   the socket calls. *)

let key_path key = data_dir ^ "/" ^ key

let do_put key v =
  match
    Unistd.open_ (key_path key)
      Flags.Open.(o_wronly lor o_creat lor o_trunc) 0o644
  with
  | Error _ -> "ERR"
  | Ok fd ->
    let r = Unistd.write_all fd v in
    ignore (Unistd.close fd);
    (match r with Ok () -> "OK" | Error _ -> "ERR")

let do_get key =
  match Unistd.open_ (key_path key) Flags.Open.o_rdonly 0 with
  | Error Errno.ENOENT -> "N"
  | Error _ -> "ERR"
  | Ok fd ->
    let r = Unistd.read_all fd in
    ignore (Unistd.close fd);
    (match r with Ok v -> "V " ^ v | Error _ -> "ERR")

let do_scan prefix =
  match Dirstream.names data_dir with
  | Error _ -> "ERR"
  | Ok names ->
    let n =
      List.length (List.filter (String.starts_with ~prefix) names)
    in
    Printf.sprintf "C %d" n

(* --- server ------------------------------------------------------------- *)
(* One text request per send, one reply per recv; the client waits for
   each reply before its next request, so the pipe never interleaves
   messages.  [Q] ends a connection, [X] additionally stops the serving
   prefork worker. *)

let serve_request p line =
  Unistd.cpu_work p.cpu_us_per_op;
  match String.split_on_char ' ' line with
  | [ "P"; key; v ] -> `Reply (do_put key v)
  | [ "G"; key ] -> `Reply (do_get key)
  | [ "S"; prefix ] -> `Reply (do_scan prefix)
  | [ "Q" ] -> `Quit
  | [ "X" ] -> `Stop
  | _ -> `Reply "ERR"

let serve_conn p fd =
  let buf = Bytes.create 512 in
  let rec loop () =
    match Unistd.recv fd buf (Bytes.length buf) with
    | Error _ | Ok 0 -> `Done
    | Ok n ->
      let line = String.trim (Bytes.sub_string buf 0 n) in
      (match serve_request p line with
       | `Reply r ->
         (match Unistd.send_all fd (r ^ "\n") with
          | Ok () -> loop ()
          | Error _ -> `Done)
       | `Quit ->
         ignore (Unistd.send_all fd "OK\n");
         `Done
       | `Stop ->
         ignore (Unistd.send_all fd "OK\n");
         `Stop)
  in
  let r = loop () in
  ignore (Unistd.close fd);
  r

let reap n =
  for _ = 1 to n do
    ignore (Unistd.wait ())
  done

(* fork-per-connection: accept exactly [clients] connections, a child per
   connection.  Accept failures (fault injection) retry against the same
   pending queue, with a fuel bound so an unlucky campaign cannot spin. *)
let server_fork_per_conn p lfd =
  let remaining = ref p.clients in
  let children = ref 0 in
  let fuel = ref ((2 * p.clients) + 64) in
  while !remaining > 0 && !fuel > 0 do
    decr fuel;
    (* select on the listen queue first: exercises listener readiness *)
    (match Unistd.select ~read:[ lfd ] () with Ok _ | Error _ -> ());
    match Unistd.accept lfd with
    | Error _ -> ()
    | Ok cfd ->
      decr remaining;
      (match
         Unistd.fork ~child:(fun () ->
           ignore (Unistd.close lfd);
           ignore (serve_conn p cfd);
           0)
       with
       | Ok _ ->
         incr children;
         ignore (Unistd.close cfd)
       | Error _ ->
         (* out of processes: serve inline rather than drop the client *)
         ignore (serve_conn p cfd))
  done;
  reap !children

(* prefork: [workers] long-lived children share the listen queue; each
   exits when it serves an [X] connection. *)
let rec worker_loop p lfd fuel =
  if fuel <= 0 then 0
  else
    match Unistd.accept lfd with
    | Ok cfd -> (
      match serve_conn p cfd with
      | `Stop -> 0
      | `Done -> worker_loop p lfd (fuel - 1))
    | Error Errno.EINVAL -> 0 (* listener closed under us *)
    | Error _ -> worker_loop p lfd (fuel - 1)

let server_prefork p lfd =
  let forked = ref 0 in
  for _ = 1 to p.workers do
    match
      Unistd.fork ~child:(fun () ->
        worker_loop p lfd ((2 * p.clients) + 64))
    with
    | Ok _ -> incr forked
    | Error _ -> ()
  done;
  reap !forked

(* the listening descriptor is created by the driver and inherited
   across fork, so the address is bound before any client exists *)
let server p mode lfd =
  (match mode with
   | Fork_per_conn -> server_fork_per_conn p lfd
   | Prefork -> server_prefork p lfd);
  ignore (Unistd.close lfd);
  0

(* --- client -------------------------------------------------------------- *)

let now_us () =
  match Unistd.gettimeofday () with
  | Ok (sec, usec) -> (sec * 1_000_000) + usec
  | Error _ -> 0

(* one simulated client: connect, a seeded put/get/scan mix with hold
   times, then a clean [Q].  Latency of each round trip lands in the
   shared histogram (all processes share the host heap, so the driver
   reads the totals directly). *)
let client p stats idx =
  let rng = Sim.Rng.create (0x5eedc11e + idx) in
  match Unistd.socket () with
  | Error _ ->
    stats.errors <- stats.errors + 1;
    1
  | Ok fd ->
    let rec try_connect tries =
      match Unistd.connect fd addr with
      | Ok () -> true
      | Error Errno.ECONNREFUSED when tries < 20 ->
        (* the server may not have bound yet *)
        ignore (Unistd.sleep_us 500);
        try_connect (tries + 1)
      | Error _ -> false
    in
    if not (try_connect 0) then begin
      stats.errors <- stats.errors + 1;
      ignore (Unistd.close fd);
      1
    end
    else begin
      stats.conns <- stats.conns + 1;
      let buf = Bytes.create 512 in
      let rpc line =
        let t0 = now_us () in
        match Unistd.send_all fd (line ^ "\n") with
        | Error _ -> None
        | Ok () -> (
          match Unistd.recv fd buf (Bytes.length buf) with
          | Error _ | Ok 0 -> None
          | Ok n ->
            Obs.Hist.observe stats.hist (now_us () - t0);
            Some (String.trim (Bytes.sub_string buf 0 n)))
      in
      for _ = 1 to p.ops_per_client do
        let key = Printf.sprintf "k%03d" (Sim.Rng.int rng p.keyspace) in
        let line =
          match Sim.Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 ->
            Printf.sprintf "P %s v%d" key (Sim.Rng.int rng 1000)
          | 5 | 6 | 7 | 8 -> "G " ^ key
          | _ -> "S k"
        in
        (match rpc line with
         | Some reply when reply <> "ERR" -> stats.ops <- stats.ops + 1
         | Some _ | None -> stats.errors <- stats.errors + 1);
        if p.hold_us > 0 then ignore (Unistd.sleep_us p.hold_us)
      done;
      ignore (rpc "Q");
      ignore (Unistd.close fd);
      0
    end

(* one [X] connection per prefork worker, with a select timeout so a
   fault-killed worker cannot wedge the shutdown phase *)
let stop_worker () =
  match Unistd.socket () with
  | Error _ -> ()
  | Ok fd ->
    (match Unistd.connect fd addr with
     | Error _ -> ()
     | Ok () -> (
       match Unistd.send_all fd "X\n" with
       | Error _ -> ()
       | Ok () -> (
         match Unistd.select ~read:[ fd ] ~timeout_us:2_000_000 () with
         | Ok (_ :: _, _) ->
           let buf = Bytes.create 8 in
           ignore (Unistd.recv fd buf (Bytes.length buf))
         | Ok ([], _) | Error _ -> ())));
    ignore (Unistd.close fd)

(* --- driver -------------------------------------------------------------- *)

let write_summary p stats mode =
  let text =
    Printf.sprintf "mode=%s clients=%d conns=%d ops=%d errors=%d\n"
      (mode_name mode) p.clients stats.conns stats.ops stats.errors
  in
  match
    Unistd.open_ summary_path
      Flags.Open.(o_wronly lor o_creat lor o_trunc) 0o644
  with
  | Error _ -> ()
  | Ok fd ->
    ignore (Unistd.write_all fd text);
    ignore (Unistd.close fd)

let listen_socket p =
  match Unistd.socket () with
  | Error _ -> None
  | Ok lfd -> (
    match Unistd.bind lfd addr with
    | Error _ ->
      ignore (Unistd.close lfd);
      None
    | Ok () -> (
      match Unistd.listen lfd p.backlog with
      | Error _ ->
        ignore (Unistd.close lfd);
        None
      | Ok () -> Some lfd))

let body ?(params = default_params) ?stats ~mode () =
  let p = params in
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  (* bind + listen in the driver before forking anything: clients can
     never see ECONNREFUSED, and (with batch = 1) the fork order —
     hence pid assignment — is independent of scheduling *)
  match listen_socket p with
  | None -> 1
  | Some lfd ->
  match Unistd.fork ~child:(fun () -> server p mode lfd) with
  | Error _ ->
    ignore (Unistd.close lfd);
    1
  | Ok server_pid ->
    ignore (Unistd.close lfd);
    (* clients in bounded waves so ~batch connections are in flight at
       once; each wave is reaped by pid before the next starts *)
    let idx = ref 0 in
    while !idx < p.clients do
      let wave = min p.batch (p.clients - !idx) in
      let pids = ref [] in
      for i = !idx to !idx + wave - 1 do
        match Unistd.fork ~child:(fun () -> client p stats i) with
        | Ok pid -> pids := pid :: !pids
        | Error _ -> stats.errors <- stats.errors + 1
      done;
      idx := !idx + wave;
      List.iter (fun pid -> ignore (Unistd.waitpid pid 0)) !pids
    done;
    (match mode with
     | Prefork ->
       for _ = 1 to p.workers do
         stop_worker ()
       done
     | Fork_per_conn -> ());
    ignore (Unistd.waitpid server_pid 0);
    write_summary p stats mode;
    if stats.conns = p.clients && stats.errors = 0 then 0 else 1

(* --- wiring --------------------------------------------------------------- *)

let register k =
  Kernel.register_image k "kvd" (fun ~argv ~envp:_ () ->
    let mode =
      if Array.length argv > 1 && argv.(1) = "prefork" then Prefork
      else Fork_per_conn
    in
    let params =
      if Array.length argv > 2 then
        match int_of_string_opt argv.(2) with
        | Some n when n > 0 -> { quick_params with clients = n }
        | _ -> quick_params
      else quick_params
    in
    body ~params ~mode ())

let setup k =
  register k;
  Kernel.mkdir_p k data_dir;
  Kernel.install_image k ~path:"/bin/kvd" ~image:"kvd"
