open Abi

let replayable_calls =
  [ Sysno.sys_read; Sysno.sys_stat; Sysno.sys_lstat; Sysno.sys_fstat;
    Sysno.sys_gettimeofday; Sysno.sys_readlink; Sysno.sys_getcwd;
    Sysno.sys_getdirentries ]

let replayable num = List.mem num replayable_calls

(* --- journal entries and their wire form -------------------------------- *)

type entry = {
  e_pid : int;
  e_num : int;
  e_r0 : int;
  e_r1 : int;
  e_err : int;   (* 0 = success *)
  e_out : string;
}

(* the out field carries a '=' marker so an empty payload still
   occupies its column *)
let entry_line e =
  Printf.sprintf "J %d %d %d %d %d =%s\n" e.e_pid e.e_num e.e_r0 e.e_r1
    e.e_err (Dfs_record.quote e.e_out)

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "J"; pid; num; r0; r1; err; out ] ->
    (match
       ( int_of_string_opt pid, int_of_string_opt num, int_of_string_opt r0,
         int_of_string_opt r1, int_of_string_opt err )
     with
     | Some e_pid, Some e_num, Some e_r0, Some e_r1, Some e_err
       when String.length out > 0 && out.[0] = '=' ->
       Some
         { e_pid; e_num; e_r0; e_r1; e_err;
           e_out =
             Dfs_record.unquote (String.sub out 1 (String.length out - 1)) }
     | _ -> None)
  | _ -> None

(* --- stat and timeval codecs ------------------------------------------------ *)

let stat_to_string (st : Stat.t) =
  String.concat ","
    (List.map string_of_int
       [ st.st_dev; st.st_ino; st.st_mode; st.st_nlink; st.st_uid;
         st.st_gid; st.st_rdev; st.st_size; st.st_atime; st.st_mtime;
         st.st_ctime; st.st_blksize; st.st_blocks ])

let stat_of_string s =
  match List.map int_of_string_opt (String.split_on_char ',' s) with
  | [ Some st_dev; Some st_ino; Some st_mode; Some st_nlink; Some st_uid;
      Some st_gid; Some st_rdev; Some st_size; Some st_atime;
      Some st_mtime; Some st_ctime; Some st_blksize; Some st_blocks ] ->
    Some
      { Stat.st_dev; st_ino; st_mode; st_nlink; st_uid; st_gid; st_rdev;
        st_size; st_atime; st_mtime; st_ctime; st_blksize; st_blocks }
  | _ -> None

let tv_to_string (sec, usec) = Printf.sprintf "%d,%d" sec usec

let tv_of_string s =
  match String.split_on_char ',' s with
  | [ a; b ] ->
    (match int_of_string_opt a, int_of_string_opt b with
     | Some sec, Some usec -> Some (sec, usec)
     | _ -> None)
  | _ -> None

(* Extract the out-of-band results a call wrote into its arguments. *)
let capture_out (w : Value.wire) (r0 : int) =
  let buf_prefix i =
    match Value.Get.buf w i with
    | Ok b when r0 >= 0 -> Bytes.sub_string b 0 (min r0 (Bytes.length b))
    | Ok _ | Error _ -> ""
  in
  let stat_cell i =
    match Value.Get.stat_ref w i with
    | Ok { contents = Some st } -> stat_to_string st
    | Ok _ | Error _ -> ""
  in
  let n = w.num in
  if n = Sysno.sys_read || n = Sysno.sys_getdirentries
     || n = Sysno.sys_readlink || n = Sysno.sys_getcwd
  then
    buf_prefix (if n = Sysno.sys_read || n = Sysno.sys_getdirentries then 1
                else if n = Sysno.sys_readlink then 1
                else 0)
  else if n = Sysno.sys_stat || n = Sysno.sys_lstat || n = Sysno.sys_fstat
  then stat_cell 1
  else if n = Sysno.sys_gettimeofday then
    match Value.Get.tv_ref w 0 with
    | Ok { contents = Some tv } -> tv_to_string tv
    | Ok _ | Error _ -> ""
  else ""

(* Write a journaled out-value back into the live call's arguments. *)
let restore_out (w : Value.wire) (e : entry) =
  let fill_buf i =
    match Value.Get.buf w i with
    | Ok b ->
      let n = min (String.length e.e_out) (Bytes.length b) in
      Bytes.blit_string e.e_out 0 b 0 n
    | Error _ -> ()
  in
  let fill_stat i =
    match Value.Get.stat_ref w i with
    | Ok cell -> cell := stat_of_string e.e_out
    | Error _ -> ()
  in
  let n = w.num in
  if n = Sysno.sys_read || n = Sysno.sys_getdirentries
     || n = Sysno.sys_readlink
  then fill_buf 1
  else if n = Sysno.sys_getcwd then fill_buf 0
  else if n = Sysno.sys_stat || n = Sysno.sys_lstat || n = Sysno.sys_fstat
  then fill_stat 1
  else if n = Sysno.sys_gettimeofday then
    match Value.Get.tv_ref w 0 with
    | Ok cell -> cell := tv_of_string e.e_out
    | Error _ -> ()

(* --- the recorder -------------------------------------------------------------- *)

class recorder =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val journal_buf = Buffer.create 4096
    val mutable count = 0

    method! agent_name = "recorder"
    method journal = Buffer.contents journal_buf
    method entries = count

    (* Only replayable calls are journaled, so only they need
       intercepting (the loader adds fork/execve/exit itself). *)
    method! init _argv = List.iter self#register_interest replayable_calls

    method! syscall env =
      let res = super#syscall env in
      let num = Envelope.number env in
      if replayable num then begin
        (* serialising the entry is real work *)
        Toolkit.Boilerplate.charge 25;
        let pid = (Kernel.Uspace.self ()).Kernel.Proc.pid in
        (* out-parameters are shared refs/buffers, so materializing the
           wire form after the call still sees the call's results *)
        let w = Envelope.wire env in
        let e =
          match res with
          | Ok { Value.r0; r1 } ->
            { e_pid = pid; e_num = num; e_r0 = r0; e_r1 = r1; e_err = 0;
              e_out = capture_out w r0 }
          | Error err ->
            { e_pid = pid; e_num = num; e_r0 = -1; e_r1 = 0;
              e_err = Errno.to_int err; e_out = "" }
        in
        Buffer.add_string journal_buf (entry_line e);
        count <- count + 1
      end;
      res
  end

(* --- the replayer ---------------------------------------------------------------- *)

class replayer ~(journal : string) =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val queues : (int, entry Queue.t) Hashtbl.t = Hashtbl.create 8
    val mutable consumed = 0
    val mutable desyncs = 0

    method! agent_name = "replayer"
    method consumed = consumed
    method desyncs = desyncs

    (* input calls answer from the journal, not the kernel — results
       are rewritten wholesale, and a diverging call fails with EIO
       rather than serving wrong data *)
    method! declared_delta =
      [ Delta.Rewrites_results replayable_calls;
        Delta.May_fail { sysnos = replayable_calls; errnos = [ Errno.EIO ] } ]

    method! init _argv =
      List.iter self#register_interest replayable_calls;
      List.iter
        (fun line ->
          match parse_line line with
          | Some e ->
            let q =
              match Hashtbl.find_opt queues e.e_pid with
              | Some q -> q
              | None ->
                let q = Queue.create () in
                Hashtbl.replace queues e.e_pid q;
                q
            in
            Queue.add e q
          | None -> ())
        (String.split_on_char '\n' journal)

    method! syscall env =
      let num = Envelope.number env in
      if not (replayable num) then super#syscall env
      else begin
        Toolkit.Boilerplate.charge 20;
        let pid = (Kernel.Uspace.self ()).Kernel.Proc.pid in
        match Hashtbl.find_opt queues pid with
        | Some q when not (Queue.is_empty q) ->
          let e = Queue.pop q in
          if e.e_num <> num then begin
            desyncs <- desyncs + 1;
            Error Errno.EIO
          end
          else begin
            consumed <- consumed + 1;
            if e.e_err <> 0 then
              Error
                (Option.value ~default:Errno.EIO (Errno.of_int e.e_err))
            else begin
              restore_out (Envelope.wire env) e;
              Ok { Value.r0 = e.e_r0; r1 = e.e_r1 }
            end
          end
        | Some _ | None ->
          desyncs <- desyncs + 1;
          Error Errno.EIO
      end
  end

let create_recorder () = new recorder
let create_replayer ~journal = new replayer ~journal
