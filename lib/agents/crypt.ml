open Abi

(* splitmix64-flavoured positional keystream *)
let keystream_byte ~key ~pos =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int key) 0x9E3779B97F4A7C15L)
      (Int64.mul (Int64.of_int pos) 0xBF58476D1CE4E5B9L)
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical z 56) land 0xff

let transform ~key ~pos buf ~off ~len =
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.get buf (off + i)) in
    Bytes.set buf (off + i)
      (Char.chr (c lxor keystream_byte ~key ~pos:(pos + i)))
  done

(* Deciphers reads and enciphers writes at the descriptor's current
   file position, which it learns from the file table through the down
   path. *)
class crypt_object (dl : Toolkit.Downlink.t) ~(key : int) ~(flags : int) =
  object (self)
    inherit Toolkit.open_object dl as super

    method private file_size ~fd =
      let cell = ref None in
      match Toolkit.Downlink.down_call dl (Call.Fstat (fd, cell)), !cell with
      | Ok _, Some st -> st.Stat.st_size
      | _ -> 0

    method private position ~fd ~for_append =
      if for_append then self#file_size ~fd
      else
        match Toolkit.Downlink.down_call dl (Call.Lseek (fd, 0, Flags.Seek.cur)) with
        | Ok { Value.r0; _ } -> r0
        | Error _ -> 0

    (* A hole the kernel would zero-fill must instead hold {e encrypted}
       zeros, or later reads would "decrypt" the zeros into keystream
       garbage.  Writes the gap [from, to) and leaves the offset at
       [to). *)
    method private fill_gap ~fd ~from ~upto =
      if upto > from then begin
        ignore
          (Toolkit.Downlink.down_call dl (Call.Lseek (fd, from, Flags.Seek.set)));
        let rec fill pos =
          if pos < upto then begin
            let n = min 4096 (upto - pos) in
            let chunk = Bytes.make n '\000' in
            transform ~key ~pos chunk ~off:0 ~len:n;
            ignore
              (Toolkit.Downlink.down_call dl
                 (Call.Write (fd, Bytes.to_string chunk)));
            fill (pos + n)
          end
        in
        fill from
      end

    method! read ~fd buf cnt =
      let pos = self#position ~fd ~for_append:false in
      match super#read ~fd buf cnt with
      | Ok r as res ->
        transform ~key ~pos buf ~off:0 ~len:r.Value.r0;
        (* payload decrypted in flight: flag the span for the traces *)
        if r.Value.r0 > 0 then Obs.note_rewrite (Obs.current ());
        res
      | Error _ as res -> res

    method! write ~fd data =
      let size = self#file_size ~fd in
      let pos =
        self#position ~fd
          ~for_append:(flags land Flags.Open.o_append <> 0)
      in
      (* a write past EOF creates a hole first *)
      if pos > size then self#fill_gap ~fd ~from:size ~upto:pos;
      let enc = Bytes.of_string data in
      transform ~key ~pos enc ~off:0 ~len:(Bytes.length enc);
      if Bytes.length enc > 0 then Obs.note_rewrite (Obs.current ());
      super#write ~fd (Bytes.to_string enc)

    method! ftruncate ~fd len =
      let size = self#file_size ~fd in
      if len <= size then super#ftruncate ~fd len
      else begin
        (* an extending truncate is a hole from size to len *)
        let cur = self#position ~fd ~for_append:false in
        self#fill_gap ~fd ~from:size ~upto:len;
        ignore
          (Toolkit.Downlink.down_call dl (Call.Lseek (fd, cur, Flags.Seek.set)));
        Value.ret 0
      end
  end

class agent ~(key : int) ~(subtrees : string list) =
  object (self)
    inherit Toolkit.Sets.descriptor_set as super

    val mutable protected_opens = 0

    method! agent_name = "crypt"

    (* payload bytes under the subtrees are transformed in flight;
       counts, shapes and outcomes are untouched *)
    method! declared_delta =
      [ Delta.Rewrites_results [ Sysno.sys_read; Sysno.sys_write ] ]
    method files_protected = protected_opens
    (* a descriptor_set layer: descriptor calls (incl. open/creat) only *)
    method! init _argv =
      List.iter self#register_interest Call.descriptor_calls

    method! make_open_object ~fd ~path ~flags =
      match path with
      | Some p when Subtree.mem subtrees p ->
        protected_opens <- protected_opens + 1;
        (new crypt_object self#downlink ~key ~flags
          :> Toolkit.Objects.open_object)
      | Some _ | None -> super#make_open_object ~fd ~path ~flags
  end

let create ~key ~subtrees = new agent ~key ~subtrees
