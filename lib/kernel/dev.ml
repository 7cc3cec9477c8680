type ops = {
  name : string;
  read : Bytes.t -> off:int -> len:int -> int;
  write : string -> int;
  isatty : bool;
}

let rdev_null = 0x0102
let rdev_zero = 0x0103
let rdev_console = 0x0001
let rdev_tty = 0x0002

let null_ops = {
  name = "null";
  read = (fun _ ~off:_ ~len:_ -> 0);
  write = String.length;
  isatty = false;
}

let zero_ops = {
  name = "zero";
  read = (fun buf ~off ~len -> Bytes.fill buf off len '\000'; len);
  write = String.length;
  isatty = false;
}

module Console = struct
  type t = {
    out : Buffer.t;
    mutable input : string;
    mutable input_pos : int;
    mutable echo : (string -> unit) option;
  }

  let create () =
    { out = Buffer.create 256; input = ""; input_pos = 0; echo = None }

  let feed t s =
    (* compact consumed input before appending *)
    if t.input_pos > 0 then begin
      t.input <-
        String.sub t.input t.input_pos
          (String.length t.input - t.input_pos);
      t.input_pos <- 0
    end;
    t.input <- t.input ^ s

  let contents t = Buffer.contents t.out
  let set_echo t f = t.echo <- Some f

  let ops t = {
    name = "console";
    read =
      (fun buf ~off ~len ->
        let avail = String.length t.input - t.input_pos in
        let n = min len avail in
        Bytes.blit_string t.input t.input_pos buf off n;
        t.input_pos <- t.input_pos + n;
        n);
    write =
      (fun s ->
        Buffer.add_string t.out s;
        (match t.echo with Some f -> f s | None -> ());
        String.length s);
    isatty = true;
  }
end

type table = (int * ops) list

let standard_table console =
  let cons = Console.ops console in
  [ rdev_null, null_ops;
    rdev_zero, zero_ops;
    rdev_console, cons;
    rdev_tty, cons ]

let rec find table rdev =
  match table with
  | (r, ops) :: rest -> if r = rdev then ops else find rest rdev
  | [] -> raise Not_found
