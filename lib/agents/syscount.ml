open Abi

class agent =
  object (self)
    inherit Toolkit.numeric_syscall as super

    val counts = Array.make (Call.max_sysno + 1) 0
    val sig_counts = Array.make (Signal.max_signal + 1) 0

    method! agent_name = "syscount"
    (* counts every call by definition: full interest is the point *)
    method! init _argv = self#register_interest_all

    method! syscall env =
      let n = Envelope.number env in
      if n >= 0 && n < Array.length counts then
        counts.(n) <- counts.(n) + 1;
      super#syscall env

    method! signal_handler s =
      if Signal.is_valid s then sig_counts.(s) <- sig_counts.(s) + 1;
      super#signal_handler s

    method count_of n =
      if n >= 0 && n < Array.length counts then counts.(n) else 0

    method counts =
      List.filter_map
        (fun n -> if counts.(n) > 0 then Some (n, counts.(n)) else None)
        Call.all

    method signal_counts =
      let rec go s acc =
        if s > Signal.max_signal then List.rev acc
        else if sig_counts.(s) > 0 then go (s + 1) ((s, sig_counts.(s)) :: acc)
        else go (s + 1) acc
      in
      go 1 []

    method total = Array.fold_left ( + ) 0 counts

    method report =
      let b = Buffer.create 256 in
      Buffer.add_string b "syscall counts:\n";
      List.iter
        (fun (n, c) ->
          Buffer.add_string b (Printf.sprintf "  %-16s %6d\n" (Call.name n) c))
        self#counts;
      (match self#signal_counts with
       | [] -> ()
       | sigs ->
         Buffer.add_string b "signal counts:\n";
         List.iter
           (fun (s, c) ->
             Buffer.add_string b
               (Printf.sprintf "  %-16s %6d\n" (Signal.name s) c))
           sigs);
      Buffer.add_string b (Printf.sprintf "total: %d\n" self#total);
      Buffer.contents b

    method write_report ~fd =
      ignore (self#down (Call.Write (fd, self#report)))
  end

let create () = new agent
