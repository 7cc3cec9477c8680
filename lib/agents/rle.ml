let encode s =
  let n = String.length s in
  let out = Buffer.create (n / 2) in
  let run_length i =
    let rec go j =
      if j < n && j - i < 128 && s.[j] = s.[i] then go (j + 1) else j - i
    in
    go i
  in
  let rec emit i =
    if i < n then begin
      let run = run_length i in
      if run >= 2 then begin
        Buffer.add_char out (Char.chr (257 - run));
        Buffer.add_char out s.[i];
        emit (i + run)
      end
      else begin
        (* gather a literal stretch: stop at 128 bytes or before the
           next run of length >= 3 (a 2-run inside literals is cheaper
           left literal) *)
        let rec literal_end j =
          if j >= n || j - i >= 128 then j
          else if run_length j >= 3 then j
          else literal_end (j + 1)
        in
        let stop = literal_end (i + 1) in
        Buffer.add_char out (Char.chr (stop - i - 1));
        Buffer.add_substring out s i (stop - i);
        emit stop
      end
    end
  in
  emit 0;
  Buffer.contents out

let decode s =
  let n = String.length s in
  let out = Buffer.create (2 * n) in
  let rec go i =
    if i >= n then Ok (Buffer.contents out)
    else begin
      let c = Char.code s.[i] in
      if c < 128 then begin
        let len = c + 1 in
        if i + 1 + len > n then Error "truncated literal run"
        else begin
          Buffer.add_substring out s (i + 1) len;
          go (i + 1 + len)
        end
      end
      else if c = 128 then Error "reserved control byte"
      else if i + 1 >= n then Error "truncated repeat run"
      else begin
        let len = 257 - c in
        Buffer.add_string out (String.make len s.[i + 1]);
        go (i + 2)
      end
    end
  in
  go 0
