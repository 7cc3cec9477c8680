module Open = struct
  let o_rdonly = 0x0000
  let o_wronly = 0x0001
  let o_rdwr = 0x0002
  let o_nonblock = 0x0004
  let o_append = 0x0008
  let o_creat = 0x0200
  let o_trunc = 0x0400
  let o_excl = 0x0800

  let accmode f = f land 0x3

  let readable f =
    match accmode f with 0 | 2 -> true | _ -> false

  let writable f =
    match accmode f with 1 | 2 -> true | _ -> false

  let to_string f =
    let acc =
      match accmode f with
      | 0 -> "O_RDONLY"
      | 1 -> "O_WRONLY"
      | 2 -> "O_RDWR"
      | _ -> "O_BADACC"
    in
    let opt = [
      o_nonblock, "O_NONBLOCK"; o_append, "O_APPEND"; o_creat, "O_CREAT";
      o_trunc, "O_TRUNC"; o_excl, "O_EXCL" ] in
    let parts =
      acc
      :: List.filter_map
           (fun (bit, n) -> if f land bit <> 0 then Some n else None)
           opt
    in
    String.concat "|" parts

  let pp ppf f = Format.pp_print_string ppf (to_string f)
end

module Mode = struct
  let ifmt = 0o170000
  let ifreg = 0o100000
  let ifdir = 0o040000
  let iflnk = 0o120000
  let ifchr = 0o020000
  let ifblk = 0o060000
  let ififo = 0o010000
  let ifsock = 0o140000

  let isuid = 0o4000
  let isgid = 0o2000
  let isvtx = 0o1000

  let irusr = 0o400
  let iwusr = 0o200
  let ixusr = 0o100
  let irgrp = 0o040
  let iwgrp = 0o020
  let ixgrp = 0o010
  let iroth = 0o004
  let iwoth = 0o002
  let ixoth = 0o001

  let perm_bits m = m land 0o7777
  let kind_bits m = m land ifmt
  let is_reg m = kind_bits m = ifreg
  let is_dir m = kind_bits m = ifdir
  let is_lnk m = kind_bits m = iflnk
  let is_chr m = kind_bits m = ifchr
  let is_fifo m = kind_bits m = ififo
  let is_sock m = kind_bits m = ifsock

  let to_ls_string m =
    let kind =
      match kind_bits m with
      | k when k = ifdir -> 'd'
      | k when k = iflnk -> 'l'
      | k when k = ifchr -> 'c'
      | k when k = ifblk -> 'b'
      | k when k = ififo -> 'p'
      | k when k = ifsock -> 's'
      | _ -> '-'
    in
    let bit b ch = if m land b <> 0 then ch else '-' in
    let buf = Bytes.create 10 in
    Bytes.set buf 0 kind;
    Bytes.set buf 1 (bit irusr 'r');
    Bytes.set buf 2 (bit iwusr 'w');
    Bytes.set buf 3 (if m land isuid <> 0 then 's' else bit ixusr 'x');
    Bytes.set buf 4 (bit irgrp 'r');
    Bytes.set buf 5 (bit iwgrp 'w');
    Bytes.set buf 6 (if m land isgid <> 0 then 's' else bit ixgrp 'x');
    Bytes.set buf 7 (bit iroth 'r');
    Bytes.set buf 8 (bit iwoth 'w');
    Bytes.set buf 9 (if m land isvtx <> 0 then 't' else bit ixoth 'x');
    Bytes.to_string buf
end

module Seek = struct
  let set = 0
  let cur = 1
  let end_ = 2
end

module Fcntl = struct
  let f_dupfd = 0
  let f_getfd = 1
  let f_setfd = 2
  let f_getfl = 3
  let f_setfl = 4
  let fd_cloexec = 1
end

module Wait = struct
  let wnohang = 1
  let wuntraced = 2

  let exit_status code = (code land 0xff) lsl 8
  let sig_status s = s land 0x7f
  let stop_status s = ((s land 0xff) lsl 8) lor 0o177

  let wifstopped st = st land 0o177 = 0o177
  let wstopsig st = (st lsr 8) land 0xff
  let wifexited st = st land 0x7f = 0 && not (wifstopped st)
  let wexitstatus st = (st lsr 8) land 0xff
  let wifsignaled st = st land 0x7f <> 0 && not (wifstopped st)
  let wtermsig st = st land 0x7f
end

module Shut = struct
  let rd = 0
  let wr = 1
  let rdwr = 2
end

module Sighow = struct
  let sig_block = 1
  let sig_unblock = 2
  let sig_setmask = 3
end

module Access = struct
  let f_ok = 0
  let r_ok = 4
  let w_ok = 2
  let x_ok = 1
end

module Ioctl = struct
  let fionread = 0x4004667f
  let tiocgwinsz = 0x40087468
  let tiocisatty = 0x2000745e
end
