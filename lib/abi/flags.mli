(** Flag and constant bits of the 4.3BSD system interface:
    [open] flags, file mode bits, [lseek] whence codes, [fcntl]
    commands, [wait4] options, [access] modes and [ioctl] requests. *)

(** [open(2)] flags. *)
module Open : sig
  val o_rdonly : int
  val o_wronly : int
  val o_rdwr : int
  val o_nonblock : int
  val o_append : int
  val o_creat : int
  val o_trunc : int
  val o_excl : int

  val accmode : int -> int
  (** Extracts the access-mode bits (rdonly/wronly/rdwr). *)

  val readable : int -> bool
  val writable : int -> bool
  val to_string : int -> string
  (** The access mode and every set option bit as [O_*] names joined
      by ['|'], e.g. ["O_WRONLY|O_CREAT|O_TRUNC"]; other bits are not
      shown. *)

  val pp : Format.formatter -> int -> unit
  (** Prints [to_string]. *)
end

(** [st_mode] bits. *)
module Mode : sig
  val ifmt : int
  val ifreg : int
  val ifdir : int
  val iflnk : int
  val ifchr : int
  val ifblk : int
  val ififo : int
  val ifsock : int

  val isuid : int
  val isgid : int
  val isvtx : int

  val irusr : int
  val iwusr : int
  val ixusr : int
  val irgrp : int
  val iwgrp : int
  val ixgrp : int
  val iroth : int
  val iwoth : int
  val ixoth : int

  val perm_bits : int -> int
  (** Lower twelve bits (permissions + setuid/setgid/sticky). *)

  val kind_bits : int -> int
  val is_reg : int -> bool
  val is_dir : int -> bool
  val is_lnk : int -> bool
  val is_chr : int -> bool
  val is_fifo : int -> bool
  val is_sock : int -> bool

  val to_ls_string : int -> string
  (** ls(1)-style rendering, e.g. ["drwxr-xr-x"]. *)
end

module Seek : sig
  val set : int
  val cur : int
  val end_ : int
end

module Fcntl : sig
  val f_dupfd : int
  val f_getfd : int
  val f_setfd : int
  val f_getfl : int
  val f_setfl : int
  val fd_cloexec : int
end

module Wait : sig
  val wnohang : int
  val wuntraced : int

  val exit_status : int -> int
  (** Encode a normal exit with the given code into a wait status. *)

  val sig_status : int -> int
  (** Encode termination by signal [s]. *)

  val stop_status : int -> int
  (** Encode a stop by signal [s]. *)

  val wifexited : int -> bool
  val wexitstatus : int -> int
  val wifsignaled : int -> bool
  val wtermsig : int -> int
  val wifstopped : int -> bool
  val wstopsig : int -> int
end

(** [shutdown(2)] direction codes. *)
module Shut : sig
  val rd : int
  val wr : int
  val rdwr : int
end

(** [sigprocmask] operations. *)
module Sighow : sig
  val sig_block : int
  val sig_unblock : int
  val sig_setmask : int
end

module Access : sig
  val f_ok : int
  val r_ok : int
  val w_ok : int
  val x_ok : int
end

module Ioctl : sig
  val fionread : int
  (** Bytes available to read; result written as a decimal into the
      argument buffer. *)

  val tiocgwinsz : int
  (** Terminal window size, encoded as ["<rows> <cols>"]. *)

  val tiocisatty : int
  (** Nonstandard probe: succeeds only on a terminal device. *)
end
