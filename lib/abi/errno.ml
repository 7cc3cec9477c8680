type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EINTR
  | EIO
  | ENXIO
  | E2BIG
  | ENOEXEC
  | EBADF
  | ECHILD
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EBUSY
  | EEXIST
  | EXDEV
  | ENODEV
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | EMFILE
  | ENOTTY
  | EFBIG
  | ENOSPC
  | ESPIPE
  | EROFS
  | EMLINK
  | EPIPE
  | ERANGE
  | EWOULDBLOCK
  | ENOTSOCK
  | EADDRINUSE
  | ECONNRESET
  | EISCONN
  | ENOTCONN
  | ECONNREFUSED
  | ENAMETOOLONG
  | ENOTEMPTY
  | ELOOP
  | ENOSYS

(* Historical 4.3BSD values.  A match, so every lookup is O(1): the
   kernel reads a number per failure ([tabulate]). *)
let info = function
  | EPERM -> (1, "EPERM", "Operation not permitted")
  | ENOENT -> (2, "ENOENT", "No such file or directory")
  | ESRCH -> (3, "ESRCH", "No such process")
  | EINTR -> (4, "EINTR", "Interrupted system call")
  | EIO -> (5, "EIO", "Input/output error")
  | ENXIO -> (6, "ENXIO", "Device not configured")
  | E2BIG -> (7, "E2BIG", "Argument list too long")
  | ENOEXEC -> (8, "ENOEXEC", "Exec format error")
  | EBADF -> (9, "EBADF", "Bad file descriptor")
  | ECHILD -> (10, "ECHILD", "No child processes")
  | EAGAIN -> (11, "EAGAIN", "Resource temporarily unavailable")
  | ENOMEM -> (12, "ENOMEM", "Cannot allocate memory")
  | EACCES -> (13, "EACCES", "Permission denied")
  | EFAULT -> (14, "EFAULT", "Bad address")
  | EBUSY -> (16, "EBUSY", "Device busy")
  | EEXIST -> (17, "EEXIST", "File exists")
  | EXDEV -> (18, "EXDEV", "Cross-device link")
  | ENODEV -> (19, "ENODEV", "Operation not supported by device")
  | ENOTDIR -> (20, "ENOTDIR", "Not a directory")
  | EISDIR -> (21, "EISDIR", "Is a directory")
  | EINVAL -> (22, "EINVAL", "Invalid argument")
  | ENFILE -> (23, "ENFILE", "Too many open files in system")
  | EMFILE -> (24, "EMFILE", "Too many open files")
  | ENOTTY -> (25, "ENOTTY", "Inappropriate ioctl for device")
  | EFBIG -> (27, "EFBIG", "File too large")
  | ENOSPC -> (28, "ENOSPC", "No space left on device")
  | ESPIPE -> (29, "ESPIPE", "Illegal seek")
  | EROFS -> (30, "EROFS", "Read-only file system")
  | EMLINK -> (31, "EMLINK", "Too many links")
  | EPIPE -> (32, "EPIPE", "Broken pipe")
  | ERANGE -> (34, "ERANGE", "Result too large")
  | EWOULDBLOCK -> (35, "EWOULDBLOCK", "Operation would block")
  | ENOTSOCK -> (38, "ENOTSOCK", "Socket operation on non-socket")
  | EADDRINUSE -> (48, "EADDRINUSE", "Address already in use")
  | ECONNRESET -> (54, "ECONNRESET", "Connection reset by peer")
  | EISCONN -> (56, "EISCONN", "Socket is already connected")
  | ENOTCONN -> (57, "ENOTCONN", "Socket is not connected")
  | ECONNREFUSED -> (61, "ECONNREFUSED", "Connection refused")
  | ENAMETOOLONG -> (63, "ENAMETOOLONG", "File name too long")
  | ENOTEMPTY -> (66, "ENOTEMPTY", "Directory not empty")
  | ELOOP -> (62, "ELOOP", "Too many levels of symbolic links")
  | ENOSYS -> (78, "ENOSYS", "Function not implemented")

let all =
  [ EPERM; ENOENT; ESRCH; EINTR; EIO; ENXIO; E2BIG; ENOEXEC; EBADF;
    ECHILD; EAGAIN; ENOMEM; EACCES; EFAULT; EBUSY; EEXIST; EXDEV;
    ENODEV; ENOTDIR; EISDIR; EINVAL; ENFILE; EMFILE; ENOTTY; EFBIG;
    ENOSPC; ESPIPE; EROFS; EMLINK; EPIPE; ERANGE; EWOULDBLOCK; ENOTSOCK;
    EADDRINUSE; ECONNRESET; EISCONN; ENOTCONN; ECONNREFUSED;
    ENAMETOOLONG; ENOTEMPTY; ELOOP; ENOSYS ]

let to_int e =
  let n, _, _ = info e in
  n

let name e =
  let _, s, _ = info e in
  s

let message e =
  let _, _, m = info e in
  m

let of_int n = List.find_opt (fun e -> to_int e = n) all
let of_name s = List.find_opt (fun e -> name e = s) all

let tabulate f =
  let top = List.fold_left (fun m e -> max m (to_int e)) 0 all in
  let slots = Array.make (top + 1) None in
  List.iter (fun e -> slots.(to_int e) <- Some (f e)) all;
  fun e -> Option.get slots.(to_int e)

let pp ppf e = Format.pp_print_string ppf (name e)
