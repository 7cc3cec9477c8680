let sys_exit = 1
let sys_fork = 2
let sys_read = 3
let sys_write = 4
let sys_open = 5
let sys_close = 6
let sys_wait4 = 7
let sys_creat = 8
let sys_link = 9
let sys_unlink = 10
let sys_execve = 11
let sys_chdir = 12
let sys_fchdir = 13
let sys_mknod = 14
let sys_chmod = 15
let sys_chown = 16
let sys_sbrk = 17
let sys_lseek = 19
let sys_getpid = 20
let sys_setuid = 23
let sys_getuid = 24
let sys_geteuid = 25
let sys_alarm = 27
let sys_access = 33
let sys_sync = 36
let sys_kill = 37
let sys_stat = 38
let sys_getppid = 39
let sys_lstat = 40
let sys_dup = 41
let sys_pipe = 42
let sys_getegid = 43
let sys_sigaction = 46
let sys_getgid = 47
let sys_sigprocmask = 48
let sys_sigpending = 52
let sys_sigsuspend = 53
let sys_ioctl = 54
let sys_symlink = 57
let sys_readlink = 58
let sys_umask = 60
let sys_fstat = 62
let sys_getpagesize = 64
let sys_getpgrp = 81
let sys_setpgrp = 82
let sys_getdtablesize = 89
let sys_dup2 = 90
let sys_fcntl = 92
let sys_select = 93
let sys_fsync = 95
let sys_socket = 97
let sys_connect = 98
let sys_accept = 99
let sys_send = 101
let sys_recv = 102
let sys_bind = 104
let sys_listen = 106
let sys_gettimeofday = 116
let sys_getrusage = 117
let sys_settimeofday = 122
let sys_shutdown = 134
let sys_socketpair = 135
let sys_rename = 128
let sys_truncate = 129
let sys_ftruncate = 130
let sys_mkdir = 136
let sys_rmdir = 137
let sys_utimes = 138
let sys_getdirentries = 156
let sys_sleepus = 180
let sys_getcwd = 181

let table =
  [ sys_exit, "exit"; sys_fork, "fork"; sys_read, "read";
    sys_write, "write"; sys_open, "open"; sys_close, "close";
    sys_wait4, "wait4"; sys_creat, "creat"; sys_link, "link";
    sys_unlink, "unlink"; sys_execve, "execve"; sys_chdir, "chdir";
    sys_fchdir, "fchdir"; sys_mknod, "mknod"; sys_chmod, "chmod";
    sys_chown, "chown"; sys_sbrk, "sbrk"; sys_lseek, "lseek";
    sys_getpid, "getpid"; sys_setuid, "setuid"; sys_getuid, "getuid";
    sys_geteuid, "geteuid"; sys_alarm, "alarm"; sys_access, "access";
    sys_sync, "sync"; sys_kill, "kill"; sys_stat, "stat";
    sys_getppid, "getppid"; sys_lstat, "lstat"; sys_dup, "dup";
    sys_pipe, "pipe"; sys_getegid, "getegid";
    sys_sigaction, "sigaction"; sys_getgid, "getgid";
    sys_sigprocmask, "sigprocmask"; sys_sigpending, "sigpending";
    sys_sigsuspend, "sigsuspend"; sys_ioctl, "ioctl";
    sys_symlink, "symlink"; sys_readlink, "readlink"; sys_umask, "umask";
    sys_fstat, "fstat"; sys_getpagesize, "getpagesize";
    sys_getpgrp, "getpgrp"; sys_setpgrp, "setpgrp";
    sys_getdtablesize, "getdtablesize"; sys_dup2, "dup2";
    sys_fcntl, "fcntl"; sys_select, "select"; sys_fsync, "fsync";
    sys_socket, "socket"; sys_connect, "connect"; sys_accept, "accept";
    sys_send, "send"; sys_recv, "recv"; sys_bind, "bind";
    sys_listen, "listen"; sys_shutdown, "shutdown";
    sys_gettimeofday, "gettimeofday"; sys_getrusage, "getrusage";
    sys_socketpair, "socketpair"; sys_settimeofday, "settimeofday";
    sys_rename, "rename"; sys_truncate, "truncate";
    sys_ftruncate, "ftruncate"; sys_mkdir, "mkdir"; sys_rmdir, "rmdir";
    sys_utimes, "utimes"; sys_getdirentries, "getdirentries";
    sys_sleepus, "sleepus"; sys_getcwd, "getcwd" ]

let max_sysno = List.fold_left (fun a (n, _) -> max a n) 0 table

let name n =
  match List.assoc_opt n table with
  | Some s -> s
  | None -> Printf.sprintf "syscall#%d" n

let of_name s =
  let rec search = function
    | [] -> None
    | (n, s') :: _ when s' = s -> Some n
    | _ :: rest -> search rest
  in
  search table

let all = List.sort compare (List.map fst table)

let is_valid n = List.mem_assoc n table

let pathname_calls =
  [ sys_open; sys_creat; sys_link; sys_unlink; sys_execve; sys_chdir;
    sys_mknod; sys_chmod; sys_chown; sys_access; sys_stat; sys_lstat;
    sys_symlink; sys_readlink; sys_rename; sys_truncate; sys_mkdir;
    sys_rmdir; sys_utimes ]

let descriptor_calls =
  [ sys_read; sys_write; sys_close; sys_fchdir; sys_lseek; sys_dup;
    sys_dup2; sys_pipe; sys_ioctl; sys_fstat; sys_fcntl; sys_fsync;
    sys_ftruncate; sys_getdirentries; sys_open; sys_creat;
    sys_bind; sys_listen; sys_accept; sys_connect; sys_send; sys_recv;
    sys_shutdown ]

let uses_pathname n = List.mem n pathname_calls
let uses_descriptor n = List.mem n descriptor_calls

let file_calls =
  List.sort_uniq compare (pathname_calls @ descriptor_calls)
