(** System call numbers.

    The numbering follows 4.3BSD where the call existed there (exit=1,
    fork=2, read=3, ...); the handful of simulator-specific calls
    ([sleepus], [getcwd]) live above 179.  Numeric-layer agents
    register interest by these numbers, exactly as with the Mach 2.5
    interception vector.

    This module holds the numbers only.  Everything else about a call
    (its name, how its arguments decode, its family, its strace names)
    is one row of the table in {!Call}.  The families read off that
    table are smaller than the paper's: 19 calls take a pathname
    against [pathname_set]'s 30, and 23 take or make a tracked
    descriptor against [descriptor_set]'s 48, because this interface
    has 71 calls where 4.3BSD has about 100. *)

val sys_exit : int
val sys_fork : int
val sys_read : int
val sys_write : int
val sys_open : int
val sys_close : int
val sys_wait4 : int
val sys_creat : int
val sys_link : int
val sys_unlink : int
val sys_execve : int
val sys_chdir : int
val sys_fchdir : int
val sys_mknod : int
val sys_chmod : int
val sys_chown : int
val sys_sbrk : int
val sys_lseek : int
val sys_getpid : int
val sys_setuid : int
val sys_getuid : int
val sys_geteuid : int
val sys_alarm : int
val sys_access : int
val sys_sync : int
val sys_kill : int
val sys_stat : int
val sys_getppid : int
val sys_lstat : int
val sys_dup : int
val sys_pipe : int
val sys_getegid : int
val sys_sigaction : int
val sys_getgid : int
val sys_sigprocmask : int
val sys_sigpending : int
val sys_sigsuspend : int
val sys_ioctl : int
val sys_symlink : int
val sys_readlink : int
val sys_umask : int
val sys_fstat : int
val sys_getpagesize : int
val sys_getpgrp : int
val sys_setpgrp : int
val sys_getdtablesize : int
val sys_dup2 : int
val sys_fcntl : int
val sys_select : int
val sys_fsync : int
val sys_socket : int
val sys_connect : int
val sys_accept : int
val sys_send : int
val sys_recv : int
val sys_bind : int
val sys_listen : int
val sys_shutdown : int
val sys_gettimeofday : int
val sys_getrusage : int
val sys_socketpair : int
val sys_settimeofday : int
val sys_rename : int
val sys_truncate : int
val sys_ftruncate : int
val sys_mkdir : int
val sys_rmdir : int
val sys_utimes : int
val sys_getdirentries : int
val sys_sleepus : int
val sys_getcwd : int

