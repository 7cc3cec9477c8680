let intercept_us = 30
let trivial_us = 25      (* getpid-class calls (Table 3-5 prose) *)
let rw_base_us = 62      (* read/write fixed cost before data movement *)
let namei_base_us = 70   (* pathname translation fixed cost *)
let htg_overhead_us = 37
let numeric_dispatch_us = 3
let symbolic_decode_us ~nargs = 73 + (12 * nargs)
let pathname_layer_us = 18
let descriptor_layer_us = 12
let directory_layer_us = 9
let agent_fork_extra_us = 9_500
let agent_execve_extra_us = 9_800

let io_chunk_bytes = 256
let io_chunk_us = 77

let namei_component_us = 125

(* Counted in place: the segments between slashes, except empty ones
   and ".".  A ".." counts, since namei walks it. *)
let rec components_from p i start acc =
  if i = String.length p || p.[i] = '/' then begin
    let len = i - start in
    let acc =
      if len = 0 || (len = 1 && p.[start] = '.') then acc else acc + 1
    in
    if i = String.length p then acc else components_from p (i + 1) (i + 1) acc
  end
  else components_from p (i + 1) start acc

let path_components p = components_from p 0 0 0

let io_us bytes =
  if bytes <= 0 then 0
  else (bytes + io_chunk_bytes - 1) / io_chunk_bytes * io_chunk_us

let namei_us p = namei_base_us + (path_components p * namei_component_us)

let syscall_us (c : Call.t) =
  match c with
  | Getpid | Getppid | Getuid | Geteuid | Getgid | Getegid | Umask _
  | Getpagesize | Getpgrp | Getdtablesize | Sbrk _ -> trivial_us
  | Gettimeofday _ -> 47
  | Getrusage _ -> 60
  | Settimeofday _ | Setuid _ | Setpgrp _ | Alarm _ -> 50
  | Fstat _ -> 120
  | Read (_, _, n) -> rw_base_us + io_us n
  | Write (_, data) -> rw_base_us + io_us (String.length data)
  | Stat (p, _) | Lstat (p, _) -> 142 + (path_components p * namei_component_us)
  | Open (p, _, _) | Creat (p, _) -> namei_us p + 80
  | Access (p, _) -> namei_us p + 40
  | Chmod (p, _) | Chown (p, _, _) | Utimes (p, _, _) -> namei_us p + 90
  | Truncate (p, _) -> namei_us p + 110
  | Unlink p | Rmdir p -> namei_us p + 160
  | Link (p, q) | Rename (p, q) -> namei_us p + namei_us q + 160
  | Symlink (_, p) | Mkdir (p, _) | Mknod (p, _, _) -> namei_us p + 200
  | Readlink (p, _) -> namei_us p + 60
  | Chdir p -> namei_us p + 40
  | Execve (p, _, _) -> namei_us p + 9_300
  | Fork _ -> 10_000
  | Exit _ -> 200
  | Wait4 _ -> 100
  | Close _ -> 60
  | Lseek _ -> 40
  | Dup _ | Dup2 _ -> 50
  | Pipe -> 300
  | Socketpair -> 450
  | Socket -> 350
  | Bind _ -> 110
  | Listen _ -> 90
  | Accept _ -> 420
  | Connect _ -> 480
  | Send (_, data) -> rw_base_us + io_us (String.length data)
  | Recv (_, _, n) -> rw_base_us + io_us n
  | Shutdown _ -> 70
  | Fchdir _ -> 45
  | Kill _ -> 80
  | Sigaction _ -> 60
  | Sigprocmask _ | Sigpending -> 40
  | Sigsuspend _ -> 60
  | Ioctl _ -> 100
  | Fcntl _ -> 40
  | Fsync _ -> 500
  | Select _ -> 140
  | Sync -> 1_000
  | Ftruncate _ -> 110
  | Getdirentries (_, b) -> 180 + io_us (Bytes.length b) / 4
  | Sleepus _ -> 60
  | Getcwd _ -> 300

let paper_c_call_us = 1.22
let paper_virtual_call_us = 1.94
