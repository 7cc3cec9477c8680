type t = {
  st_dev : int;
  st_ino : int;
  st_mode : int;
  st_nlink : int;
  st_uid : int;
  st_gid : int;
  st_rdev : int;
  st_size : int;
  st_atime : int;
  st_mtime : int;
  st_ctime : int;
  st_blksize : int;
  st_blocks : int;
}

let zero = {
  st_dev = 0; st_ino = 0; st_mode = 0; st_nlink = 0; st_uid = 0;
  st_gid = 0; st_rdev = 0; st_size = 0; st_atime = 0; st_mtime = 0;
  st_ctime = 0; st_blksize = 512; st_blocks = 0;
}

