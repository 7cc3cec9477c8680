open Abi

type mount = {
  point : string;
  members : string list;
}

(* "/a/b/" -> "/a/b"; keeps "/" itself *)
let strip_trailing_slash p =
  let n = String.length p in
  if n > 1 && p.[n - 1] = '/' then String.sub p 0 (n - 1) else p

let is_under ~point path =
  let pl = String.length point in
  String.length path > pl + 1
  && String.sub path 0 pl = point
  && path.[pl] = '/'

let parse_mount_arg arg =
  match String.index_opt arg '=' with
  | None -> None
  | Some i ->
    let point = strip_trailing_slash (String.sub arg 0 i) in
    let members =
      String.sub arg (i + 1) (String.length arg - i - 1)
      |> String.split_on_char ':'
      |> List.filter (fun s -> s <> "")
      |> List.map strip_trailing_slash
    in
    if point = "" || members = [] then None else Some { point; members }

class agent =
  object (self)
    inherit Toolkit.pathname_set as super

    val mutable mounts : mount list = []
    val mutable pending_mount : mount option = None

    method! agent_name = "union"

    (* directory reads under a mount point are merged from the member
       directories, and path lookups resolve through them *)
    method! declared_delta =
      [ Delta.Rewrites_results
          [ Sysno.sys_getdirentries; Sysno.sys_stat; Sysno.sys_lstat ] ]
    method mounts = mounts

    method add_mount ~point ~members =
      mounts <-
        mounts
        @ [ { point = strip_trailing_slash point;
              members = List.map strip_trailing_slash members } ]

    method! init argv =
      (* path translation touches file calls only *)
      List.iter self#register_interest Call.file_calls;
      Array.iter
        (fun arg ->
          match parse_mount_arg arg with
          | Some m -> mounts <- mounts @ [ m ]
          | None -> ())
        argv

    method private mount_of path =
      let path = strip_trailing_slash path in
      List.find_opt (fun m -> m.point = path) mounts

    (* First member containing the name wins; a missing name resolves
       to the first member so that creations land there. *)
    method translate path =
      let clean = strip_trailing_slash path in
      let rec search = function
        | [] -> path
        | m :: rest ->
          if m.point = clean then List.hd m.members
          else if is_under ~point:m.point path then begin
            let rest_path =
              String.sub path (String.length m.point)
                (String.length path - String.length m.point)
            in
            let existing =
              List.find_opt
                (fun member ->
                  match
                    self#down (Call.Access (member ^ rest_path, 0))
                  with
                  | Ok _ -> true
                  | Error _ -> false)
                m.members
            in
            match existing with
            | Some member -> member ^ rest_path
            | None -> List.hd m.members ^ rest_path
          end
          else search rest
      in
      search mounts

    method! getpn path =
      Toolkit.Boilerplate.charge Cost_model.pathname_layer_us;
      Ok (self#make_pathname (self#translate path))

    (* Opening the union directory itself: open the first member and
       hand back a directory object that iterates all of them. *)
    method! sys_open path flags mode =
      match self#mount_of path with
      | Some m when not (Flags.Open.writable flags) ->
        pending_mount <- Some m;
        let res =
          self#track_new_fd ~path:(Some path) ~flags
            (self#down (Call.Open (List.hd m.members, flags, mode)))
        in
        pending_mount <- None;
        res
      | Some _ | None -> super#sys_open path flags mode

    method! make_open_object ~fd ~path ~flags =
      match pending_mount with
      | Some m ->
        (new Merged_dir.merged_directory self#downlink
           ~extra_paths:(List.tl m.members)
           ~hide:(fun _ -> false)
           ()
          :> Toolkit.Objects.open_object)
      | None -> super#make_open_object ~fd ~path ~flags
  end

let create ~mounts () =
  let a = new agent in
  List.iter (fun m -> a#add_mount ~point:m.point ~members:m.members) mounts;
  a
