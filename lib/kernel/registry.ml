type image = argv:string array -> envp:string array -> unit -> int

(* One registry per kernel shard (DESIGN.md §3.6): images registered
   against one kernel are invisible to every other, so sequential or
   coexisting kernels cannot leak programs into each other. *)
type t = { images : (string, image) Hashtbl.t }

let create () = { images = Hashtbl.create 32 }

let register t name image = Hashtbl.replace t.images name image
let lookup t name = Hashtbl.find_opt t.images name

let registered t =
  List.sort compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.images [])

let magic = "#!IMAGE "

let file_content name = magic ^ name ^ "\n"

(* Every exec parses a header, so only the image name is copied out:
   the magic is compared in place, by a top-level function that builds
   no closure. *)
let rec has_magic s i =
  i = String.length magic || (s.[i] = magic.[i] && has_magic s (i + 1))

let image_of_content content =
  let ml = String.length magic in
  if String.length content > ml && has_magic content 0 then begin
    match String.index_from content ml '\n' with
    | nl -> Some (String.sub content ml (nl - ml))
    | exception Not_found ->
      Some (String.sub content ml (String.length content - ml))
  end
  else None
