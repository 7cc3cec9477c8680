(** Transparent data encryption (§1.4's "transparent data compression
    and/or encryption agents", the encryption half).

    Files under the protected subtrees are stored enciphered; the agent
    deciphers on [read] and enciphers on [write], positionally, so
    unmodified programs see plaintext through any access pattern
    (including seeks) while the bytes at rest are ciphertext.  The
    cipher is an XOR stream keyed by (key, byte offset) — structurally
    a stream cipher, deliberately not a cryptographically serious
    one.

    Declared delta: [Rewrites_results [read; write]] — payload bytes
    change under the protected subtrees; counts, outcomes and shapes
    are untouched. *)

val transform : key:int -> pos:int -> Bytes.t -> off:int -> len:int -> unit
(** XOR a buffer region in place with the keystream starting at file
    position [pos].  Involutive: applying it twice restores the
    original. *)

class agent : key:int -> subtrees:string list -> object
  inherit Toolkit.Sets.descriptor_set

  method files_protected : int
  (** Opens that produced an enciphering descriptor so far. *)
end

val create : key:int -> subtrees:string list -> agent
