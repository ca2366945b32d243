(** Link bitmasks for unified source-based routing.

    §II-B: "a unified source-based routing mechanism in which each packet is
    stamped with a bitmask indicating exactly the set of overlay links it
    should traverse (where each bit in the bitmask represents an overlay
    link)". A structured overlay has few links (tens to low hundreds), so
    the mask fits in a handful of 64-bit words carried in the packet header.

    The same mechanism expresses a single path, k node-disjoint paths, an
    arbitrary dissemination graph, or constrained flooding (all links). *)

type t

val create : nlinks:int -> t
(** Empty mask sized for a topology with [nlinks] links. *)

val of_links : nlinks:int -> Graph.link list -> t
val full : nlinks:int -> t
(** All links set — constrained flooding. *)

val nlinks : t -> int
val set : t -> Graph.link -> unit
val clear : t -> Graph.link -> unit
val mem : t -> Graph.link -> bool
val count : t -> int
(** Number of links set (the dissemination cost in links). *)

val union : t -> t -> t
val inter : t -> t -> t
val copy : t -> t
val equal : t -> t -> bool
val is_empty : t -> bool
val iter : t -> (Graph.link -> unit) -> unit
val to_links : t -> Graph.link list

val words : t -> int64 array
(** Raw words, for sizing/serialization accounting (header bytes =
    8 × words). *)

val of_words : nlinks:int -> int64 array -> t
(** Rebuilds a mask from raw words (the wire decode path). Bits at or
    above [nlinks] are silently dropped — exactly what re-setting each
    in-range bit individually would keep. The array length must equal
    what {!create} allocates for [nlinks].
    @raise Invalid_argument on a word-count mismatch. *)

val set_word : t -> int -> int64 -> unit
(** [set_word t wi word] overwrites 64-bit word [wi] wholesale, dropping
    bits at or above [nlinks]. *)

val byte_size : t -> int
(** Bytes this mask occupies in a packet header. *)
