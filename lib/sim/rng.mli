(** Deterministic pseudo-random numbers (SplitMix64).

    The simulator never uses [Stdlib.Random]: every source of randomness is
    an explicit [Rng.t] derived from the experiment seed, so that every
    experiment table in the paper reproduction is reproducible bit-for-bit.

    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is a tiny, statistically
    solid generator whose [split_named] operation derives independent
    streams for independent model components (one per link loss process,
    one per workload source, ...) without correlation. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val split_named : t -> string -> t
(** [split_named t name] derives a child stream keyed by [name]; calling it
    twice with the same name on generators in the same state yields the same
    stream. Used to give each model component a stable stream regardless of
    construction order. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)

val uniform_range : t -> float -> float -> float
(** [uniform_range t lo hi] is uniform in [\[lo, hi)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
