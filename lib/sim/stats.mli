(** Measurement collection for experiments.

    [Series] accumulates raw samples (e.g. per-packet delivery latencies)
    and answers summary queries. All percentile queries use the
    nearest-rank method on the sorted samples. *)

module Series : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val is_empty : t -> bool
  val mean : t -> float
  (** 0 on an empty series. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val percentile : t -> float -> float
  (** [percentile s 99.0] is the nearest-rank p99. 0 on an empty series. *)

  val median : t -> float
  val sum : t -> float
  val samples : t -> float array
  (** A copy of the raw samples, in insertion order. *)

  val jitter : t -> float
  (** Mean absolute difference between consecutive samples (RFC 3550-style
      interarrival jitter when fed per-packet latencies). *)

  val clear : t -> unit
end

val ratio : int -> int -> float
(** [ratio num den] is [num/den] as a float, 0 when [den = 0]. *)
