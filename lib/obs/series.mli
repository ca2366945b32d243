(** Windowed time-series: the time axis of {!Metrics}.

    Where {!Metrics} answers "how many, in total" and {!Trace} answers
    "what happened to this packet", [Series] answers "how did it evolve".
    It keeps no channels of its own: while armed, every Metrics counter and
    histogram folds each update into fixed-width sim-time buckets
    (window-aligned, so all metrics share bucket edges) and retains the
    most recent [capacity] closed buckets in a ring. A channel is one
    metric, named and labelled as in {!Metrics.dump}. Off by default; when
    off, an update costs the metric one more branch. Like the registry,
    the time axis is {e domain-local}. *)

type labels = Metrics.labels

type point = Metrics.point = {
  p_t0 : int;  (** bucket start, sim-time µs (multiple of the window) *)
  p_n : int;  (** samples folded into this bucket *)
  p_sum : int;
  p_max : int;
}

type ch
(** One metric's buckets, as {!channels} found them. *)

val enable : ?window:int -> ?capacity:int -> unit -> unit
(** Arms sampling and clears every metric's buckets until
    {!Metrics.purge} ({!Ctx.fresh}) disarms it. [window] is the bucket
    width in sim-µs (default 100ms); [capacity] the closed buckets
    retained per metric (default 600 — a minute of sim-time at the
    default window). Raises [Invalid_argument] unless both are positive. *)

val channels : unit -> ch list
(** Every metric with at least one bucket, sorted by (name, labels): a
    counter's [add k] is one sample [k], so its buckets' sums total its
    value; a histogram's [observe v] is one sample [v], so its buckets'
    counts total its count (while the ring has not wrapped). *)

val name : ch -> string
val labels : ch -> labels

val points : ch -> point list
(** Retained buckets, oldest first, including the still-open bucket. *)

val mean : point -> float

val point_json : ch -> point -> string
(** One bucket as a flat JSON object (the JSONL line format). *)
