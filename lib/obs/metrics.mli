(** Per-domain registry of labelled counters and histograms.

    Handles are created (or looked up) once at component-construction time;
    hot-path updates are O(1) field writes guarded by the owning domain's
    [enabled] flag (embedded in each handle), so the disabled mode costs
    one dereference and a branch. Each handle also carries its own time
    axis, off by default (see {!arm_series}). Histograms are bounded
    log-bucket (powers of two) so long chaos soaks cannot grow memory, unlike
    [Strovl_sim.Stats.Series] which keeps every sample.

    The registry — like all observability state — is {e domain-local}:
    each domain owns an independent registry, so parallel runs scheduled
    on a {!Strovl_par.Pool} neither contend on nor leak counts into each
    other. Handles must be used on the domain that created them. *)

type labels = (string * string) list
(** Sorted on registration; [("link", "3-7")]-style dimensions. *)

val set_enabled : bool -> unit
(** Arms or disarms this domain's registry. Default [true] — the counters
    are the cheap always-available layer; flip off for microbenchmarks.
    When [false] every update on this domain is a no-op. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Records a non-negative integer sample (negative samples clamp to 0)
      into its log2 bucket. *)

  val bucket_of : int -> int
  (** The log2 bucket of a sample: 0 for [v <= 0], else the bit length of
      [v] (bucket [i] holds [2^(i-1) <= v < 2^i]). Constant time. *)

  val count : t -> int
  val sum : t -> int
  val min : t -> int
  (** 0 when empty. *)

  val max : t -> int

  val quantile : t -> float -> float
  (** [quantile h 0.99]: an estimate from the bucket boundaries (geometric
      bucket midpoint); exact enough for summaries, O(buckets). *)

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(upper_bound_exclusive, count)]. *)
end

val counter : ?labels:labels -> string -> Counter.t
val histogram : ?labels:labels -> string -> Histogram.t
(** Get-or-create: the same (name, labels) always returns the same handle,
    so registration is idempotent across repeated component construction.
    Raises [Invalid_argument] if the name exists with a different kind. *)

type value =
  | Counter_v of int
  | Histogram_v of { count : int; sum : int; p50 : float; p99 : float; max : int }

val dump : unit -> (string * labels * value) list
(** Snapshot of every registered metric, sorted by (name, labels). *)

val find_counter : ?labels:labels -> string -> int
(** Current value, 0 when never registered. *)

val reset : unit -> unit
(** Zeroes every registered metric and empties its time axis (handles
    stay valid). *)

val purge : unit -> unit
(** Forgets this domain's registry entirely, re-enables updates and
    disarms the time axis:
    existing handles keep working but are no longer reachable from
    [dump]/[find_counter]. Used by {!Ctx.fresh} to give each scheduled run
    a pristine registry. *)

(** {2 Time axis}

    "How did it evolve", where the totals answer "how many": while armed,
    every update of every handle is also folded into that handle's own
    ring of sim-time buckets (window-aligned, so all metrics share bucket
    edges): a counter's [add k] is one sample [k], so its buckets' sums
    total its value; a histogram's [observe v] is one sample [v] (clamped
    as the histogram clamps it), so its buckets' counts total its count
    while the ring has not wrapped. A bucket belongs to one run
    ({!Trace.run}): a new run closes the open bucket, so within a run
    [p_t0] only grows. Off by default; when off, an update costs one more
    branch. *)

type point = {
  p_run : int;  (** the run whose samples the bucket holds *)
  p_t0 : int;  (** bucket start, sim-time µs (multiple of the window) *)
  p_n : int;  (** samples folded into this bucket *)
  p_sum : int;
  p_max : int;
}

val arm_series : window:int -> capacity:int -> unit
(** Arms this domain's time axis and empties every handle's ring until
    {!purge} ({!Ctx.fresh}) disarms it: buckets [window] sim-µs wide, the
    most recent [capacity] closed ones kept per handle. Raises
    [Invalid_argument] unless both are positive. *)

val series : unit -> (string * labels * point list) list
(** Every registered metric with at least one bucket (a channel), sorted
    by (name, labels), with its buckets oldest first (the open one
    last). *)
