(** Windowed time-series: bounded rings of sim-time-bucketed snapshots.

    Where {!Metrics} answers "how many, in total" and {!Trace} answers
    "what happened to this packet", [Series] answers "how did it evolve":
    each channel accumulates samples into fixed-width sim-time buckets
    (window-aligned, so all channels share bucket edges) and retains the
    most recent [capacity] closed buckets in a ring. Off by default; when
    off, [add] is one [ref] check, so instrumentation sites can stay
    armed through soaks.

    Channels and the armed flag are {e domain-local}: each parallel run
    owns its own registry, and a channel must be used on the domain that
    created it. *)

type labels = (string * string) list

type point = {
  p_t0 : int;  (** bucket start, sim-time µs (multiple of the window) *)
  p_n : int;  (** samples folded into this bucket *)
  p_sum : int;
  p_max : int;
}

type ch
(** A channel: one named, labelled series. *)

val armed : unit -> bool
(** Whether this domain's sampling is armed. Hot sites should guard with
    [if Series.armed () then ...] before computing sample values. *)

val enable : ?window:int -> ?capacity:int -> unit -> unit
(** Arms sampling and clears every channel's data. [window] is the bucket
    width in sim-µs (default 100ms); [capacity] the closed buckets
    retained per channel (default 600 — a minute of sim-time at the
    default window). *)

val disable : unit -> unit
(** Disarms sampling; retained buckets stay readable. *)

val clear : unit -> unit
(** Empties every channel's buckets but keeps sampling armed. *)

val reset : unit -> unit
(** Disarms and forgets every channel (for test isolation). *)

val channel : ?labels:labels -> string -> ch
(** Finds or creates the channel for (name, labels). Cheap; safe to call
    at construction time even when sampling is off. Labels are stored
    sorted, so order does not matter for identity. *)

val add : ch -> int -> unit
(** Folds one sample into the current bucket (O(1); no-op when off). *)

val incr : ch -> unit
(** [add ch 1]. *)

val points : ch -> point list
(** Retained buckets, oldest first, including the still-open bucket. *)

val channels : unit -> ch list
(** Every channel with at least one bucket, sorted by (name, labels). *)

val name : ch -> string
val labels : ch -> labels
val mean : point -> float

val point_json : ch -> point -> string
(** One bucket as a flat JSON object (the JSONL line format). *)
