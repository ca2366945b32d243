(** Wall-clock time for the real-time runtime.

    CLOCK_MONOTONIC via a [clock_gettime] stub — immune to NTP steps and
    [settimeofday], which is what a protocol stack full of timeouts wants.
    Expressed in the engine's native unit (integer microseconds,
    {!Strovl_sim.Time.t}) so wall instants can be fed straight into
    [Engine.run ~until] and compared with packet [sent_at] stamps.

    The epoch is the kernel's (boot-ish, unspecified), not the
    simulation's zero. It is *shared by every process on one host*, which
    is why cross-daemon one-way latency measurements are meaningful on a
    loopback overlay; across real hosts they would need clock sync (see
    EXPERIMENTS.md on sim-vs-real parity). *)

val now_ns : unit -> int64
(** Raw CLOCK_MONOTONIC reading, nanoseconds. *)

val now_us : unit -> Strovl_sim.Time.t
(** [now_ns () / 1000] as an [int] — engine-compatible microseconds.
    63 bits of µs is ~292k years; no wraparound concern. *)
