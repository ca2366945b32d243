(** Deterministic discrete-event simulation engine.

    The engine owns the virtual clock and an event queue. Model components
    schedule closures to run at future instants; [run] executes them in
    timestamp order (FIFO among equal timestamps). Timers are cancellable,
    which the overlay protocols use heavily (e.g. the reliable link re-arms
    its retransmission timer on every ack).

    Events are pooled: slots live in unboxed parallel arrays recycled
    through a free list, and a timer wheel absorbs the dominant short-delay
    class, so [schedule]/[cancel] allocate nothing on the steady-state hot
    path. The wheel starts at 1,024 one-microsecond buckets, so a fresh
    engine holds about 2k words; once 2,048 schedules have missed it while
    within 32.768 ms, it grows once to 32,768 buckets and stays that size.
    Neither the wheel's size nor its growth changes the order events run
    in. The next occupied bucket is found through a summary of the
    wheel's occupancy bitmap, so popping costs the same however sparse the
    wheel is or however far ahead its next event lies. Handles are
    generation-counted immediates — cancelling a handle whose event
    already fired (and whose slot was recycled) is a safe no-op. *)

type t

type handle
(** A cancellable reference to a scheduled event. Handles are unboxed
    (plain immediates) and generation-counted: they stay safe to use after
    the event has fired and its slot was reused. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes an engine whose root RNG is seeded with [seed]
    (default [1L]), and starts a run on it
    ({!Strovl_obs.Trace.start_run}): the flight recorder, the metrics time
    axis and the auditor read this engine's clock and number its run. *)

val reset : t -> seed:int64 -> unit
(** [reset t ~seed] starts a new run on [t], as {!create} does: every
    pending event is dropped with its closure, and the clock, the
    scheduling sequence and the root RNG are what [create ~seed ()] gives.
    The event pool and a grown wheel are kept, which changes no event
    order. Its cost follows the number of pending events. Handles from
    before the reset stay safe no-ops. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root RNG. Components should derive their own stream with
    {!Rng.split_named} at construction time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~at f] runs [f] at absolute time [at >= now t]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_pending : t -> handle -> bool

val run : ?until:Time.t -> t -> unit
(** Executes events until the queue drains or the clock would pass [until]
    (default: drain). Events scheduled exactly at [until] still run. With a
    finite [until], the clock is advanced to [until] on return even when no
    event fell inside the window (virtual time passes regardless). *)

val step : t -> bool
(** Executes the single next event. Returns [false] if the queue is empty. *)

val pending_events : t -> int

val next_event_time : t -> Time.t option
(** Timestamp of the earliest pending event (cancelled events included —
    they still advance the clock when popped), or [None] when the queue is
    empty. A wall-clock driver ({!Strovl_rt.Runtime}) uses this to compute
    how long it may sleep in [select] before the engine has due work. *)

