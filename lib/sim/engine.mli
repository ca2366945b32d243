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
    in. Handles are generation-counted immediates — cancelling a handle
    whose event already fired (and whose slot was recycled) is a safe
    no-op. *)

type t

type handle
(** A cancellable reference to a scheduled event. Handles are unboxed
    (plain immediates) and generation-counted: they stay safe to use after
    the event has fired and its slot was reused. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes an engine whose root RNG is seeded with [seed]
    (default [1L]). *)

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

val clear : t -> unit
(** Drops all pending events (the clock is kept). *)
