(** The wall-clock event runtime.

    Runs the identical protocol stack the simulator runs — same
    {!Strovl_sim.Engine} event queue, same handles — but driven by
    CLOCK_MONOTONIC and a [select] loop over non-blocking UDP sockets
    instead of by virtual-time leaps. The trick is that [Engine.run
    ~until] advances the clock to [until] even when no event falls in the
    window: the driver repeatedly catches the engine up to
    [Rt_clock.now_us ()], then sleeps in [select] until the earliest
    pending timer ({!Strovl_sim.Engine.next_event_time}) or a readable
    socket, whichever comes first. Protocol code cannot tell the
    difference; there is no second implementation of timers to drift from
    the simulated one.

    At creation the engine clock is fast-forwarded to the monotonic epoch,
    so [Engine.now] readings (and packet [sent_at] stamps) are monotonic
    microseconds comparable across every process on the host.

    Single-threaded by design, like the simulator: socket callbacks and
    timer events interleave on one domain, so protocol code keeps its
    no-locks discipline.

    Output batching rests on one invariant of {!step}: a zero-delay event
    scheduled during a turn fires in the engine catch-up that opens the
    next turn (or in the current catch-up, when an engine event scheduled
    it), always before the runtime sleeps in [select]. A daemon
    ({!Rt_net}) queues every outgoing datagram of a turn, link frames and
    session replies alike, and sends them from one such event, so nothing
    it sends waits across a sleep. *)

type t

val create : unit -> t
(** One [select] sleep lasts at most 100 ms, so stop requests and
    signal-driven shutdown stay responsive even when the engine is idle. *)

val engine : t -> Strovl_sim.Engine.t
(** The underlying engine — what protocol components are wired to. *)

val now : t -> Strovl_sim.Time.t
(** [Engine.now]: monotonic µs, advanced on every loop iteration. *)

val watch : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Registers a readiness callback: whenever the descriptor selects
    readable, the callback runs (it should drain the socket — level
    triggered). One callback per descriptor; re-registering replaces and
    keeps its place. Within one turn, ready callbacks run in reverse
    registration order ([Unix.select] reports ready descriptors that
    way), so a control descriptor watched after the daemons' sockets is
    read before they act on the same turn's input. *)

val unwatch : t -> Unix.file_descr -> unit

val step : t -> deadline:Strovl_sim.Time.t -> unit
(** One driver iteration: catch the engine up to the wall clock, then
    sleep in [select] (bounded by the next engine timer, [deadline], and
    100 ms) and fire readable callbacks. *)

val run_for : t -> Strovl_sim.Time.t -> unit
(** Drives the loop for a wall-clock duration (or until {!stop}). *)

val run : t -> unit
(** Drives the loop until {!stop} is called — from a socket callback, an
    engine event, or a signal handler. *)

val stop : t -> unit
(** Makes the innermost [run]/[run_for] return after the current
    iteration. Safe to call from a signal handler. *)

