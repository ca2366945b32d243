(** Flight-recorder tracing: a bounded ring buffer of typed overlay events.

    The recorder is {e domain-local} and off by default: each domain owns
    an independent ring, clock hook and sink, so parallel runs on a
    {!Strovl_par.Pool} record disjoint streams whose digests match a
    sequential run exactly. When off, the hot-path cost at an
    instrumentation site is one domain-local-storage read and a branch
    (sites guard with [if armed () then emit ...]). When on, every event
    records who
    ([node]), what ([event]), which packet ([flow], [seq]) and when
    (sim-time, read from the clock hook the simulation engine installs), so
    a packet's full causal path through the overlay — enqueue, per-hop
    forwards, drops with reasons, retransmissions, reroutes, delivery — can
    be reconstructed after the fact. The ring keeps the most recent
    [capacity] events; older ones are overwritten (it is a flight recorder,
    not a log).

    A {e run} is one simulation from time 0: every engine starts one when
    it is created or reset ({!start_run}). Runs on a domain are numbered
    1, 2, ... from the last {!reset}, so one experiment's rows (each its
    own run, its clock starting again at 0) are told apart by their index
    rather than by a clock that goes back. *)

type flow_id = { fi_src : int; fi_sport : int; fi_dst : int; fi_dport : int }
(** Library-neutral flow identity. [fi_dst] carries the destination
    encoding produced by [Packet.obs_flow] (nodes as themselves, groups
    offset into distinct ranges). *)

val no_flow : flow_id
(** Placeholder for events with no packet context (reroutes, LSU floods,
    wire-level drops): all fields [-1]. *)

type reason =
  | No_route
  | Ttl
  | Auth
  | Dup
  | Backpressure
  | Overload  (** node CPU queue overflow (§II-D) *)
  | Queue_full  (** link serialization queue tail-drop *)
  | Priority_evict  (** IT-Priority oldest-lowest eviction (§IV-B) *)
  | Wire_loss  (** lost on an underlay fiber segment or peering point *)

type event =
  | Enqueue  (** packet entered the overlay at this node *)
  | Forward of int  (** sent onward on link [l] *)
  | Drop of reason
  | Retransmit of int  (** link protocol retransmission on link [l] *)
  | Nack of int * int  (** recovery request on link [l] for lseq [n] *)
  | Reroute of int * bool  (** local view of link [l] flipped to up/down *)
  | Lsu_flood
  | Deliver  (** handed to a local session *)
  | Fec_recover of int  (** reconstructed from parity on link [l] *)
  | Lsu_apply of int
      (** accepted a fresher link-state update originated by node
          [origin] *)
  | Forward_replay of int
      (** re-forward of a stranded packet after a reroute (link [l]);
          distinct from [Forward] so duplicate-suppression invariants can
          exempt legitimate replays *)
  | Deliver_replay  (** delivery of a replayed packet (post-reroute copy) *)
  | Strike of int * int
      (** NM-Strikes recovery request on link [l] for lseq [n]; unlike
          [Nack], a strike is semi-reliable and may legitimately go
          unanswered once its deadline budget lapses *)

type record = {
  run : int;  (** index of the run that recorded the event (see {!run}) *)
  ts : int;  (** sim-time (µs) at which the event was recorded *)
  node : int;
  flow : flow_id;
  seq : int;
  ev : event;
}

val armed : unit -> bool
(** Whether this domain's recorder is armed. Instrumentation sites must
    check this before building event arguments so the disabled path stays
    cheap. *)

val start_run : (unit -> int) -> unit
(** Called by the simulation engine whenever it is created or reset: binds
    [f] as the clock [emit] reads and bumps this domain's run index. The
    one place a run begins. *)

val now : unit -> int
(** Current sim-time as the recorder sees it (the clock the current run
    bound; 0 before any run). Lets other observability layers (the
    {!Metrics} time axis, [Audit]) bucket by the same clock. *)

val run : unit -> int
(** This domain's current run index: 0 before any run since {!reset},
    then 1, 2, ... one per {!start_run}. *)

val reset : unit -> unit
(** {!disable}, unbind the clock (back to the constant 0, so no engine
    stays reachable through it) and put the run index back to 0: the
    recorder a new domain sees. Used by {!Ctx.fresh}. *)

val set_sink : (record -> unit) -> unit
(** Installs a streaming consumer: every record written to the ring is
    also passed to the sink, synchronously, in emission order. One sink at
    a time (a new [set_sink] replaces the previous one). The sink only
    sees events while the recorder is armed. *)

val clear_sink : unit -> unit
(** Removes the streaming consumer. *)

val default_capacity : int
(** 2^18 events: the ring [enable] arms when no capacity is given. *)

val enable : ?capacity:int -> unit -> unit
(** Arms the recorder with a fresh ring of [capacity] events (default
    {!default_capacity}). *)

val disable : unit -> unit
(** Disarms and discards the ring. *)

val emit : ?flow:flow_id -> ?seq:int -> node:int -> event -> unit
(** Records one event at the current sim-time. No-op when disarmed. *)

val length : unit -> int
(** Events currently retained. *)

val total : unit -> int
(** Events ever emitted since [enable] (≥ [length]; the difference
    is how many the ring overwrote). *)

val records : unit -> record list
(** Retained events in chronological order. *)

val iter : (record -> unit) -> unit

val digest : unit -> int64
(** FNV-1a hash over the retained events (and [total]), for determinism
    checks: same seed, same workload ⇒ same digest. A record's [run] is
    not hashed. *)

val reason_to_string : reason -> string
val event_to_string : event -> string
val pp_record : Format.formatter -> record -> unit
