(** Online invariant auditor: a streaming trace consumer (installed as the
    {!Trace} sink) that checks the overlay's legal-state predicates while
    the simulation runs, in the spirit of self-stabilizing-overlay
    detectors.

    Rules (each with its deliberate exemptions, documented in the
    implementation):

    - ["dup-deliver"] — a unicast (flow, seq) reaches a session at most
      once (post-reroute replays are exempt: the session layer dedupes
      those by design).
    - ["fwd-loop"] — no node forwards the same non-replay (flow, seq)
      twice on the same link.
    - ["recovery-budget"] — every reliable-link NACK is answered by a
      retransmission on that link within 2 s. Links that ever
      flapped are exempt (rerouting, not ARQ, covers stranded gaps), and
      because NACK/retransmission pairing is not observable across sides
      (lseq numbering is per-direction, answers cross in flight), an
      expired NACK is only a violation if the link saw {e no}
      retransmission at all since it — a fully silent sender.
    - ["reroute-budget"] — after a link-down report, the origin's fresher
      LSU reaches the overlay within 1 s (the sub-second-reroute
      claim as a predicate). At expiry only {e flood-active} nodes are
      required — nodes that applied some LSU after the down report; a
      node that applied nothing since then was itself unreachable. An
      origin heard by nobody is treated as partitioned (e.g. a crashed
      node still running local timers), not late.
    - ["fec-ghost"] — FEC never "recovers" a packet the node already
      processed.

    The auditor requires the recorder to be armed ([Trace.enable]); it
    sees only events emitted while it is armed. State is bounded
    (2{^16} keys per packet table) so it can ride along in soaks. A record
    of a new run ({!Trace.record}'s [run]: an experiment's rows are runs)
    resets the packet-identity tables and pending budgets, so identities
    cannot collide across runs. *)

type violation = {
  v_run : int;  (** the run in which the violation was detected *)
  v_ts : int;  (** sim-time at which the violation was detected *)
  v_rule : string;
  v_node : int;
  v_flow : Trace.flow_id;  (** [Trace.no_flow] when no packet context *)
  v_seq : int;
  v_detail : string;
}

val arm : unit -> unit
(** Resets auditor state and installs it as the trace sink. *)

val disarm : unit -> unit
(** Removes the sink; collected violations stay readable. *)

val armed : unit -> bool

val reset : unit -> unit
(** Disarms and forgets all collected state on this domain (for per-run
    isolation; see {!Ctx}). *)

val feed : Trace.record -> unit
(** The sink itself — public so tests can drive the auditor with
    hand-built (or deliberately broken) event streams. *)

val finish : unit -> violation list
(** Final sweep at the current sim-time (expiring overdue budgets), then
    every violation in detection order. Pending budgets that have not yet
    elapsed are not flagged. *)

val violations : unit -> violation list
(** Violations so far, in detection order, without sweeping. *)

val count : unit -> int
val distinct_rules : unit -> string list

val reroute_latencies : unit -> int list
(** Propagation time (µs) of each link-down LSU that did reach the whole
    overlay, in resolution order. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_json : violation -> string
