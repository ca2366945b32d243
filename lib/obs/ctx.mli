(** Per-run observability context control.

    All observability state ({!Metrics} with its time axis, {!Trace}, {!Audit}) is domain-local; [Ctx] additionally isolates successive runs
    that share a domain, which is what makes a pool-scheduled run's output
    independent of scheduling. *)

val fresh : unit -> unit
(** Resets this domain's entire observability state to pristine: auditor
    disarmed and emptied, recorder disarmed, its clock back to the
    constant 0 a new domain reads (so no engine stays reachable through
    it) and its run index back to 0, metrics registry purged (and
    re-enabled, with its time axis disarmed). *)

val isolate : (unit -> 'a) -> 'a
(** [isolate f] runs [f] between two [fresh] calls (the trailing one also
    on exceptional exit), so [f] neither sees nor leaves behind any
    observability state on this domain. *)
