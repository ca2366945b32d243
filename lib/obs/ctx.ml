(* Per-run observability context control.

   Every observability registry (Metrics with its time axis, Trace, Audit) is
   domain-local, so two runs on two domains are isolated by construction.
   Two runs scheduled one after the other on the SAME pool domain are not:
   the second would inherit the first's metric handles, series arming and
   trace arming. [fresh] restores this domain's observability state to
   what a newly spawned domain sees, so a run produces byte-identical
   tables and trace digests no matter which domain executes it or what ran
   there before — the determinism contract behind `-j N`. That includes
   the recorder's clock and run index: the last engine's clock closure
   would otherwise keep that engine, and with it the whole finished run,
   reachable, and a run's index would depend on what ran before it. *)

let fresh () =
  Audit.reset ();
  Trace.reset ();
  Metrics.purge ()

let isolate f =
  fresh ();
  Fun.protect ~finally:fresh f
