(* Per-run observability context control.

   Every observability registry (Metrics, Trace, Series, Audit) is
   domain-local, so two runs on two domains are isolated by construction.
   Two runs scheduled one after the other on the SAME pool domain are not:
   the second would inherit the first's metric handles, series channels and
   trace arming. [fresh] restores this domain's observability state to
   what a newly spawned domain sees, so a run produces byte-identical
   tables and trace digests no matter which domain executes it or what ran
   there before — the determinism contract behind `-j N`. *)

let fresh () =
  Audit.reset ();
  Trace.disable ();
  Series.reset ();
  Metrics.purge ()

let isolate f =
  fresh ();
  Fun.protect ~finally:fresh f
