(** Observability for the overlay: {!Metrics} (cheap always-available
    labelled counters and bounded histograms, with an on-demand time
    axis), {!Trace} (an on-demand
    bounded flight recorder of typed per-packet events), and {!Export}
    (JSONL dumps and pretty summaries). Sits below every other library so
    the simulation substrate, the underlay, and the protocol stack can all
    report into one place.

    Every registry is domain-local, so simulations running concurrently on
    separate domains observe into fully separate state; {!Ctx} resets a
    domain's state between successive runs that share it. *)

module Metrics = Metrics
module Trace = Trace
module Export = Export
module Health = Health
module Audit = Audit
module Ctx = Ctx
