(** The experiment suite: one module per paper figure/claim (see DESIGN.md's
    experiment index). Every experiment is a pure function of its seed and
    returns a {!Table.t}; [all] enumerates them in paper order. *)

module Table = Table
module Common = Common
module Fig3 = Fig3
module Nmstrikes = Nmstrikes
module Reroute = Reroute
module Coverage = Coverage
module Multicast = Multicast
module Disjoint = Disjoint
module Fairness = Fairness
module Backpressure = Backpressure
module Remote_manip = Remote_manip
module Scada = Scada
module Compound = Compound
module Lossy_link = Lossy_link
module Capacity = Capacity
module Onnet = Onnet

type experiment = {
  id : string;
  summary : string;
  run : ?quick:bool -> seed:int64 -> unit -> Table.t;
}

(* Each experiment evaluates its rows in table order, so that run n (every
   Common.engine call starts a run; trace records, series buckets and audit
   violations carry its index) is the n-th run of the table's rows. Rows are
   computed by List.map or List.concat_map over row descriptions, never
   inside a list literal or an operand of [@], whose elements OCaml
   evaluates right to left. *)
let all : experiment list =
  [
    {
      id = "arch-coverage";
      summary = "global coverage of a few tens of nodes (SII-A)";
      run = Coverage.run;
    };
    {
      id = "reroute-bgp";
      summary = "sub-second overlay reroute vs BGP convergence (SII-A)";
      run = Reroute.run;
    };
    {
      id = "onnet-offnet";
      summary = "on-net vs off-net provider combinations (SII-A)";
      run = Onnet.run;
    };
    {
      id = "lossy-link";
      summary = "routing on shared loss+latency link state (SII-B)";
      run = Lossy_link.run;
    };
    {
      id = "fig3-recovery";
      summary = "hop-by-hop vs end-to-end recovery (Figure 3, SIII-A)";
      run = Fig3.run;
    };
    {
      id = "multicast";
      summary = "overlay multicast tree vs unicast mesh (SIII-B)";
      run = Multicast.run;
    };
    {
      id = "fig4-nmstrikes";
      summary = "NM-Strikes timeliness under bursty loss (Figure 4, SIV-A)";
      run = Nmstrikes.run;
    };
    {
      id = "disjoint-k";
      summary = "k-disjoint paths vs compromised routers (SIV-B)";
      run = Disjoint.run;
    };
    {
      id = "fairness";
      summary = "IT-Priority fairness under flooding attack (SIV-B)";
      run = Fairness.run;
    };
    {
      id = "backpressure";
      summary = "IT-Reliable per-flow backpressure (SIV-B)";
      run = Backpressure.run;
    };
    {
      id = "remote-manip";
      summary = "65ms haptic flows over dissemination graphs (SV-A)";
      run = Remote_manip.run;
    };
    {
      id = "scada-timeliness";
      summary = "SCADA 200ms budget vs crypto cost x size (SV-B)";
      run = Scada.run;
    };
    {
      id = "compound-flow";
      summary = "transcoding compound flow with facility failover (SV-C)";
      run = Compound.run;
    };
    {
      id = "node-capacity";
      summary = "finite node CPU and data-center clusters (SII-D)";
      run = Capacity.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* --------------------- isolated / parallel running --------------------- *)

(* The one way anything runs: [run] executes inside a fresh observability
   context (Strovl_obs.Ctx.isolate), so it neither sees nor leaves behind
   domain state — the property that makes a pool-scheduled run's tables
   and trace digest independent of which domain executes it and what ran
   there before — and the domain's engine (Common.engine) is dropped on
   the way out, so a finished run holds nothing. Before [run], [trace]
   arms the flight recorder with a ring of that many events, [series]
   arms the time axis of every metric with (window in sim-us, buckets per
   metric), and [audit] feeds the recorder into the online invariant
   auditor (arming the recorder at its default capacity when [trace] is
   not given, since the auditor sees only what the recorder emits). [query] gets [run]'s result and runs before the
   context is dropped, so it can read the ring, channels, auditor and
   metrics the run filled; its result is returned. *)
let isolated ?trace ?series ?(audit = false) run query =
  Fun.protect ~finally:Common.release @@ fun () ->
  Strovl_obs.Ctx.isolate (fun () ->
      let trace =
        match trace with
        | None when audit -> Some Strovl_obs.Trace.default_capacity
        | t -> t
      in
      Option.iter (fun capacity -> Strovl_obs.Trace.enable ~capacity ()) trace;
      Option.iter
        (fun (window, capacity) -> Strovl_obs.Metrics.arm_series ~window ~capacity)
        series;
      if audit then Strovl_obs.Audit.arm ();
      query (run ()))

(* One experiment as a self-contained unit: [isolated] around its run. *)
let run_isolated ?trace ?series ?audit ?quick ~seed (e : experiment) query =
  isolated ?trace ?series ?audit (fun () -> e.run ?quick ~seed ()) query

(* [run_isolated] mapped over (experiment, seed) pairs on a domain pool,
   with the same [trace] and [audit] arming; [query e table] runs inside
   each run's context.
   The outcome array is in input order (Strovl_par.Pool's determinism
   contract), so printing it from the main domain reproduces the
   sequential order byte for byte for every [jobs]. *)
let run_many ?jobs ?trace ?audit ?quick runs query =
  Strovl_par.Pool.map ?jobs
    (fun _ (e, seed) -> run_isolated ?trace ?audit ?quick ~seed e (query e))
    (Array.of_list runs)
