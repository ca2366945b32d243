(** The underlying Internet: per-ISP backbones with propagation delay,
    loss, failures, and BGP-style convergence.

    Each ISP backbone is an independent graph of fiber *segments* between
    data-center sites (from {!Strovl_topo.Gen.spec}); routing inside an ISP
    is shortest-path. The crucial dynamic the paper contrasts against
    (§II-A) is convergence: when a segment fails, Internet routing keeps
    forwarding into the failure ("blackholing") until BGP converges — "40
    seconds to minutes" — whereas the overlay's own connectivity-graph
    maintenance reroutes in under a second. We model this with a *routing
    view* per ISP that lags reality by a configurable convergence delay.

    Transmission between two sites on one ISP follows the ISP's *current
    routing view*; the packet is lost if any traversed segment is actually
    down or its loss process fires at the crossing instant. *)

type t

val create :
  ?convergence:Strovl_sim.Time.t ->
  Strovl_sim.Engine.t ->
  Strovl_topo.Gen.spec ->
  t
(** [convergence] defaults to 40 s (the paper's BGP figure). *)

val engine : t -> Strovl_sim.Engine.t
val spec : t -> Strovl_topo.Gen.spec
val nsites : t -> int
val nsegments : t -> int

val set_segment_loss : t -> int -> Strovl_sim.Loss.t -> unit
(** Attach a loss process to a fiber segment (default: perfect). *)

val set_all_segment_loss : t -> (int -> Strovl_topo.Gen.segment -> Strovl_sim.Loss.t) -> unit

val fail_segment : t -> int -> unit
(** The segment drops all traffic immediately; each ISP's routing view
    notices only after the convergence delay. *)

val repair_segment : t -> int -> unit
(** The segment carries traffic again immediately; routing views re-adopt
    it after the convergence delay. *)

val segment_up : t -> int -> bool

val segments_between : t -> int -> int -> int list
(** All segment indices directly joining two sites (any ISP). *)

val path_delay : t -> isp:int -> src:int -> dst:int -> Strovl_sim.Time.t option
(** One-way delay of the ISP's *currently routed* path, [None] if the
    routing view has no path. This is what a measurement (ping) between the
    sites would report. *)

val routed_path : t -> isp:int -> src:int -> dst:int -> int list option
(** Segment indices of the currently routed path. *)

(** {2 Off-net paths (§II-A)}

    An overlay link normally uses the same provider at both endpoints
    ("on-net"), but "any combination of the available providers may be
    used": an off-net path rides provider A from the source to a peering
    site where both providers have presence, crosses the (congested,
    best-effort) public peering, and continues on provider B. The paper
    notes on-net "generally results in better performance" — the peering
    penalty is why: 2 ms and 1% Bernoulli loss (derived from the engine
    seed) at the peering site. *)

val isp_present : t -> isp:int -> int -> bool
(** Whether the ISP has fiber touching the site. *)

val peering_sites : t -> isp_a:int -> isp_b:int -> int list
(** Sites where both providers are present (candidate peering points). *)

val path_delay_pair :
  t -> isp_src:int -> isp_dst:int -> src:int -> dst:int -> Strovl_sim.Time.t option
(** Delay of the best currently routed off-net path (min over peering
    sites), including the peering penalty. Equals {!path_delay} when the
    providers coincide. *)

val transmit_result_pair :
  t ->
  isp_src:int ->
  isp_dst:int ->
  src:int ->
  dst:int ->
  [ `Delivered of Strovl_sim.Time.t | `Lost ]
(** Like {!transmit_pair} but synchronous: evaluates the fate and latency
    of a packet sent now, without scheduling. *)

val transmit_pair :
  t ->
  isp_src:int ->
  isp_dst:int ->
  src:int ->
  dst:int ->
  deliver:(unit -> unit) ->
  unit
(** Injects one packet, on-net when [isp_src = isp_dst] and otherwise
    through the best peering site. If the routing views yield a path and
    every traversed segment (and, off-net, the peering crossing) is up and
    lossless at its crossing instant, [deliver] runs after the path delay;
    otherwise the packet vanishes (no notification — exactly what IP gives
    you). *)
