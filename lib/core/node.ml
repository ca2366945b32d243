open Strovl_sim
module Graph = Strovl_topo.Graph
module Bitmask = Strovl_topo.Bitmask
module Auth = Strovl_crypto.Auth

type config = {
  hello_interval : Time.t;
  hello_timeout : Time.t;
  lsu_refresh : Time.t;
  proc_delay : Time.t;
  proc_rate_pps : int option;
  cluster_size : int;
  cpu_queue : Time.t;
  reliable : Reliable_link.config;
  realtime : Realtime_link.config;
  it_priority : It_priority.config;
  it_reliable : It_reliable.config;
  fec : Fec_link.config;
  authenticate : bool;
  loss_aware_routing : bool;
}

let default_config =
  {
    hello_interval = Time.ms 100;
    hello_timeout = Time.ms 350;
    lsu_refresh = Time.sec 10;
    proc_delay = Time.us 50;
    proc_rate_pps = None;
    cluster_size = 1;
    cpu_queue = Time.ms 20;
    reliable = Reliable_link.default_config;
    realtime = Realtime_link.default_config;
    it_priority = It_priority.default_config;
    it_reliable = It_reliable.default_config;
    fec = Fec_link.default_config;
    authenticate = false;
    loss_aware_routing = false;
  }

(* Observability: domain-local labelled metrics (always-available twins of
   the per-node [counters]) and flight-recorder events. Handles live in the
   node record and are looked up at [create] time, so they always belong to
   the run's own registry (registries are purged between pool-scheduled
   runs; see {!Strovl_obs.Ctx}). All nodes of one run share the same
   handles via get-or-create, and hot-path updates stay O(1). *)
module Obs = Strovl_obs.Trace
module Om = Strovl_obs.Metrics

type metrics = {
  m_forwarded : Om.Counter.t;
  m_delivered : Om.Counter.t;
  m_enqueued : Om.Counter.t;
  m_lsu_floods : Om.Counter.t;
  m_group_floods : Om.Counter.t;
  m_delivery_latency : Om.Histogram.t;
  m_drop_no_route : Om.Counter.t;
  m_drop_ttl : Om.Counter.t;
  m_drop_auth : Om.Counter.t;
  m_drop_dup : Om.Counter.t;
  m_drop_backpressure : Om.Counter.t;
  m_drop_overload : Om.Counter.t;
}

let make_metrics () =
  let m_drop reason =
    Om.counter
      ~labels:[ ("reason", Obs.reason_to_string reason) ]
      "strovl_node_dropped_total"
  in
  {
    m_forwarded = Om.counter "strovl_node_forwarded_total";
    m_delivered = Om.counter "strovl_node_delivered_total";
    m_enqueued = Om.counter "strovl_node_enqueued_total";
    m_lsu_floods = Om.counter "strovl_lsu_floods_total";
    m_group_floods = Om.counter "strovl_group_floods_total";
    m_delivery_latency = Om.histogram "strovl_delivery_latency_us";
    m_drop_no_route = m_drop Obs.No_route;
    m_drop_ttl = m_drop Obs.Ttl;
    m_drop_auth = m_drop Obs.Auth;
    m_drop_dup = m_drop Obs.Dup;
    m_drop_backpressure = m_drop Obs.Backpressure;
    m_drop_overload = m_drop Obs.Overload;
  }

type counters = {
  mutable forwarded : int;
  mutable delivered : int;
  mutable dropped_no_route : int;
  mutable dropped_ttl : int;
  mutable dropped_auth : int;
  mutable dropped_dup : int;
  mutable dropped_backpressure : int;
  mutable dropped_overload : int;
  mutable lsu_floods : int;
  mutable group_floods : int;
}

type proto =
  | P_best of Best_effort.t
  | P_rel of Reliable_link.t
  | P_rt of Realtime_link.t
  | P_itp of It_priority.t
  | P_itr of It_reliable.t
  | P_fec of Fec_link.t

type endpoint = {
  ep_link : int;
  ep_bandwidth : int;
  ep_xmit : Msg.t -> unit;
  ep_protos : proto option array;
  ep_mon : Link_monitor.t;
}

type t = {
  id : int;
  engine : Engine.t;
  cfg : config;
  graph : Graph.t;
  conn_graph : Conn_graph.t;
  group_state : Group.t;
  routing : Route.t;
  registry : Auth.registry option;
  endpoints : (int, endpoint) Hashtbl.t; (* by link id *)
  (* Data-path twins of [endpoints]: O(1), allocation-free lookup by link
     id, plus the incident link ids as a flat array. [endpoints] keeps the
     control-plane iteration order (floods). *)
  mutable eps : endpoint option array;
  mutable incident : int array;
  mutable links_seen : int;
  (* Reusable out-links scratch buffer for the forwarding plane; the busy
     flag covers re-entrant forwarding (a deliver callback originating a
     packet synchronously), which falls back to a fresh buffer. *)
  mutable out_buf : int array;
  mutable out_busy : bool;
  sessions : (int, Packet.t -> unit) Hashtbl.t; (* by port *)
  dedup : Dedup.t;
  ctrs : counters;
  om : metrics;
  mutable suspect_hook : int -> unit;
  mutable started : bool;
  mutable stopped : bool;
  mutable cpu_busy_until : Time.t; (* finite-capacity CPU server (§II-D) *)
  (* Time-series channels (Strovl_obs.Series; off by default). *)
  s_delivered : Strovl_obs.Series.ch;
  s_dropped : Strovl_obs.Series.ch;
  s_flow_delivered : (Packet.flow, Strovl_obs.Series.ch) Hashtbl.t;
}

(* The one counter path for node drops: the per-node field and the metric
   that shadows it. *)
let count_drop t reason =
  let c = t.ctrs and m = t.om in
  match reason with
  | Obs.No_route ->
    c.dropped_no_route <- c.dropped_no_route + 1;
    Om.Counter.incr m.m_drop_no_route
  | Obs.Ttl ->
    c.dropped_ttl <- c.dropped_ttl + 1;
    Om.Counter.incr m.m_drop_ttl
  | Obs.Auth ->
    c.dropped_auth <- c.dropped_auth + 1;
    Om.Counter.incr m.m_drop_auth
  | Obs.Dup ->
    c.dropped_dup <- c.dropped_dup + 1;
    Om.Counter.incr m.m_drop_dup
  | Obs.Backpressure ->
    c.dropped_backpressure <- c.dropped_backpressure + 1;
    Om.Counter.incr m.m_drop_backpressure
  | Obs.Overload ->
    c.dropped_overload <- c.dropped_overload + 1;
    Om.Counter.incr m.m_drop_overload
  | Obs.Queue_full | Obs.Priority_evict | Obs.Wire_loss ->
    invalid_arg "Node.drop: not a node drop"

(* A counted drop that is also reported: with the packet, a Series tick and
   a trace event naming it, so the causal path shows where and why it
   died; without one (CPU overload), a bare trace event. *)
let drop t ?pkt reason =
  count_drop t reason;
  match pkt with
  | Some pkt ->
    if Strovl_obs.Series.armed () then Strovl_obs.Series.incr t.s_dropped;
    if Obs.armed () then
      Obs.emit
        ~flow:(Packet.obs_flow pkt.Packet.flow)
        ~seq:pkt.Packet.seq ~node:t.id (Obs.Drop reason)
  | None -> if Obs.armed () then Obs.emit ~node:t.id (Obs.Drop reason)

let trace_pkt t pkt ev =
  if Obs.armed () then
    Obs.emit
      ~flow:(Packet.obs_flow pkt.Packet.flow)
      ~seq:pkt.Packet.seq ~node:t.id ev

let create ?(config = default_config) ?registry ~engine ~graph ~id ~metric () =
  let conn_graph = Conn_graph.create ~self:id graph ~metric in
  Conn_graph.use_effective_metric conn_graph config.loss_aware_routing;
  let group_state = Group.create ~self:id ~nnodes:(Graph.n graph) in
  {
    id;
    engine;
    cfg = config;
    graph;
    conn_graph;
    group_state;
    routing = Route.create conn_graph group_state;
    registry = (if config.authenticate then registry else None);
    endpoints = Hashtbl.create 8;
    eps = Array.make (max 1 (Graph.link_count graph)) None;
    incident = Array.of_list (Graph.incident graph id);
    links_seen = Graph.link_count graph;
    out_buf = Array.make (max 1 (List.length (Graph.incident graph id))) 0;
    out_busy = false;
    sessions = Hashtbl.create 8;
    dedup = Dedup.create ();
    om = make_metrics ();
    ctrs =
      {
        forwarded = 0;
        delivered = 0;
        dropped_no_route = 0;
        dropped_ttl = 0;
        dropped_auth = 0;
        dropped_dup = 0;
        dropped_backpressure = 0;
        dropped_overload = 0;
        lsu_floods = 0;
        group_floods = 0;
      };
    suspect_hook = (fun _ -> ());
    started = false;
    stopped = false;
    cpu_busy_until = Time.zero;
    s_delivered =
      Strovl_obs.Series.channel
        ~labels:[ ("node", string_of_int id) ]
        "strovl_node_delivered";
    s_dropped =
      Strovl_obs.Series.channel
        ~labels:[ ("node", string_of_int id) ]
        "strovl_node_dropped";
    s_flow_delivered = Hashtbl.create 8;
  }

(* Re-sync the data-path arrays with the graph/endpoint tables. Called
   when a link is attached and (defensively) when the graph gained links
   since the last sync. *)
let refresh_topology t =
  t.links_seen <- Graph.link_count t.graph;
  if Array.length t.eps < t.links_seen then begin
    let n = Array.make t.links_seen None in
    Array.blit t.eps 0 n 0 (Array.length t.eps);
    t.eps <- n
  end;
  t.incident <- Array.of_list (Graph.incident t.graph t.id);
  if Array.length t.out_buf < Array.length t.incident + 1 then
    t.out_buf <- Array.make (Array.length t.incident + 1) 0

let ep_for t link =
  if link >= 0 && link < Array.length t.eps then t.eps.(link) else None

let id t = t.id
let config t = t.cfg
let conn t = t.conn_graph
let group t = t.group_state
let route t = t.routing
let counters t = t.ctrs
let engine t = t.engine
let set_link_suspect_hook t f = t.suspect_hook <- f

(* ------------------------------------------------------------------ *)
(* Flooded shared state: signing and propagation                       *)
(* ------------------------------------------------------------------ *)

let sign_flood t msg =
  match t.registry with
  | None -> msg
  | Some reg ->
    let tag = Auth.sign reg ~node:t.id (Msg.signable msg) in
    (match msg with
    | Msg.Lsu l -> Msg.Lsu { l with auth = Some tag }
    | Msg.Group_update g -> Msg.Group_update { g with auth = Some tag }
    | other -> other)

let verify_flood t ~origin msg auth =
  match t.registry with
  | None -> true
  | Some reg -> (
    match auth with
    | None -> false
    | Some tag ->
      (* Verify against the unsigned canonical form. *)
      let unsigned =
        match msg with
        | Msg.Lsu l -> Msg.Lsu { l with auth = None }
        | Msg.Group_update g -> Msg.Group_update { g with auth = None }
        | other -> other
      in
      Auth.verify_sign reg ~node:origin (Msg.signable unsigned) tag)

let flood t ?except msg =
  Hashtbl.iter
    (fun l ep -> if Some l <> except then ep.ep_xmit msg)
    t.endpoints

let flood_local_update t msg_opt =
  match msg_opt with
  | None -> ()
  | Some msg ->
    (match msg with
    | Msg.Lsu _ ->
      t.ctrs.lsu_floods <- t.ctrs.lsu_floods + 1;
      Om.Counter.incr t.om.m_lsu_floods;
      if Obs.armed () then Obs.emit ~node:t.id Obs.Lsu_flood
    | Msg.Group_update _ ->
      t.ctrs.group_floods <- t.ctrs.group_floods + 1;
      Om.Counter.incr t.om.m_group_floods
    | _ -> ());
    flood t (sign_flood t msg)

(* ------------------------------------------------------------------ *)
(* Routing decisions                                                   *)
(* ------------------------------------------------------------------ *)

let deliver_local t pkt ~port =
  match Hashtbl.find t.sessions port with
  | exception Not_found -> ()
  | deliver ->
    t.ctrs.delivered <- t.ctrs.delivered + 1;
    Om.Counter.incr t.om.m_delivered;
    Om.Histogram.observe t.om.m_delivery_latency
      (Time.sub (Engine.now t.engine) pkt.Packet.sent_at);
    if Strovl_obs.Series.armed () then begin
      Strovl_obs.Series.incr t.s_delivered;
      let ch =
        match Hashtbl.find_opt t.s_flow_delivered pkt.Packet.flow with
        | Some ch -> ch
        | None ->
          let fi = Packet.obs_flow pkt.Packet.flow in
          let label =
            Printf.sprintf "%d:%d->%d:%d" fi.Strovl_obs.Trace.fi_src
              fi.Strovl_obs.Trace.fi_sport fi.Strovl_obs.Trace.fi_dst
              fi.Strovl_obs.Trace.fi_dport
          in
          let ch =
            Strovl_obs.Series.channel
              ~labels:[ ("flow", label) ]
              "strovl_flow_delivered"
          in
          Hashtbl.replace t.s_flow_delivered pkt.Packet.flow ch;
          ch
      in
      Strovl_obs.Series.incr ch
    end;
    trace_pkt t pkt (if pkt.Packet.replay then Obs.Deliver_replay else Obs.Deliver);
    deliver pkt

(* Local delivery for this node, fused with the former local-port listing
   so the routing level never materialises a port list per packet. *)
let deliver_locals t pkt =
  match pkt.Packet.flow.Packet.f_dest with
  | Packet.To_node n ->
    if n = t.id then deliver_local t pkt ~port:pkt.Packet.flow.Packet.f_dport
  | Packet.To_group g ->
    if Group.has_local t.group_state ~group:g then
      List.iter
        (fun port -> deliver_local t pkt ~port)
        (Group.local_ports t.group_state ~group:g)
  | Packet.Any_of_group g -> (
    match Route.anycast_target t.routing ~group:g with
    | Some target when target = t.id -> (
      match Group.local_ports t.group_state ~group:g with
      | [] -> ()
      | p :: _ -> deliver_local t pkt ~port:p)
    | _ -> ())

(* Whether [deliver_locals] would target at least one port here (the
   unicast destination counts even with no session bound, matching the old
   list semantics used by IT-Reliable acceptance). *)
let has_local_ports t pkt =
  match pkt.Packet.flow.Packet.f_dest with
  | Packet.To_node n -> n = t.id
  | Packet.To_group g ->
    Group.has_local t.group_state ~group:g
    && Group.local_ports t.group_state ~group:g <> []
  | Packet.Any_of_group g -> (
    match Route.anycast_target t.routing ~group:g with
    | Some target when target = t.id ->
      Group.local_ports t.group_state ~group:g <> []
    | _ -> false)

(* Links this node must forward the packet on (routing level, §II-B),
   written into [buf]; returns the count. Fill order matches the list the
   old code built, so traces are byte-identical. *)
let collect_outs t pkt ~from_link buf =
  if Graph.link_count t.graph <> t.links_seen then refresh_topology t;
  let unicast_hop dst =
    if dst = t.id then 0
    else begin
      match Route.next_hop t.routing ~dst with
      | Some (_, l) ->
        buf.(0) <- l;
        1
      | None ->
        drop t ~pkt Obs.No_route;
        0
    end
  in
  match pkt.Packet.routing with
  | Packet.Link_state -> begin
    match pkt.Packet.flow.Packet.f_dest with
    | Packet.To_node dst -> unicast_hop dst
    | Packet.To_group g ->
      (* Trees are rooted at the overlay ingress node: all nodes compute the
         same tree from shared state, and forwarding stays loop-free even
         for flows re-originated mid-network (compound flows, §V-C). *)
      let root =
        if pkt.Packet.ingress >= 0 then pkt.Packet.ingress
        else pkt.Packet.flow.Packet.f_src
      in
      let rec fill n = function
        | [] -> n
        | l :: rest ->
          if l <> from_link then begin
            buf.(n) <- l;
            fill (n + 1) rest
          end
          else fill n rest
      in
      fill 0 (Route.mcast_out_links t.routing ~source:root ~group:g)
    | Packet.Any_of_group g -> begin
      match Route.anycast_target t.routing ~group:g with
      | Some target when target <> t.id -> unicast_hop target
      | Some _ -> 0
      | None ->
        drop t ~pkt Obs.No_route;
        0
    end
  end
  | Packet.Source_mask mask ->
    let rec fill i n =
      if i >= Array.length t.incident then n
      else begin
        let l = t.incident.(i) in
        if
          l <> from_link
          && Bitmask.mem mask l
          && (match ep_for t l with Some _ -> true | None -> false)
        then begin
          buf.(n) <- l;
          fill (i + 1) (n + 1)
        end
        else fill (i + 1) n
      end
    in
    fill 0 0

let acquire_outs t =
  if t.out_busy then Array.make (Array.length t.incident + 1) 0
  else begin
    t.out_busy <- true;
    t.out_buf
  end

let release_outs t buf = if buf == t.out_buf then t.out_busy <- false

(* ------------------------------------------------------------------ *)
(* CPU model (§II-D)                                                   *)
(* ------------------------------------------------------------------ *)

let cpu_service_time t =
  match t.cfg.proc_rate_pps with
  | None -> None
  | Some rate -> Some (max 1 (1_000_000 / (rate * max 1 t.cfg.cluster_size)))

(* Run [work] once the node's CPU has processed the packet: either a flat
   per-packet cost (unbounded capacity) or a serial server at the cluster's
   aggregate rate, with overload drops beyond the CPU queue. *)
let charge_cpu t work =
  match cpu_service_time t with
  | None -> ignore (Engine.schedule t.engine ~delay:t.cfg.proc_delay work)
  | Some service ->
    let now = Engine.now t.engine in
    let start = Time.max now t.cpu_busy_until in
    if Time.sub start now > t.cfg.cpu_queue then drop t Obs.Overload
    else begin
      t.cpu_busy_until <- Time.add start service;
      ignore (Engine.schedule_at t.engine ~at:t.cpu_busy_until work)
    end

(* Synchronous admission for IT-Reliable acceptance: an overloaded CPU
   refuses (backpressure) instead of queueing. *)
let cpu_admit t =
  match cpu_service_time t with
  | None -> true
  | Some service ->
    let now = Engine.now t.engine in
    let start = Time.max now t.cpu_busy_until in
    if Time.sub start now > t.cfg.cpu_queue then begin
      drop t Obs.Overload;
      false
    end
    else begin
      t.cpu_busy_until <- Time.add start service;
      true
    end

(* ------------------------------------------------------------------ *)
(* Link protocol instances                                             *)
(* ------------------------------------------------------------------ *)

let rec get_proto t ep cls =
  match ep.ep_protos.(cls) with
  | Some p -> p
  | None ->
    let ctx =
      {
        Lproto.engine = t.engine;
        node = t.id;
        link = ep.ep_link;
        xmit = ep.ep_xmit;
        up =
          (fun pkt ->
            (* Per-packet CPU cost of traversing the stack (§II-D). *)
            charge_cpu t (fun () -> forward t ~from_link:ep.ep_link pkt));
        try_up = (fun pkt -> try_accept t ~from_link:ep.ep_link pkt);
        bandwidth_bps = ep.ep_bandwidth;
        rtt_hint = (Link_monitor.health ep.ep_mon).Strovl_obs.Health.rtt_us;
      }
    in
    let p =
      if cls = Packet.service_class Packet.Best_effort then
        P_best (Best_effort.create ctx)
      else if cls = Packet.service_class Packet.Reliable then
        P_rel (Reliable_link.create ~config:t.cfg.reliable ctx)
      else if cls = Packet.service_class (Packet.It_priority 0) then
        P_itp (It_priority.create ~config:t.cfg.it_priority ctx)
      else if cls = Packet.service_class Packet.It_reliable then
        P_itr (It_reliable.create ~config:t.cfg.it_reliable ctx)
      else if cls = Packet.service_class (Packet.Fec { fec_k = 1; fec_r = 1 })
      then P_fec (Fec_link.create ~config:t.cfg.fec ctx)
      else P_rt (Realtime_link.create ~config:t.cfg.realtime ctx)
    in
    ep.ep_protos.(cls) <- Some p;
    p

(* Send one already-hop-bumped packet down a link's protocol instance. The
   caller makes the [next_hop_copy] once per routing decision and shares it
   across the fan-out (the packet record is immutable). *)
and send_prepped t ep pkt =
  t.ctrs.forwarded <- t.ctrs.forwarded + 1;
  Om.Counter.incr t.om.m_forwarded;
  trace_pkt t pkt
    (if pkt.Packet.replay then Obs.Forward_replay ep.ep_link
     else Obs.Forward ep.ep_link);
  match get_proto t ep (Packet.service_class pkt.Packet.service) with
  | P_best p -> Best_effort.send p pkt
  | P_rel p -> Reliable_link.send p pkt
  | P_rt p -> Realtime_link.send p pkt
  | P_itp p -> It_priority.send p pkt
  | P_itr p ->
    (* Callers check capacity first via try_accept/originate. *)
    if not (It_reliable.offer p pkt) then drop t ~pkt Obs.Backpressure
  | P_fec p -> Fec_link.send p pkt

(* Verification of the origin signature on intrusion-tolerant data. *)
and auth_ok t pkt =
  match pkt.Packet.service with
  | Packet.Best_effort | Packet.Reliable | Packet.Realtime _ | Packet.Fec _ ->
    true
  | Packet.It_priority _ | Packet.It_reliable -> begin
    match t.registry with
    | None -> true
    | Some reg -> begin
      match pkt.Packet.auth with
      | None -> false
      | Some tag ->
        Auth.verify_sign reg ~node:pkt.Packet.flow.Packet.f_src
          (Packet.signable pkt) tag
    end
  end

and needs_dedup pkt =
  match (pkt.Packet.routing, pkt.Packet.flow.Packet.f_dest) with
  | Packet.Source_mask _, _ -> true
  | Packet.Link_state, (Packet.To_group _ | Packet.Any_of_group _) -> true
  | Packet.Link_state, Packet.To_node _ -> false

(* The routing level: deliver locally, forward onward. *)
and forward t ~from_link pkt =
  if pkt.Packet.hops >= Packet.max_hops then drop t ~pkt Obs.Ttl
  else if not (auth_ok t pkt) then drop t ~pkt Obs.Auth
  else if
    needs_dedup pkt
    && Dedup.seen t.dedup pkt.Packet.flow pkt.Packet.seq
    && not pkt.Packet.replay
  then drop t ~pkt Obs.Dup
  else begin
    deliver_locals t pkt;
    let buf = acquire_outs t in
    let n = collect_outs t pkt ~from_link buf in
    if n > 0 then begin
      let fwd = Packet.next_hop_copy pkt in
      for i = 0 to n - 1 do
        match ep_for t buf.(i) with
        | Some ep -> send_prepped t ep fwd
        | None -> ()
      done
    end;
    release_outs t buf
  end

(* IT-Reliable acceptance: the packet is taken responsibility for only if
   every onward link buffer (and local delivery) can absorb it — checked
   before any enqueue so a multi-link dissemination is all-or-nothing. *)
and try_accept t ~from_link pkt =
  if pkt.Packet.hops >= Packet.max_hops then false
  else if not (cpu_admit t) then false
  else if not (auth_ok t pkt) then begin
    drop t ~pkt Obs.Auth;
    false
  end
  else if Dedup.peek t.dedup pkt.Packet.flow pkt.Packet.seq then begin
    (* Already accepted earlier: re-ack without reprocessing. *)
    count_drop t Obs.Dup;
    true
  end
  else begin
    let buf = acquire_outs t in
    let n = collect_outs t pkt ~from_link buf in
    let result =
      if n = 0 && not (has_local_ports t pkt) then begin
        (* Nowhere to take responsibility toward (e.g. destination currently
           unreachable): refuse rather than absorb — reliability must not be
           silently dropped. *)
        drop t ~pkt Obs.Backpressure;
        false
      end
      else begin
        let rec room i =
          i >= n
          ||
          match ep_for t buf.(i) with
          | None -> room (i + 1)
          | Some ep -> (
            match get_proto t ep (Packet.service_class Packet.It_reliable) with
            | P_itr p ->
              It_reliable.can_accept p ~flow:pkt.Packet.flow && room (i + 1)
            | _ -> room (i + 1))
        in
        if not (room 0) then begin
          drop t ~pkt Obs.Backpressure;
          false
        end
        else begin
          ignore (Dedup.seen t.dedup pkt.Packet.flow pkt.Packet.seq);
          deliver_locals t pkt;
          if n > 0 then begin
            let fwd = Packet.next_hop_copy pkt in
            for i = 0 to n - 1 do
              match ep_for t buf.(i) with
              | Some ep -> send_prepped t ep fwd
              | None -> ()
            done
          end;
          true
        end
      end
    in
    release_outs t buf;
    result
  end

(* ------------------------------------------------------------------ *)
(* Link monitoring (the hello protocol, Link_monitor)                  *)
(* ------------------------------------------------------------------ *)

(* A declared-dead link strands the packets its Reliable Data Link holds
   for retransmission; reliability survives the reroute by re-injecting
   them into the routing level (bypassing de-dup — they were already
   recorded when first forwarded). Destinations de-duplicate the subset
   that had in fact crossed before the failure. *)
let reroute_stranded_reliable t ~link protos =
  match protos.(Packet.service_class Packet.Reliable) with
  | Some (P_rel p) ->
    let stranded = Reliable_link.drain_store p in
    List.iter
      (fun pkt ->
        let pkt = Packet.as_replay pkt in
        let buf = acquire_outs t in
        let n = collect_outs t pkt ~from_link:link buf in
        if n > 0 then begin
          let fwd = Packet.next_hop_copy pkt in
          for i = 0 to n - 1 do
            match ep_for t buf.(i) with
            | Some ep' -> send_prepped t ep' fwd
            | None -> ()
          done
        end;
        release_outs t buf)
      stranded
  | Some (P_best _ | P_rt _ | P_itp _ | P_itr _ | P_fec _) | None -> ()

(* What one endpoint's monitor reports becomes shared state: the one-way
   latency and round-trip loss are advertised, a dead link is taken down
   (rerouting what it stranded) and its ISP rotated, and a link heard
   again comes back up. *)
let on_monitor t ~link protos = function
  | Link_monitor.Rtt rtt ->
    flood_local_update t
      (Conn_graph.set_local_metric t.conn_graph ~link ~metric:(max 1 (rtt / 2)))
  | Link_monitor.Loss loss ->
    flood_local_update t (Conn_graph.set_local_loss t.conn_graph ~link ~loss)
  | Link_monitor.Up ->
    flood_local_update t (Conn_graph.set_local t.conn_graph ~link ~up:true)
  | Link_monitor.Down ->
    flood_local_update t (Conn_graph.set_local t.conn_graph ~link ~up:false);
    reroute_stranded_reliable t ~link protos
  | Link_monitor.Suspect -> t.suspect_hook link

(* ------------------------------------------------------------------ *)
(* Wire ingress                                                        *)
(* ------------------------------------------------------------------ *)

let proto_recv t ep cls msg =
  match get_proto t ep cls with
  | P_best p -> Best_effort.recv p msg
  | P_rel p -> Reliable_link.recv p msg
  | P_rt p -> Realtime_link.recv p msg
  | P_itp p -> It_priority.recv p msg
  | P_itr p -> It_reliable.recv p msg
  | P_fec p -> Fec_link.recv p msg

let receive t ~link msg =
  match ep_for t link with
  | None -> ()
  | Some _ when t.stopped -> ()
  | Some ep -> begin
    match msg with
    | Msg.Hello _ | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _ ->
      Link_monitor.recv ep.ep_mon msg
    | Msg.Lsu { origin; lsu_seq; links; auth } ->
      if verify_flood t ~origin msg auth then begin
        if Conn_graph.apply_lsu t.conn_graph ~origin ~lsu_seq links then
          flood t ~except:link msg
      end
      else count_drop t Obs.Auth
    | Msg.Group_update { origin; gseq; memb; auth } ->
      if verify_flood t ~origin msg auth then begin
        if Group.apply_update t.group_state ~origin ~gseq memb then
          flood t ~except:link msg
      end
      else count_drop t Obs.Auth
    | Msg.Data { cls; _ } -> proto_recv t ep cls msg
    | Msg.Link_ack { cls; _ } -> proto_recv t ep cls msg
    | Msg.Link_nack { cls; _ } -> proto_recv t ep cls msg
    | Msg.Rt_request _ ->
      proto_recv t ep
        (Packet.service_class
           (Packet.Realtime { deadline = 0; n_requests = 1; m_retrans = 1 }))
        msg
    | Msg.It_ack _ ->
      proto_recv t ep (Packet.service_class Packet.It_reliable) msg
    | Msg.Fec_parity _ ->
      proto_recv t ep
        (Packet.service_class (Packet.Fec { fec_k = 1; fec_r = 1 }))
        msg
  end

(* ------------------------------------------------------------------ *)
(* Setup and the session interface                                     *)
(* ------------------------------------------------------------------ *)

let attach_link t ~link ~bandwidth_bps ~xmit =
  if t.started then invalid_arg "Node.attach_link: already started";
  let protos = Array.make Packet.class_count None in
  let health =
    Strovl_obs.Health.create ~node:t.id ~link
      ~rtt_us:(2 * Conn_graph.metric t.conn_graph link)
  in
  let ep =
    {
      ep_link = link;
      ep_bandwidth = bandwidth_bps;
      ep_xmit = xmit;
      ep_protos = protos;
      ep_mon =
        Link_monitor.create ~engine:t.engine ~xmit
          ~interval:t.cfg.hello_interval ~timeout:t.cfg.hello_timeout ~health
          ~notify:(on_monitor t ~link protos);
    }
  in
  Hashtbl.replace t.endpoints link ep;
  refresh_topology t;
  t.eps.(link) <- Some ep

let start t =
  if not t.started then begin
    t.started <- true;
    Hashtbl.iter (fun _ ep -> Link_monitor.start ep.ep_mon) t.endpoints;
    let rec refresh () =
      if not t.stopped then begin
        flood_local_update t (Some (Conn_graph.refresh_lsu t.conn_graph));
        ignore (Engine.schedule t.engine ~delay:t.cfg.lsu_refresh refresh)
      end
    in
    ignore (Engine.schedule t.engine ~delay:t.cfg.lsu_refresh refresh)
  end

(* Shutdown for hosts whose engine outlives the node (the wall-clock
   runtime, the in-process loopback tests): periodic loops stop
   rescheduling and arriving wire messages are dropped at the door.
   Pending one-shot events fire as no-ops. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Hashtbl.iter (fun _ ep -> Link_monitor.stop ep.ep_mon) t.endpoints
  end

let register_session t ~port ~deliver = Hashtbl.replace t.sessions port deliver
let unregister_session t ~port = Hashtbl.remove t.sessions port

let join_group t ~group ~port =
  flood_local_update t (Group.join_local t.group_state ~group ~port)

let leave_group t ~group ~port =
  flood_local_update t (Group.leave_local t.group_state ~group ~port)

let sign_packet t pkt =
  match (t.registry, pkt.Packet.service) with
  | Some reg, (Packet.It_priority _ | Packet.It_reliable) ->
    let tag = Auth.sign reg ~node:t.id (Packet.signable pkt) in
    { pkt with Packet.auth = Some tag }
  | _ -> pkt

let originate t pkt =
  let pkt = Packet.with_ingress pkt t.id in
  let pkt = sign_packet t pkt in
  (* Resolve anycast at the origin for source-routed packets: the mask was
     built toward a concrete target. *)
  let pkt =
    match (pkt.Packet.routing, pkt.Packet.flow.Packet.f_dest) with
    | Packet.Source_mask _, Packet.Any_of_group g -> begin
      match Route.anycast_target t.routing ~group:g with
      | Some target ->
        {
          pkt with
          Packet.flow = { pkt.Packet.flow with Packet.f_dest = Packet.To_node target };
        }
      | None -> pkt
    end
    | _ -> pkt
  in
  Om.Counter.incr t.om.m_enqueued;
  trace_pkt t pkt Obs.Enqueue;
  match pkt.Packet.service with
  | Packet.It_reliable -> try_accept t ~from_link:(-1) pkt
  | _ ->
    forward t ~from_link:(-1) pkt;
    true

let link_up_view t ~link = Conn_graph.local_view t.conn_graph link

let link_health t ~link =
  match ep_for t link with
  | None -> None
  | Some ep -> Some (Link_monitor.health ep.ep_mon)
