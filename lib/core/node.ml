open Strovl_sim
module Graph = Strovl_topo.Graph
module Bitmask = Strovl_topo.Bitmask
module Auth = Strovl_crypto.Auth

type config = {
  hello_interval : Time.t;
  hello_timeout : Time.t;
  proc_delay : Time.t;
  proc_rate_pps : int option;
  cluster_size : int;
  in_order_forwarding : bool;
  realtime : Realtime_link.config;
  it_priority : It_priority.mode;
  loss_aware_routing : bool;
}

let default_config =
  {
    hello_interval = Time.ms 100;
    hello_timeout = Time.ms 350;
    proc_delay = Time.us 50;
    proc_rate_pps = None;
    cluster_size = 1;
    in_order_forwarding = false;
    realtime = Realtime_link.default_config;
    it_priority = It_priority.Round_robin;
    loss_aware_routing = false;
  }

(* Period of the full LSU re-flood. *)
let lsu_refresh = Time.sec 10

(* CPU backlog beyond which a finite-capacity node drops (§II-D). *)
let cpu_queue = Time.ms 20

(* Observability: domain-local labelled metrics and flight-recorder
   events. Handles live in the node record and are looked up at [create]
   time, so they always belong to the run's own registry (registries are
   purged between pool-scheduled runs; see {!Strovl_obs.Ctx}). All nodes of
   one run share the same handles via get-or-create, and hot-path updates
   stay O(1). *)
module Obs = Strovl_obs.Trace
module Om = Strovl_obs.Metrics

(* The one counter path: each counted event has a slot in the node's own
   tally and in its metric handles, and [count] bumps both. *)
type event =
  | Forwarded
  | Delivered
  | Enqueued
  | Lsu_flood
  | Group_flood
  | Dropped of Obs.reason

let drop_slot = function
  | Obs.No_route -> 5
  | Obs.Ttl -> 6
  | Obs.Auth -> 7
  | Obs.Dup -> 8
  | Obs.Backpressure -> 9
  | Obs.Overload -> 10
  | Obs.Queue_full | Obs.Priority_evict | Obs.Wire_loss ->
    invalid_arg "Node.drop: not a node drop"

let[@inline] slot = function
  | Forwarded -> 0
  | Delivered -> 1
  | Enqueued -> 2
  | Lsu_flood -> 3
  | Group_flood -> 4
  | Dropped reason -> drop_slot reason

(* Every event, in slot order. *)
let events =
  Array.append
    [| Forwarded; Delivered; Enqueued; Lsu_flood; Group_flood |]
    (Array.map
       (fun reason -> Dropped reason)
       Obs.[| No_route; Ttl; Auth; Dup; Backpressure; Overload |])

let counter_of = function
  | Forwarded -> Om.counter "strovl_node_forwarded_total"
  | Delivered -> Om.counter "strovl_node_delivered_total"
  | Enqueued -> Om.counter "strovl_node_enqueued_total"
  | Lsu_flood -> Om.counter "strovl_lsu_floods_total"
  | Group_flood -> Om.counter "strovl_group_floods_total"
  | Dropped reason ->
    Om.counter
      ~labels:[ ("reason", Obs.reason_to_string reason) ]
      "strovl_node_dropped_total"

type counters = {
  forwarded : int;
  delivered : int;
  dropped_no_route : int;
  dropped_ttl : int;
  dropped_auth : int;
  dropped_dup : int;
  dropped_backpressure : int;
  dropped_overload : int;
  lsu_floods : int;
  group_floods : int;
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
  conn_graph : Conn_graph.t;
  group_state : Group.t;
  routing : Route.t;
  registry : Auth.registry option;
  (* The one endpoint table, fixed at [create] like the topology: attached
     endpoints by link id, and this node's incident link ids in
     [Graph.incident] order, which floods, start and stop walk. *)
  eps : endpoint option array;
  incident : int array;
  (* Reusable out-links scratch buffer for the forwarding plane; the busy
     flag covers re-entrant forwarding (a deliver callback originating a
     packet synchronously), which falls back to a fresh buffer. *)
  out_buf : int array;
  mutable out_busy : bool;
  sessions : (int, Packet.t -> unit) Hashtbl.t; (* by port *)
  dedup : Dedup.t;
  tally : int array; (* by [slot] *)
  om : Om.Counter.t array; (* by [slot] *)
  m_delivery_latency : Om.Histogram.t;
  mutable suspect_hook : int -> unit;
  mutable started : bool;
  mutable stopped : bool;
  mutable cpu_busy_until : Time.t; (* finite-capacity CPU server (§II-D) *)
}

let[@inline] bump t i =
  t.tally.(i) <- t.tally.(i) + 1;
  Om.Counter.incr t.om.(i)

let[@inline] count t ev = bump t (slot ev)

(* A counted drop that is also reported: with the packet, a trace event
   naming it, so the causal path shows where and why it died; without one
   (CPU overload), a bare trace event. It bumps the drop slot directly, so
   a drop with a variable reason builds no [Dropped]. *)
let drop t ?pkt reason =
  bump t (drop_slot reason);
  if Obs.armed () then
    match pkt with
    | Some pkt ->
      Obs.emit
        ~flow:(Packet.obs_flow pkt.Packet.flow)
        ~seq:pkt.Packet.seq ~node:t.id (Obs.Drop reason)
    | None -> Obs.emit ~node:t.id (Obs.Drop reason)

(* As [Lproto.trace_pkt]: a caller with a non-constant [ev] guards it. *)
let trace_pkt t pkt ev =
  if Obs.armed () then
    Obs.emit
      ~flow:(Packet.obs_flow pkt.Packet.flow)
      ~seq:pkt.Packet.seq ~node:t.id ev

let create ?(config = default_config) ?registry ~engine ~graph ~id ~metric () =
  let conn_graph = Conn_graph.create ~self:id graph ~metric in
  Conn_graph.use_effective_metric conn_graph config.loss_aware_routing;
  let group_state = Group.create ~self:id ~nnodes:(Graph.n graph) in
  let incident = Array.of_list (Graph.incident graph id) in
  {
    id;
    engine;
    cfg = config;
    conn_graph;
    group_state;
    routing = Route.create conn_graph group_state;
    registry;
    eps = Array.make (Graph.link_count graph) None;
    incident;
    out_buf = Array.make (Array.length incident + 1) 0;
    out_busy = false;
    sessions = Hashtbl.create 8;
    dedup = Dedup.create ();
    tally = Array.make (Array.length events) 0;
    om = Array.map counter_of events;
    m_delivery_latency = Om.histogram "strovl_delivery_latency_us";
    suspect_hook = (fun _ -> ());
    started = false;
    stopped = false;
    cpu_busy_until = Time.zero;
  }

let ep_for t link =
  if link >= 0 && link < Array.length t.eps then t.eps.(link) else None

(* Every attached endpoint but the one on [except], in incident order. *)
let iter_eps t ?(except = -1) f =
  for i = 0 to Array.length t.incident - 1 do
    let l = t.incident.(i) in
    if l <> except then
      match t.eps.(l) with Some ep -> f ep | None -> ()
  done

let id t = t.id
let config t = t.cfg
let conn t = t.conn_graph
let group t = t.group_state
let route t = t.routing
let counters t =
  let n ev = t.tally.(slot ev) in
  {
    forwarded = n Forwarded;
    delivered = n Delivered;
    dropped_no_route = n (Dropped Obs.No_route);
    dropped_ttl = n (Dropped Obs.Ttl);
    dropped_auth = n (Dropped Obs.Auth);
    dropped_dup = n (Dropped Obs.Dup);
    dropped_backpressure = n (Dropped Obs.Backpressure);
    dropped_overload = n (Dropped Obs.Overload);
    lsu_floods = n Lsu_flood;
    group_floods = n Group_flood;
  }
let engine t = t.engine
let set_link_suspect_hook t f = t.suspect_hook <- f

(* ------------------------------------------------------------------ *)
(* Flooded shared state: signing and propagation                       *)
(* ------------------------------------------------------------------ *)

let sign_flood t msg =
  match t.registry with
  | None -> msg
  | Some reg ->
    let tag = Auth.sign reg ~node:t.id (Wire.flood_signable msg) in
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
    | Some tag -> Auth.verify_sign reg ~node:origin (Wire.flood_signable msg) tag)

let flood t ?except msg = iter_eps t ?except (fun ep -> ep.ep_xmit msg)

let flood_local_update t msg_opt =
  match msg_opt with
  | None -> ()
  | Some msg ->
    (match msg with
    | Msg.Lsu _ ->
      count t Lsu_flood;
      if Obs.armed () then Obs.emit ~node:t.id Obs.Lsu_flood
    | Msg.Group_update _ -> count t Group_flood
    | _ -> ());
    flood t (sign_flood t msg)

(* ------------------------------------------------------------------ *)
(* Routing decisions                                                   *)
(* ------------------------------------------------------------------ *)

let deliver_local t pkt ~port =
  match Hashtbl.find t.sessions port with
  | exception Not_found -> ()
  | deliver ->
    count t Delivered;
    Om.Histogram.observe t.m_delivery_latency
      (Time.sub (Engine.now t.engine) pkt.Packet.sent_at);
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
          && Option.is_some t.eps.(l)
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

(* Admission to the node's CPU: always with unbounded capacity; with a
   finite one, a serial server at the cluster's aggregate rate that takes
   the packet onto its backlog, or refuses it (an overload drop) beyond the
   CPU queue. IT-Reliable acceptance calls it directly, so an overloaded
   CPU becomes backpressure instead of a queue. *)
let cpu_admit t =
  match t.cfg.proc_rate_pps with
  | None -> true
  | Some rate ->
    let now = Engine.now t.engine in
    let start = Time.max now t.cpu_busy_until in
    if Time.sub start now > cpu_queue then begin
      drop t Obs.Overload;
      false
    end
    else begin
      let service = max 1 (1_000_000 / (rate * max 1 t.cfg.cluster_size)) in
      t.cpu_busy_until <- Time.add start service;
      true
    end

(* Run [work] once the node's CPU has processed the packet: after a flat
   per-packet cost (unbounded capacity) or when the serial server is done
   with it. *)
let charge_cpu t work =
  match t.cfg.proc_rate_pps with
  | None -> ignore (Engine.schedule t.engine ~delay:t.cfg.proc_delay work)
  | Some _ ->
    if cpu_admit t then
      ignore (Engine.schedule_at t.engine ~at:t.cpu_busy_until work)

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
        P_rel (Reliable_link.create ~in_order:t.cfg.in_order_forwarding ctx)
      else if cls = Packet.service_class (Packet.It_priority 0) then
        P_itp (It_priority.create ~mode:t.cfg.it_priority ctx)
      else if cls = Packet.service_class Packet.It_reliable then
        P_itr (It_reliable.create ctx)
      else if cls = Packet.service_class Packet.Fec then
        P_fec (Fec_link.create ctx)
      else P_rt (Realtime_link.create ~config:t.cfg.realtime ctx)
    in
    ep.ep_protos.(cls) <- Some p;
    p

(* Send [pkt] on the first [n] links of [buf] (as filled by
   [collect_outs]). One [next_hop_copy] per routing decision is shared
   across the fan-out: the packet record is immutable. *)
and fan_out t pkt buf n =
  if n > 0 then begin
    let fwd = Packet.next_hop_copy pkt in
    for i = 0 to n - 1 do
      match ep_for t buf.(i) with
      | Some ep -> send_prepped t ep fwd
      | None -> ()
    done
  end

(* Send one already-hop-bumped packet down a link's protocol instance. *)
and send_prepped t ep pkt =
  count t Forwarded;
  if Obs.armed () then
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
  | Packet.Best_effort | Packet.Reliable | Packet.Realtime _ | Packet.Fec ->
    true
  | Packet.It_priority _ | Packet.It_reliable -> begin
    match t.registry with
    | None -> true
    | Some reg -> begin
      match pkt.Packet.auth with
      | None -> false
      | Some tag ->
        Auth.verify_sign reg ~node:pkt.Packet.flow.Packet.f_src
          (Wire.signable pkt) tag
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
    fan_out t pkt buf (collect_outs t pkt ~from_link buf);
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
    count t (Dropped Obs.Dup);
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
          fan_out t pkt buf n;
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
        fan_out t pkt buf (collect_outs t pkt ~from_link:link buf);
        release_outs t buf)
      stranded
  | Some (P_best _ | P_rt _ | P_itp _ | P_itr _ | P_fec _) | None -> ()

(* What one endpoint's monitor reports becomes shared state: the one-way
   latency and round-trip loss are advertised, a dead link is taken down
   (rerouting what it stranded) and its ISP rotated, and a link heard
   again comes back up. *)
let on_monitor t ~link protos = function
  | Link_monitor.Rtt rtt ->
    (* Capped at the LSU's u32 metric field: a forged hello echo can make
       the measured round trip as long as the node's uptime. *)
    let metric = Int.min 0xffff_ffff (Int.max 1 (rtt / 2)) in
    flood_local_update t (Conn_graph.set_local_metric t.conn_graph ~link ~metric)
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
    | Msg.Hello _ | Msg.Hello_ack _ -> Link_monitor.recv ep.ep_mon msg
    | Msg.Probe _ | Msg.Probe_ack _ -> ()
    | Msg.Lsu { origin; lsu_seq; links; auth } ->
      if verify_flood t ~origin msg auth then begin
        if Conn_graph.apply_lsu t.conn_graph ~origin ~lsu_seq links then
          flood t ~except:link msg
      end
      else count t (Dropped Obs.Auth)
    | Msg.Group_update { origin; gseq; memb; auth } ->
      if verify_flood t ~origin msg auth then begin
        if Group.apply_update t.group_state ~origin ~gseq memb then
          flood t ~except:link msg
      end
      else count t (Dropped Obs.Auth)
    | Msg.Data { cls; _ } -> proto_recv t ep cls msg
    | Msg.Link_ack { cls; _ } -> proto_recv t ep cls msg
    | Msg.Link_nack { cls; _ } -> proto_recv t ep cls msg
    | Msg.Rt_request _ ->
      proto_recv t ep
        (Packet.service_class
           (Packet.Realtime { deadline = 0 }))
        msg
    | Msg.It_ack _ ->
      proto_recv t ep (Packet.service_class Packet.It_reliable) msg
    | Msg.Fec_parity _ ->
      proto_recv t ep
        (Packet.service_class Packet.Fec)
        msg
  end

(* ------------------------------------------------------------------ *)
(* Setup and the session interface                                     *)
(* ------------------------------------------------------------------ *)

let attach_link t ~link ~bandwidth_bps ~xmit =
  if t.started then invalid_arg "Node.attach_link: already started";
  if not (Array.mem link t.incident) then
    invalid_arg "Node.attach_link: link not incident to this node";
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
  t.eps.(link) <- Some ep

let start t =
  if not t.started then begin
    t.started <- true;
    iter_eps t (fun ep -> Link_monitor.start ep.ep_mon);
    let rec refresh () =
      if not t.stopped then begin
        flood_local_update t (Some (Conn_graph.refresh_lsu t.conn_graph));
        ignore (Engine.schedule t.engine ~delay:lsu_refresh refresh)
      end
    in
    ignore (Engine.schedule t.engine ~delay:lsu_refresh refresh)
  end

(* Shutdown for hosts whose engine outlives the node (the wall-clock
   runtime, the in-process loopback tests): periodic loops stop
   rescheduling and arriving wire messages are dropped at the door.
   Pending one-shot events fire as no-ops. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    iter_eps t (fun ep -> Link_monitor.stop ep.ep_mon)
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
    let tag = Auth.sign reg ~node:t.id (Wire.signable pkt) in
    { pkt with Packet.auth = Some tag }
  | _ -> pkt

let originate t pkt =
  let pkt = Packet.with_ingress pkt t.id in
  (* Resolve anycast at the origin for source-routed packets: the mask was
     built toward a concrete target. The signature covers the resolved
     destination. *)
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
  let pkt = sign_packet t pkt in
  count t Enqueued;
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
