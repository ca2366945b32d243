open Strovl
module Metrics = Strovl_obs.Metrics

(* One incident link's send side: the link frame buffering this turn's
   messages for the peer. *)
type out = { addr : Unix.sockaddr; frame : Wire.Link_frame.t }

type t = {
  rt : Runtime.t;
  topo : Topofile.t;
  me : int;
  node : Node.t;
  sock : Udp.t;
  peer_of_link : int option array;
      (** [peer_of_link.(l)] is the far end of link [l] iff [l] is incident
          to this node — the validity check for inbound link frames *)
  outs : out array;  (** one per incident link *)
  sbuf : Wire.Session_buf.t;  (** every outgoing session datagram *)
  mutable flush_pending : bool;
  mutable flush_ev : unit -> unit;  (** the turn's flush; built once *)
  sessions : (int, Unix.sockaddr) Hashtbl.t;  (** sport -> client *)
  m_rx : Metrics.Counter.t;  (** datagrams, one per segment of a receive *)
  m_rx_batches : Metrics.Counter.t;  (** receives that returned data *)
  m_tx : Metrics.Counter.t;
  m_batches : Metrics.Counter.t;  (** [sendmmsg] calls *)
  m_tx_msgs : Metrics.Counter.t;  (** overlay messages sent, over all frames *)
  m_frame_bytes : Metrics.Histogram.t;  (** size of each link frame sent *)
  m_bad : Metrics.Counter.t;
      (** undecodable datagrams, and receives dropped for [MSG_TRUNC] *)
  m_misdirected : Metrics.Counter.t;
      (** well-formed but wrong: unknown/non-incident link, source not the
          link's far end, a client-bound session frame, or a [Send],
          [Join], [Leave] or [Close] from a client other than the session's
          opener *)
  mutable closed : bool;
}

let bindable_host host =
  (* Bind to the concrete IP when the file gives one; for hostnames bind
     any-address (the name is for *peers* to find us). *)
  match Unix.inet_addr_of_string host with
  | _ -> host
  | exception Failure _ -> ""

(* ------------------------------ sending ------------------------------- *)

(* Every outgoing datagram is queued on the socket, and one zero-delay
   engine event per turn sends the queue in one batch. Link traffic is
   also coalesced: [xmit] appends each message to its link's frame, and
   the event first queues every non-empty frame. The event fires inside
   the engine catch-up that opens the next [Runtime.step] (or the current
   one, for datagrams queued by engine events), always before that step
   sleeps in [select], so no datagram waits in a buffer across a sleep. *)

let request_flush t =
  if not t.flush_pending then begin
    t.flush_pending <- true;
    ignore (Strovl_sim.Engine.schedule (Runtime.engine t.rt) ~delay:0 t.flush_ev)
  end

let enqueue t addr buf len =
  Metrics.Counter.incr t.m_tx;
  Metrics.Counter.add t.m_batches (Udp.queue t.sock addr buf len)

(* Session frames are one datagram each, encoded into the host's one
   session buffer and copied into the queue. *)
let send_session t addr frame =
  if not t.closed then begin
    Wire.Session_buf.encode t.sbuf frame;
    enqueue t addr (Wire.Session_buf.bytes t.sbuf)
      (Wire.Session_buf.length t.sbuf);
    request_flush t
  end

let send_frame t o =
  let f = o.frame in
  let n = Wire.Link_frame.count f in
  if n > 0 then begin
    let len = Wire.Link_frame.length f in
    enqueue t o.addr (Wire.Link_frame.bytes f) len;
    Metrics.Counter.add t.m_tx_msgs n;
    Metrics.Histogram.observe t.m_frame_bytes len;
    Wire.Link_frame.clear f
  end

let flush t =
  t.flush_pending <- false;
  if not t.closed then begin
    for i = 0 to Array.length t.outs - 1 do
      send_frame t t.outs.(i)
    done;
    Metrics.Counter.add t.m_batches (Udp.flush t.sock)
  end

let xmit t o msg =
  if not t.closed then begin
    let f = o.frame in
    if
      Wire.Link_frame.count f > 0
      && Wire.Link_frame.length f + Wire.header_size msg > Wire.max_frame
    then send_frame t o;
    Wire.Link_frame.add f msg;
    request_flush t
  end

let deliver t sport pkt =
  match Hashtbl.find_opt t.sessions sport with
  | Some addr ->
    send_session t addr
      (Wire.Session.Deliver { sport; at = Runtime.now t.rt; pkt })
  | None -> ()

let stats_json t =
  let c = Node.counters t.node in
  Printf.sprintf
    {|{"node":%d,"now_us":%d,"forwarded":%d,"delivered":%d,"dropped_no_route":%d,"dropped_ttl":%d,"dropped_auth":%d,"dropped_dup":%d,"dropped_backpressure":%d,"dropped_overload":%d,"lsu_floods":%d,"group_floods":%d,"rx_datagrams":%d,"rx_batches":%d,"tx_datagrams":%d,"tx_batches":%d,"tx_link_msgs":%d,"bad_datagrams":%d,"misdirected":%d,"sessions":%d}|}
    t.me (Runtime.now t.rt) c.Node.forwarded c.Node.delivered
    c.Node.dropped_no_route c.Node.dropped_ttl c.Node.dropped_auth
    c.Node.dropped_dup c.Node.dropped_backpressure c.Node.dropped_overload
    c.Node.lsu_floods c.Node.group_floods
    (Metrics.Counter.value t.m_rx)
    (Metrics.Counter.value t.m_rx_batches)
    (Metrics.Counter.value t.m_tx)
    (Metrics.Counter.value t.m_batches)
    (Metrics.Counter.value t.m_tx_msgs)
    (Metrics.Counter.value t.m_bad)
    (Metrics.Counter.value t.m_misdirected)
    (Hashtbl.length t.sessions)

(* Whether [from] may act on session [sport]: once a client has opened it,
   only that client; any other is counted as misdirected. *)
let from_opener t sport from =
  match Hashtbl.find t.sessions sport with
  | opener ->
    opener == from || opener = from
    || begin
      Metrics.Counter.incr t.m_misdirected;
      false
    end
  | exception Not_found -> true

let handle_session t frame from =
  match frame with
  | Wire.Session.Open { sport } ->
    if not (Hashtbl.mem t.sessions sport) then
      Node.register_session t.node ~port:sport ~deliver:(deliver t sport);
    Hashtbl.replace t.sessions sport from;
    send_session t from (Wire.Session.Open_ok { node = t.me; sport })
  | Join { group; sport } ->
    if from_opener t sport from then Node.join_group t.node ~group ~port:sport
  | Leave { group; sport } ->
    if from_opener t sport from then Node.leave_group t.node ~group ~port:sport
  | Send { sport; dest; dport; service; seq; bytes; tag } ->
    if from_opener t sport from then begin
      let flow =
        { Packet.f_src = t.me; f_sport = sport; f_dest = dest; f_dport = dport }
      in
      let pkt =
        Packet.make ~flow ~routing:Packet.Link_state ~service ~seq
          ~sent_at:(Runtime.now t.rt) ~bytes ~tag ()
      in
      let accepted = Node.originate t.node pkt in
      send_session t from (Wire.Session.Sent { sport; seq; accepted })
    end
  | Stats_req _ -> send_session t from (Wire.Session.Stats { json = stats_json t })
  | Close { sport } ->
    if Hashtbl.mem t.sessions sport && from_opener t sport from then begin
      Hashtbl.remove t.sessions sport;
      Node.unregister_session t.node ~port:sport
    end
  | Open_ok _ | Sent _ | Deliver _ | Stats _ ->
    (* client-bound frames have no business arriving at a daemon *)
    Metrics.Counter.incr t.m_misdirected

(* [List.iter] would build a closure per datagram. *)
let rec receive_all node link = function
  | [] -> ()
  | msg :: rest ->
    Node.receive node ~link msg;
    receive_all node link rest

let handle_datagram t data from =
  Metrics.Counter.incr t.m_rx;
  match Wire.decode_frame data with
  | Error _ -> Metrics.Counter.incr t.m_bad
  | Ok (Wire.Fr_link { src; link; msgs }) -> (
    match
      if link >= 0 && link < Array.length t.peer_of_link then
        t.peer_of_link.(link)
      else None
    with
    | Some peer when peer = src ->
      receive_all t.node link msgs
    | _ -> Metrics.Counter.incr t.m_misdirected)
  | Ok (Wire.Fr_session frame) -> handle_session t frame from

let create ?config ~rt ~topo ~id () =
  let graph = Topofile.graph topo in
  let node =
    Node.create ?config ~engine:(Runtime.engine rt) ~graph ~id
      ~metric:(Topofile.metric topo) ()
  in
  let { Topofile.host; port } = topo.Topofile.nodes.(id) in
  let sock = Udp.bind ~host:(bindable_host host) ~port in
  let nlinks = Array.length topo.Topofile.links in
  let incident = Strovl_topo.Graph.incident graph id in
  let peer link = Strovl_topo.Graph.other_end graph link id in
  let outs =
    Array.of_list
      (List.map
         (fun link ->
           {
             addr = Topofile.addr topo (peer link);
             frame = Wire.Link_frame.create ~src:id ~link;
           })
         incident)
  in
  let labels = [ ("node", string_of_int id) ] in
  let t =
    {
      rt;
      topo;
      me = id;
      node;
      sock;
      peer_of_link = Array.make nlinks None;
      outs;
      sbuf = Wire.Session_buf.create ();
      flush_pending = false;
      flush_ev = ignore;
      sessions = Hashtbl.create 8;
      m_rx = Metrics.counter ~labels "strovl_rt_rx_datagrams_total";
      m_rx_batches = Metrics.counter ~labels "strovl_rt_rx_batches_total";
      m_tx = Metrics.counter ~labels "strovl_rt_tx_datagrams_total";
      m_batches = Metrics.counter ~labels "strovl_rt_tx_batches_total";
      m_tx_msgs = Metrics.counter ~labels "strovl_rt_tx_link_msgs_total";
      m_frame_bytes = Metrics.histogram ~labels "strovl_rt_link_frame_bytes";
      m_bad = Metrics.counter ~labels "strovl_rt_bad_datagrams_total";
      m_misdirected = Metrics.counter ~labels "strovl_rt_misdirected_total";
      closed = false;
    }
  in
  t.flush_ev <- (fun () -> flush t);
  List.iteri
    (fun i link ->
      t.peer_of_link.(link) <- Some (peer link);
      Transport.attach node
        {
          Transport.ep_link = link;
          ep_peer = peer link;
          ep_bandwidth_bps = Topofile.bandwidth_bps topo link;
          ep_xmit = xmit t outs.(i);
        })
    incident;
  t

let node t = t.node
let id t = t.me
let port t = Udp.port t.sock

let start t =
  Node.start t.node;
  let on_datagram = handle_datagram t in
  Runtime.watch t.rt (Udp.fd t.sock) (fun () ->
      let batches = Udp.rx_batches t.sock and truncated = Udp.truncated t.sock in
      Udp.drain t.sock ~f:on_datagram;
      Metrics.Counter.add t.m_rx_batches (Udp.rx_batches t.sock - batches);
      Metrics.Counter.add t.m_bad (Udp.truncated t.sock - truncated))

let close t =
  if not t.closed then begin
    t.closed <- true;
    Node.stop t.node;
    Runtime.unwatch t.rt (Udp.fd t.sock);
    Array.iter (fun o -> Wire.Link_frame.trim o.frame) t.outs;
    Udp.close t.sock
  end
