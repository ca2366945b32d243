open Strovl_sim

module FlowMap = Map.Make (struct
  type t = Packet.flow

  let compare = Packet.flow_compare
end)

type t = {
  node : Node.t;
  port : int;
  mutable app : (Packet.t -> unit) option;
  mutable reorder : bool;
  mutable buffers : Deliver.t FlowMap.t;
}

let deliver_app t pkt = match t.app with None -> () | Some f -> f pkt

let mode_for pkt =
  match pkt.Packet.service with
  | Packet.Reliable | Packet.It_reliable -> Deliver.Ordered
  | Packet.Realtime { deadline } -> Deliver.Deadline deadline
  | Packet.Best_effort | Packet.It_priority _ | Packet.Fec ->
    Deliver.Unordered

let on_packet t pkt =
  if not t.reorder then deliver_app t pkt
  else begin
    let flow = pkt.Packet.flow in
    let buf =
      match FlowMap.find_opt flow t.buffers with
      | Some b -> b
      | None ->
        let b =
          Deliver.create (Node.engine t.node) (mode_for pkt)
            ~deliver:(deliver_app t)
        in
        t.buffers <- FlowMap.add flow b t.buffers;
        b
    in
    Deliver.push buf pkt
  end

let attach node ~port =
  let t = { node; port; app = None; reorder = true; buffers = FlowMap.empty } in
  Node.register_session node ~port ~deliver:(on_packet t);
  t

let detach t = Node.unregister_session t.node ~port:t.port
let join t ~group = Node.join_group t.node ~group ~port:t.port
let leave t ~group = Node.leave_group t.node ~group ~port:t.port

let set_receiver t ?(reorder = true) f =
  t.reorder <- reorder;
  t.app <- Some f

type route_pref = Table | Scheme of Strovl_topo.Dissem.scheme

type sender = {
  client : t;
  service : Packet.service;
  route : route_pref;
  dest : Packet.dest;
  dport : int;
  mutable seq : int;
}

let sender t ?(service = Packet.Best_effort) ?(route = Table) ~dest ~dport () =
  { client = t; service; route; dest; dport; seq = 0 }

let routing_of s =
  match s.route with
  | Table -> Packet.Link_state
  | Scheme scheme ->
    let node = s.client.node in
    let target =
      match s.dest with
      | Packet.To_node n -> Some n
      | Packet.Any_of_group g -> Route.anycast_target (Node.route node) ~group:g
      | Packet.To_group _ -> None
    in
    let mask =
      match (scheme, target) with
      | Strovl_topo.Dissem.Flooding, _ | _, None ->
        (* Group destinations under source routing use constrained flooding
           over the live topology. *)
        Route.usable_mask (Node.route node)
      | _, Some dst when dst = Node.id node ->
        Route.usable_mask (Node.route node)
      | _, Some dst -> Route.dissem_mask (Node.route node) ~dst scheme
    in
    Packet.Source_mask mask

let send s ?(bytes = 1200) ?(tag = "") () =
  let node = s.client.node in
  let flow =
    {
      Packet.f_src = Node.id node;
      f_sport = s.client.port;
      f_dest = s.dest;
      f_dport = s.dport;
    }
  in
  let pkt =
    Packet.make ~flow ~routing:(routing_of s) ~service:s.service ~seq:s.seq
      ~sent_at:(Engine.now (Node.engine node))
      ~bytes ~tag ()
  in
  let accepted = Node.originate node pkt in
  if accepted then s.seq <- s.seq + 1;
  accepted

let sent s = s.seq
