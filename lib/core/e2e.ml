open Strovl_sim
module Link = Strovl_net.Link

type service =
  | Best_effort
  | Reliable of Reliable_link.config
  | Realtime of Realtime_link.config
  | Fec of Fec_link.config

type side =
  | S_rel of Reliable_link.t
  | S_rt of Realtime_link.t
  | S_fec of Fec_link.t
  | S_best

type t = {
  engine : Engine.t;
  link : Link.t;
  mutable sender : side;
  mutable receiver : side;
  buffer : Deliver.t;
  mutable seq : int;
  service : service;
}

let side_recv side msg =
  match side with
  | S_rel p -> Reliable_link.recv p msg
  | S_rt p -> Realtime_link.recv p msg
  | S_fec p -> Fec_link.recv p msg
  | S_best -> ()

let create engine link ~service ~deliver =
  let path_latency = Option.value ~default:(Time.ms 50) (Link.probe_delay link) in
  let mode =
    match service with
    | Best_effort -> Deliver.Unordered
    | Reliable _ -> Deliver.Ordered
    | Realtime cfg ->
      Deliver.Deadline (Time.add cfg.Realtime_link.budget path_latency)
    | Fec _ -> Deliver.Unordered
  in
  let t =
    {
      engine;
      link;
      sender = S_best;
      receiver = S_best;
      buffer = Deliver.create engine mode ~deliver;
      seq = 0;
      service;
    }
  in
  let xmit_from src msg =
    let to_side () = if src = Link.a link then t.receiver else t.sender in
    Link.send link ~src ~bytes:(Msg.bytes msg) ~deliver:(fun () ->
        match to_side () with
        | S_best -> begin
          match msg with
          | Msg.Data { pkt; _ } -> Deliver.push t.buffer pkt
          | _ -> ()
        end
        | side -> side_recv side msg)
  in
  let rtt_hint = 2 * path_latency in
  let sender_ctx =
    {
      Lproto.engine;
      node = Link.a link;
      link = -1;
      xmit = xmit_from (Link.a link);
      up = ignore;
      try_up = (fun _ -> true);
      bandwidth_bps = 1_000_000_000;
      rtt_hint;
    }
  in
  let receiver_ctx =
    {
      Lproto.engine;
      node = Link.b link;
      link = -1;
      xmit = xmit_from (Link.b link);
      up = Deliver.push t.buffer;
      try_up = (fun _ -> true);
      bandwidth_bps = 1_000_000_000;
      rtt_hint;
    }
  in
  (match service with
  | Best_effort -> ()
  | Reliable cfg ->
    t.sender <- S_rel (Reliable_link.create ~config:cfg sender_ctx);
    t.receiver <- S_rel (Reliable_link.create ~config:cfg receiver_ctx)
  | Realtime cfg ->
    t.sender <- S_rt (Realtime_link.create ~config:cfg sender_ctx);
    t.receiver <- S_rt (Realtime_link.create ~config:cfg receiver_ctx)
  | Fec cfg ->
    t.sender <- S_fec (Fec_link.create ~config:cfg sender_ctx);
    t.receiver <- S_fec (Fec_link.create ~config:cfg receiver_ctx));
  t

let make_packet t ~bytes ~tag =
  let flow =
    {
      Packet.f_src = Link.a t.link;
      f_sport = 0;
      f_dest = Packet.To_node (Link.b t.link);
      f_dport = 0;
    }
  in
  Packet.make ~flow ~routing:Packet.Link_state
    ~service:
      (match t.service with
      | Best_effort -> Packet.Best_effort
      | Reliable _ -> Packet.Reliable
      | Realtime cfg -> Packet.Realtime { deadline = cfg.Realtime_link.budget }
      | Fec _ -> Packet.Fec)
    ~seq:t.seq ~sent_at:(Engine.now t.engine) ~bytes ~tag ()

let send t ?(bytes = 1200) ?(tag = "") () =
  let pkt = make_packet t ~bytes ~tag in
  t.seq <- t.seq + 1;
  match t.sender with
  | S_rel p -> Reliable_link.send p pkt
  | S_rt p -> Realtime_link.send p pkt
  | S_fec p -> Fec_link.send p pkt
  | S_best ->
    let msg = Msg.Data { cls = 0; lseq = t.seq; pkt; auth = None } in
    Link.send t.link ~src:(Link.a t.link) ~bytes:(Msg.bytes msg)
      ~deliver:(fun () -> Deliver.push t.buffer pkt)

let retransmissions t =
  match t.sender with
  | S_rel p -> Reliable_link.retransmissions p
  | S_rt p -> Realtime_link.retransmissions p
  | S_fec p -> Fec_link.parity_sent p
  | S_best -> 0
