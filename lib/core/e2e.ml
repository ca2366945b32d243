open Strovl_sim
module Link = Strovl_net.Link

type service =
  | Best_effort
  | Reliable
  | Realtime of Realtime_link.config
  | Fec

type side =
  | S_best of Best_effort.t
  | S_rel of Reliable_link.t
  | S_rt of Realtime_link.t
  | S_fec of Fec_link.t

type t = {
  engine : Engine.t;
  link : Link.t;
  sender : side;
  mutable seq : int;
  service : service;
  data_tx : int ref; (* Data and Fec_parity messages the sender transmitted *)
}

let side_recv side msg =
  match side with
  | S_best p -> Best_effort.recv p msg
  | S_rel p -> Reliable_link.recv p msg
  | S_rt p -> Realtime_link.recv p msg
  | S_fec p -> Fec_link.recv p msg

let create engine link ~service ~deliver =
  let path_latency = Option.value ~default:(Time.ms 50) (Link.probe_delay link) in
  let mode =
    match service with
    | Best_effort -> Deliver.Unordered
    | Reliable -> Deliver.Ordered
    | Realtime cfg ->
      Deliver.Deadline (Time.add cfg.Realtime_link.budget path_latency)
    | Fec -> Deliver.Unordered
  in
  let buffer = Deliver.create engine mode ~deliver in
  let data_tx = ref 0 in
  let side node ~up ~peer =
    let ctx =
      {
        Lproto.engine;
        node;
        link = -1;
        xmit =
          (fun msg ->
            (if node = Link.a link then
               match msg with
               | Msg.Data _ | Msg.Fec_parity _ -> incr data_tx
               | _ -> ());
            Link.send link ~src:node ~bytes:(Wire.size msg) ~deliver:(fun () ->
                side_recv (Lazy.force peer) msg));
        up;
        try_up = (fun _ -> true);
        bandwidth_bps = 1_000_000_000;
        rtt_hint = 2 * path_latency;
      }
    in
    match service with
    | Best_effort -> S_best (Best_effort.create ctx)
    | Reliable -> S_rel (Reliable_link.create ~in_order:false ctx)
    | Realtime cfg -> S_rt (Realtime_link.create ~config:cfg ctx)
    | Fec -> S_fec (Fec_link.create ctx)
  in
  (* Each side's xmit reaches the other through [peer]; both are built
     here, sender first, before any message flows. *)
  let rec sender = lazy (side (Link.a link) ~up:ignore ~peer:receiver)
  and receiver =
    lazy (side (Link.b link) ~up:(Deliver.push buffer) ~peer:sender)
  in
  let sender = Lazy.force sender in
  ignore (Lazy.force receiver);
  { engine; link; sender; seq = 0; service; data_tx }

let make_packet t =
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
      | Reliable -> Packet.Reliable
      | Realtime cfg -> Packet.Realtime { deadline = cfg.Realtime_link.budget }
      | Fec -> Packet.Fec)
    ~seq:t.seq ~sent_at:(Engine.now t.engine) ~bytes:1200 ()

let send t =
  let pkt = make_packet t in
  t.seq <- t.seq + 1;
  match t.sender with
  | S_best p -> Best_effort.send p pkt
  | S_rel p -> Reliable_link.send p pkt
  | S_rt p -> Realtime_link.send p pkt
  | S_fec p -> Fec_link.send p pkt

let stream t ~interval ~count =
  let rec pump sent () =
    if sent < count then begin
      send t;
      ignore (Engine.schedule t.engine ~delay:interval (pump (sent + 1)))
    end
  in
  pump 0 ()

let retransmissions t = !(t.data_tx) - t.seq
