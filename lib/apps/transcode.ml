open Strovl_sim

type t = {
  net : Strovl.Net.t;
  node : int;
  port : int;
  ingest_group : int;
  client : Strovl.Client.t;
  out_group : int;
  mutable n_processed : int;
  mutable live : bool;
}

(* Processing time per packet, and output size per input byte
   (transcoding down). *)
let delay = Time.ms 5
let out_scale = 0.5

(* Re-originate a transformed packet. The output keeps the *original* flow
   source and sequence number (it is the same application flow, transformed)
   so that downstream receivers see one continuous stream across facility
   failovers; only the destination group changes. *)
let emit t (pkt : Strovl.Packet.t) =
  let flow =
    { pkt.Strovl.Packet.flow with Strovl.Packet.f_dest = Strovl.Packet.To_group t.out_group }
  in
  let out =
    Strovl.Packet.make ~flow ~routing:Strovl.Packet.Link_state
      ~service:Strovl.Packet.Best_effort ~seq:pkt.Strovl.Packet.seq
      ~sent_at:pkt.Strovl.Packet.sent_at
      ~bytes:
        (max 1
           (int_of_float (float_of_int pkt.Strovl.Packet.bytes *. out_scale)))
      ~tag:pkt.Strovl.Packet.tag ()
  in
  ignore (Strovl.Node.originate (Strovl.Net.node t.net t.node) out)

let create ~net ~node ~port ~ingest_group ~out_group =
  let client = Strovl.Client.attach (Strovl.Net.node net node) ~port in
  let t =
    {
      net;
      node;
      port;
      ingest_group;
      client;
      out_group;
      n_processed = 0;
      live = true;
    }
  in
  Strovl.Client.set_receiver client (fun pkt ->
      if t.live then begin
        t.n_processed <- t.n_processed + 1;
        ignore
          (Engine.schedule (Strovl.Net.engine net) ~delay (fun () ->
               if t.live then emit t pkt))
      end);
  Strovl.Client.join client ~group:ingest_group;
  t

let shutdown t =
  t.live <- false;
  Strovl.Client.leave t.client ~group:t.ingest_group

let processed t = t.n_processed
let node_id t = t.node
