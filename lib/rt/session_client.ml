module Wire = Strovl.Wire
module Session = Strovl.Wire.Session

type t = {
  sock : Udp.t;
  daemon : Unix.sockaddr;
  sport : int;
  buf : Wire.Session_buf.t;
  deliveries : (int * Strovl.Packet.t) Queue.t;
  mutable node : int option;
  mutable reply : string option;  (** the last [Stats] *)
  mutable sends : int;
  mutable acks : int;
  mutable refused : int;
  mutable delivered : int;
  mutable frames : int;
  mutable dropped : int;
}

let create sock ~daemon ~sport =
  { sock; daemon; sport; buf = Wire.Session_buf.create ();
    deliveries = Queue.create (); node = None; reply = None; sends = 0;
    acks = 0; refused = 0; delivered = 0; frames = 0; dropped = 0 }

let fd t = Udp.fd t.sock

let queue t frame =
  Wire.Session_buf.encode t.buf frame;
  let len = Wire.Session_buf.length t.buf in
  ignore (Udp.queue t.sock t.daemon (Wire.Session_buf.bytes t.buf) len)

let send t frame =
  queue t frame;
  ignore (Udp.flush t.sock)

let dispatch t = function
  | Session.Open_ok { node; sport } ->
    if sport = t.sport then t.node <- Some node;
    true
  | Sent { accepted; _ } ->
    t.acks <- t.acks + 1;
    if not accepted then t.refused <- t.refused + 1;
    true
  | Deliver { at; pkt; _ } ->
    t.delivered <- t.delivered + 1;
    Queue.push (at, pkt) t.deliveries;
    true
  | Stats { json } ->
    t.reply <- Some json;
    true
  | Open _ | Join _ | Leave _ | Send _ | Stats_req _ | Close _ -> false

let receive t data from =
  let ok =
    from = t.daemon
    &&
    match Wire.decode_frame data with
    | Ok (Wire.Fr_session frame) -> dispatch t frame
    | Ok (Wire.Fr_link _) | Error _ -> false
  in
  if ok then t.frames <- t.frames + 1 else t.dropped <- t.dropped + 1

let poll t = Udp.drain t.sock ~f:(receive t)

let wait_readable t deadline =
  let dt = deadline - Rt_clock.now_us () in
  if dt > 0 then
    try ignore (Unix.select [ fd t ] [] [] (float_of_int dt /. 1e6))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec until t ~wait ~deadline ready =
  poll t;
  ready ()
  || Rt_clock.now_us () < deadline
     && begin
       wait deadline;
       until t ~wait ~deadline ready
     end

let open_session t ~wait =
  let rec attempt n =
    send t (Session.Open { sport = t.sport });
    let deadline = Rt_clock.now_us () + 200_000 in
    if until t ~wait ~deadline (fun () -> t.node <> None) || n = 1 then t.node
    else attempt (n - 1)
  in
  attempt 25

let join t group = send t (Session.Join { group; sport = t.sport })
let leave t group = send t (Session.Leave { group; sport = t.sport })

let send_batch t ~dest ~dport ~service ~bytes ~tag ~first n =
  for seq = first to first + n - 1 do
    queue t (Session.Send { sport = t.sport; dest; dport; service; seq; bytes; tag });
    t.sends <- t.sends + 1
  done;
  ignore (Udp.flush t.sock)

let sends t = t.sends
let acks t = t.acks
let refused t = t.refused
let delivered t = t.delivered

let iter_deliveries t f =
  Queue.iter (fun (at, pkt) -> f at pkt) t.deliveries;
  Queue.clear t.deliveries

let stats t ~wait ~deadline =
  t.reply <- None;
  send t (Session.Stats_req { what = 0 });
  ignore (until t ~wait ~deadline (fun () -> t.reply <> None));
  t.reply

let close t =
  send t (Session.Close { sport = t.sport });
  Udp.close t.sock

let frames t = t.frames
let dropped t = t.dropped
