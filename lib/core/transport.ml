type endpoint = {
  ep_link : int;
  ep_peer : int;
  ep_bandwidth_bps : int;
  ep_xmit : Msg.t -> unit;
}

let attach node ep =
  Node.attach_link node ~link:ep.ep_link ~bandwidth_bps:ep.ep_bandwidth_bps
    ~xmit:ep.ep_xmit
