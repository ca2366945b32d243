type t = { ctx : Lproto.ctx; mutable lseq : int; mutable n_sent : int; mutable n_recv : int }

let create ?(lseq = 0) ctx = { ctx; lseq; n_sent = 0; n_recv = 0 }

let send t pkt =
  t.lseq <- Lproto.next_lseq t.lseq;
  t.n_sent <- t.n_sent + 1;
  t.ctx.Lproto.xmit
    (Msg.Data { cls = Packet.service_class pkt.Packet.service; lseq = t.lseq; pkt; auth = None })

let recv t = function
  | Msg.Data { pkt; _ } ->
    t.n_recv <- t.n_recv + 1;
    t.ctx.Lproto.up pkt
  | _ -> ()

let sent t = t.n_sent
let received t = t.n_recv
