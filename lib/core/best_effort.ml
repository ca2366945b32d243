type t = { ctx : Lproto.ctx; mutable lseq : int }

let create ?(lseq = 0) ctx = { ctx; lseq }

let send t pkt =
  t.lseq <- Lproto.next_lseq t.lseq;
  t.ctx.Lproto.xmit
    (Msg.Data { cls = Packet.service_class pkt.Packet.service; lseq = t.lseq; pkt; auth = None })

let recv t = function
  | Msg.Data { pkt; _ } -> t.ctx.Lproto.up pkt
  | _ -> ()
