type node = int

type link_info = { li_up : bool; li_metric : int; li_loss : int }

type t =
  | Data of { cls : int; lseq : int; pkt : Packet.t; auth : int64 option }
  | Link_ack of { cls : int; cum : int }
  | Link_nack of { cls : int; missing : int list }
  | Rt_request of { lseq : int }
  | It_ack of { lseq : int }
  | Fec_parity of {
      block : int;
      idx : int;
      k : int;
      bytes : int;
      blk_pkts : Packet.t list;
    }
  | Hello of { hseq : int; sent_at : Strovl_sim.Time.t }
  | Hello_ack of { hseq : int; echo : Strovl_sim.Time.t }
  | Probe of { pseq : int; sent_at : Strovl_sim.Time.t }
  | Probe_ack of { pseq : int; echo : Strovl_sim.Time.t }
  | Lsu of {
      origin : node;
      lsu_seq : int;
      links : (int * link_info) list;
      auth : int64 option;
    }
  | Group_update of {
      origin : node;
      gseq : int;
      memb : (int * bool) list;
      auth : int64 option;
    }

let pp ppf = function
  | Data { cls; lseq; pkt; _ } ->
    Format.fprintf ppf "data(c%d,l%d,%a)" cls lseq Packet.pp pkt
  | Link_ack { cls; cum } -> Format.fprintf ppf "ack(c%d,<=%d)" cls cum
  | Link_nack { cls; missing } ->
    Format.fprintf ppf "nack(c%d,%d missing)" cls (List.length missing)
  | Rt_request { lseq } -> Format.fprintf ppf "rt-req(%d)" lseq
  | It_ack { lseq } -> Format.fprintf ppf "it-ack(%d)" lseq
  | Fec_parity { block; idx; k; _ } ->
    Format.fprintf ppf "fec-parity(b%d,#%d,k=%d)" block idx k
  | Hello { hseq; _ } -> Format.fprintf ppf "hello(%d)" hseq
  | Hello_ack { hseq; _ } -> Format.fprintf ppf "hello-ack(%d)" hseq
  | Probe { pseq; _ } -> Format.fprintf ppf "probe(%d)" pseq
  | Probe_ack { pseq; _ } -> Format.fprintf ppf "probe-ack(%d)" pseq
  | Lsu { origin; lsu_seq; links; _ } ->
    Format.fprintf ppf "lsu(from %d,#%d,%d links)" origin lsu_seq
      (List.length links)
  | Group_update { origin; gseq; memb; _ } ->
    Format.fprintf ppf "grp(from %d,#%d,%d entries)" origin gseq
      (List.length memb)
