type error = string

(* ----------------------------- encoding ------------------------------ *)

(* The encoders append to a growable byte buffer whose bytes stay
   reachable (unlike [Buffer]'s), so a link frame can be handed to
   [sendto] in place and a one-shot encode of known size needs no copy. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

(* Ethernet's 1500-byte MTU minus the 20-byte IPv4 and 8-byte UDP headers:
   the most a link frame carries without IP fragmentation. *)
let max_frame = 1500 - 20 - 8

let writer cap = { buf = Bytes.create cap; len = 0 }

(* Doubling growth, but past [max_frame] only as far as one oversized
   message needs: a link frame's buffer settles at the size its traffic
   uses. *)
let grow w need =
  let nb = Bytes.create (max need (min max_frame (2 * Bytes.length w.buf))) in
  Bytes.blit w.buf 0 nb 0 w.len;
  w.buf <- nb

let[@inline] reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.buf then grow w need

(* The exact-size encoders below size the writer with the arithmetic
   [*_size] functions, so the result is the buffer itself. *)
let contents w =
  if w.len = Bytes.length w.buf then Bytes.unsafe_to_string w.buf
  else Bytes.sub_string w.buf 0 w.len

let put_u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let put_u16 w v =
  reserve w 2;
  Bytes.set_uint16_be w.buf w.len (v land 0xffff);
  w.len <- w.len + 2

let put_u32 w v =
  if v < 0 then invalid_arg "Wire: negative u32";
  reserve w 4;
  Bytes.set_int32_be w.buf w.len (Int32.of_int v);
  w.len <- w.len + 4

let put_int64 w v =
  reserve w 8;
  Bytes.set_int64_be w.buf w.len v;
  w.len <- w.len + 8

let put_i64 w v = put_int64 w (Int64.of_int v)

let put_string w s =
  let n = min (String.length s) 0xffff in
  put_u16 w n;
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_auth b = function
  | None -> put_u8 b 0
  | Some tag ->
    put_u8 b 1;
    put_int64 b tag

let put_dest b = function
  | Packet.To_node n ->
    put_u8 b 0;
    put_u32 b n
  | Packet.To_group g ->
    put_u8 b 1;
    put_u32 b g
  | Packet.Any_of_group g ->
    put_u8 b 2;
    put_u32 b g

let put_routing b = function
  | Packet.Link_state -> put_u8 b 0
  | Packet.Source_mask mask ->
    put_u8 b 1;
    put_u16 b (Strovl_topo.Bitmask.nlinks mask);
    let words = Strovl_topo.Bitmask.words mask in
    put_u16 b (Array.length words);
    Array.iter (put_int64 b) words

let put_service b = function
  | Packet.Best_effort -> put_u8 b 0
  | Packet.Reliable -> put_u8 b 1
  | Packet.Realtime { deadline; n_requests; m_retrans } ->
    put_u8 b 2;
    put_i64 b deadline;
    put_u8 b n_requests;
    put_u8 b m_retrans
  | Packet.It_priority prio ->
    put_u8 b 3;
    put_u32 b prio
  | Packet.It_reliable -> put_u8 b 4
  | Packet.Fec { fec_k; fec_r } ->
    put_u8 b 5;
    put_u8 b fec_k;
    put_u8 b fec_r

let put_packet b (p : Packet.t) =
  put_u16 b p.Packet.flow.Packet.f_src;
  put_u32 b p.Packet.flow.Packet.f_sport;
  put_dest b p.Packet.flow.Packet.f_dest;
  put_u32 b p.Packet.flow.Packet.f_dport;
  put_routing b p.Packet.routing;
  put_service b p.Packet.service;
  put_u32 b p.Packet.seq;
  put_i64 b p.Packet.sent_at;
  put_u32 b p.Packet.bytes;
  put_string b p.Packet.tag;
  put_auth b p.Packet.auth;
  put_u16 b p.Packet.hops;
  (* ingress may be -1 (not yet stamped): shift by one. *)
  put_u16 b (p.Packet.ingress + 1);
  put_bool b p.Packet.replay

let put_msg b = function
  | Msg.Data { cls; lseq; pkt; auth } ->
    put_u8 b 1;
    put_u8 b cls;
    put_u32 b lseq;
    put_auth b auth;
    put_packet b pkt
  | Msg.Link_ack { cls; cum } ->
    put_u8 b 2;
    put_u8 b cls;
    put_u32 b cum
  | Msg.Link_nack { cls; missing } ->
    put_u8 b 3;
    put_u8 b cls;
    put_u16 b (List.length missing);
    List.iter (put_u32 b) missing
  | Msg.Rt_request { lseq } ->
    put_u8 b 4;
    put_u32 b lseq
  | Msg.It_ack { lseq } ->
    put_u8 b 5;
    put_u32 b lseq
  | Msg.Hello { hseq; sent_at } ->
    put_u8 b 6;
    put_u32 b hseq;
    put_i64 b sent_at
  | Msg.Hello_ack { hseq; echo } ->
    put_u8 b 7;
    put_u32 b hseq;
    put_i64 b echo
  | Msg.Probe { pseq; sent_at } ->
    put_u8 b 11;
    put_u32 b pseq;
    put_i64 b sent_at
  | Msg.Probe_ack { pseq; echo } ->
    put_u8 b 12;
    put_u32 b pseq;
    put_i64 b echo
  | Msg.Lsu { origin; lsu_seq; links; auth } ->
    put_u8 b 8;
    put_u16 b origin;
    put_u32 b lsu_seq;
    put_u16 b (List.length links);
    List.iter
      (fun (l, i) ->
        put_u32 b l;
        put_bool b i.Msg.li_up;
        put_u32 b i.Msg.li_metric;
        put_u16 b i.Msg.li_loss)
      links;
    put_auth b auth
  | Msg.Fec_parity { block; idx; k; bytes; blk_pkts } ->
    put_u8 b 10;
    put_u32 b block;
    put_u8 b idx;
    put_u8 b k;
    put_u32 b bytes;
    put_u8 b (List.length blk_pkts);
    List.iter (put_packet b) blk_pkts
  | Msg.Group_update { origin; gseq; memb; auth } ->
    put_u8 b 9;
    put_u16 b origin;
    put_u32 b gseq;
    put_u16 b (List.length memb);
    List.iter
      (fun (g, m) ->
        put_u32 b g;
        put_bool b m)
      memb;
    put_auth b auth

(* ----------------------------- decoding ------------------------------ *)

exception Bad of string

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then raise (Bad "truncated message")

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = (Char.code c.data.[c.pos] lsl 8) lor Char.code c.data.[c.pos + 1] in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
  done;
  c.pos <- c.pos + 4;
  !v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let get_time c =
  let v = Int64.to_int (get_i64 c) in
  if v < 0 then raise (Bad "negative time");
  v

let get_string c =
  let n = get_u16 c in
  need c n;
  let s = if n = 0 then "" else String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Bad "bad boolean")

let get_auth c =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get_i64 c)
  | _ -> raise (Bad "bad auth flag")

let get_dest c =
  match get_u8 c with
  | 0 -> Packet.To_node (get_u32 c)
  | 1 -> Packet.To_group (get_u32 c)
  | 2 -> Packet.Any_of_group (get_u32 c)
  | _ -> raise (Bad "bad destination kind")

let get_routing c =
  match get_u8 c with
  | 0 -> Packet.Link_state
  | 1 ->
    let nlinks = get_u16 c in
    let nwords = get_u16 c in
    if nwords > 1024 then raise (Bad "oversized bitmask");
    if nwords <> max 1 ((nlinks + 63) / 64) then raise (Bad "bitmask size mismatch");
    let mask = Strovl_topo.Bitmask.create ~nlinks in
    (* Whole-word decode; [set_word] drops out-of-range bits exactly like
       the per-bit range check used to. *)
    for w = 0 to nwords - 1 do
      Strovl_topo.Bitmask.set_word mask w (get_i64 c)
    done;
    Packet.Source_mask mask
  | _ -> raise (Bad "bad routing kind")

let get_service c =
  match get_u8 c with
  | 0 -> Packet.Best_effort
  | 1 -> Packet.Reliable
  | 2 ->
    let deadline = get_time c in
    let n_requests = get_u8 c in
    let m_retrans = get_u8 c in
    Packet.Realtime { deadline; n_requests; m_retrans }
  | 3 -> Packet.It_priority (get_u32 c)
  | 4 -> Packet.It_reliable
  | 5 ->
    let fec_k = get_u8 c in
    let fec_r = get_u8 c in
    Packet.Fec { fec_k; fec_r }
  | _ -> raise (Bad "bad service kind")

let get_packet c =
  let f_src = get_u16 c in
  let f_sport = get_u32 c in
  let f_dest = get_dest c in
  let f_dport = get_u32 c in
  let routing = get_routing c in
  let service = get_service c in
  let seq = get_u32 c in
  let sent_at = get_time c in
  let bytes = get_u32 c in
  let tag = get_string c in
  let auth = get_auth c in
  let hops = get_u16 c in
  let ingress = get_u16 c - 1 in
  let replay = get_bool c in
  (* Built in one piece, transit fields included ([bytes] is a u32, so
     [Packet.make]'s size check cannot fail here). *)
  {
    Packet.flow = { Packet.f_src; f_sport; f_dest; f_dport };
    routing;
    service;
    seq;
    sent_at;
    bytes;
    tag;
    auth;
    hops;
    ingress;
    replay;
  }

let get_list c get =
  let n = get_u16 c in
  (* Every element costs at least one byte of input, so a count beyond the
     bytes remaining after the cursor is hostile: reject it before
     allocating an n-element list. *)
  if n > String.length c.data - c.pos then raise (Bad "oversized list");
  List.init n (fun _ -> get c)

(* Decodes one message from the cursor; the caller owns the trailing-bytes
   check, so messages can follow each other in a link frame. *)
let get_msg c =
  match get_u8 c with
  | 1 ->
    let cls = get_u8 c in
    let lseq = get_u32 c in
    let auth = get_auth c in
    let pkt = get_packet c in
    Msg.Data { cls; lseq; pkt; auth }
  | 2 ->
    let cls = get_u8 c in
    let cum = get_u32 c in
    Msg.Link_ack { cls; cum }
  | 3 ->
    let cls = get_u8 c in
    let missing = get_list c get_u32 in
    Msg.Link_nack { cls; missing }
  | 4 -> Msg.Rt_request { lseq = get_u32 c }
  | 5 -> Msg.It_ack { lseq = get_u32 c }
  | 6 ->
    let hseq = get_u32 c in
    let sent_at = get_time c in
    Msg.Hello { hseq; sent_at }
  | 7 ->
    let hseq = get_u32 c in
    let echo = get_time c in
    Msg.Hello_ack { hseq; echo }
  | 8 ->
    let origin = get_u16 c in
    let lsu_seq = get_u32 c in
    let links =
      get_list c (fun c ->
          let l = get_u32 c in
          let li_up = get_bool c in
          let li_metric = get_u32 c in
          let li_loss = get_u16 c in
          (l, { Msg.li_up; li_metric; li_loss }))
    in
    let auth = get_auth c in
    Msg.Lsu { origin; lsu_seq; links; auth }
  | 9 ->
    let origin = get_u16 c in
    let gseq = get_u32 c in
    let memb =
      get_list c (fun c ->
          let g = get_u32 c in
          let m = get_bool c in
          (g, m))
    in
    let auth = get_auth c in
    Msg.Group_update { origin; gseq; memb; auth }
  | 10 ->
    let block = get_u32 c in
    let idx = get_u8 c in
    let k = get_u8 c in
    let bytes = get_u32 c in
    let n = get_u8 c in
    let blk_pkts = List.init n (fun _ -> get_packet c) in
    Msg.Fec_parity { block; idx; k; bytes; blk_pkts }
  | 11 ->
    let pseq = get_u32 c in
    let sent_at = get_time c in
    Msg.Probe { pseq; sent_at }
  | 12 ->
    let pseq = get_u32 c in
    let echo = get_time c in
    Msg.Probe_ack { pseq; echo }
  | t -> raise (Bad (Printf.sprintf "unknown message tag %d" t))

let at_end c = if c.pos <> String.length c.data then raise (Bad "trailing bytes")

(* Runs a decoder over the whole input: every hostile-input failure is an
   [Error], never an exception. *)
let decoding get data =
  try
    let c = { data; pos = 0 } in
    let v = get c in
    at_end c;
    Ok v
  with
  | Bad e -> Error e
  | Invalid_argument e -> Error e

let decode = decoding get_msg

let payload_bytes = function
  | Msg.Data { pkt; _ } -> pkt.Packet.bytes
  | Msg.Fec_parity { bytes; _ } -> bytes
  | Msg.Link_ack _ | Msg.Link_nack _ | Msg.Rt_request _ | Msg.It_ack _
  | Msg.Hello _ | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _
  | Msg.Lsu _ | Msg.Group_update _ ->
    0

(* ------------------------------- sizing ------------------------------- *)

(* Header sizes computed arithmetically from the message, mirroring the
   encoder field by field, so the per-transmission accounting never pays
   for an encode. The qcheck suite pins [header_size msg] to
   [String.length (encode msg)]. *)

let auth_size = function None -> 1 | Some _ -> 9

let routing_size = function
  | Packet.Link_state -> 1
  | Packet.Source_mask mask -> 5 + Strovl_topo.Bitmask.byte_size mask

let service_size = function
  | Packet.Best_effort | Packet.Reliable | Packet.It_reliable -> 1
  | Packet.Realtime _ -> 11
  | Packet.It_priority _ -> 5
  | Packet.Fec _ -> 3

(* src 2 + sport 4 + dest 5 + dport 4 + seq 4 + sent_at 8 + bytes 4
   + tag length prefix 2 + hops 2 + ingress 2 + replay 1 = 38. *)
let packet_size (p : Packet.t) =
  38
  + routing_size p.Packet.routing
  + service_size p.Packet.service
  + min (String.length p.Packet.tag) 0xffff
  + auth_size p.Packet.auth

let header_size = function
  | Msg.Data { pkt; auth; _ } -> 6 + auth_size auth + packet_size pkt
  | Msg.Link_ack _ -> 6
  | Msg.Link_nack { missing; _ } -> 4 + (4 * List.length missing)
  | Msg.Rt_request _ | Msg.It_ack _ -> 5
  | Msg.Hello _ | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _ -> 13
  | Msg.Lsu { links; auth; _ } ->
    9 + (11 * List.length links) + auth_size auth
  | Msg.Group_update { memb; auth; _ } ->
    9 + (5 * List.length memb) + auth_size auth
  | Msg.Fec_parity { blk_pkts; _ } ->
    12 + List.fold_left (fun acc p -> acc + packet_size p) 0 blk_pkts

let size msg = header_size msg + payload_bytes msg

let encode msg =
  let w = writer (header_size msg) in
  put_msg w msg;
  contents w

(* --------------------- session frames (client <-> daemon) -------------- *)

module Session = struct
  type frame =
    | Open of { sport : int }
    | Open_ok of { node : int; sport : int }
    | Join of { group : int; sport : int }
    | Leave of { group : int; sport : int }
    | Send of {
        sport : int;
        dest : Packet.dest;
        dport : int;
        service : Packet.service;
        seq : int;
        bytes : int;
        tag : string;
      }
    | Sent of { sport : int; seq : int; accepted : bool }
    | Deliver of { sport : int; at : int; pkt : Packet.t }
    | Stats_req of { what : int }
    | Stats of { json : string }
    | Close of { sport : int }

  let put_frame b = function
    | Open { sport } ->
      put_u8 b 1;
      put_u32 b sport
    | Open_ok { node; sport } ->
      put_u8 b 2;
      put_u16 b node;
      put_u32 b sport
    | Join { group; sport } ->
      put_u8 b 3;
      put_u32 b group;
      put_u32 b sport
    | Leave { group; sport } ->
      put_u8 b 4;
      put_u32 b group;
      put_u32 b sport
    | Send { sport; dest; dport; service; seq; bytes; tag } ->
      put_u8 b 5;
      put_u32 b sport;
      put_dest b dest;
      put_u32 b dport;
      put_service b service;
      put_u32 b seq;
      put_u32 b bytes;
      put_string b tag
    | Sent { sport; seq; accepted } ->
      put_u8 b 6;
      put_u32 b sport;
      put_u32 b seq;
      put_bool b accepted
    | Deliver { sport; at; pkt } ->
      put_u8 b 7;
      put_u32 b sport;
      put_i64 b at;
      put_packet b pkt
    | Stats_req { what } ->
      put_u8 b 8;
      put_u8 b what
    | Stats { json } ->
      put_u8 b 9;
      put_string b json
    | Close { sport } ->
      put_u8 b 10;
      put_u32 b sport

  (* Decodes one frame from the cursor; the caller owns the trailing-bytes
     check so the frame can be embedded in a larger datagram. *)
  let get_frame c =
    match get_u8 c with
    | 1 -> Open { sport = get_u32 c }
    | 2 ->
      let node = get_u16 c in
      let sport = get_u32 c in
      Open_ok { node; sport }
    | 3 ->
      let group = get_u32 c in
      let sport = get_u32 c in
      Join { group; sport }
    | 4 ->
      let group = get_u32 c in
      let sport = get_u32 c in
      Leave { group; sport }
    | 5 ->
      let sport = get_u32 c in
      let dest = get_dest c in
      let dport = get_u32 c in
      let service = get_service c in
      let seq = get_u32 c in
      let bytes = get_u32 c in
      let tag = get_string c in
      Send { sport; dest; dport; service; seq; bytes; tag }
    | 6 ->
      let sport = get_u32 c in
      let seq = get_u32 c in
      let accepted = get_bool c in
      Sent { sport; seq; accepted }
    | 7 ->
      let sport = get_u32 c in
      let at = get_time c in
      let pkt = get_packet c in
      Deliver { sport; at; pkt }
    | 8 -> Stats_req { what = get_u8 c }
    | 9 -> Stats { json = get_string c }
    | 10 -> Close { sport = get_u32 c }
    | t -> raise (Bad (Printf.sprintf "unknown session frame tag %d" t))

  let decode = decoding get_frame

  let strlen s = Stdlib.min (String.length s) 0xffff

  let size = function
    | Open _ | Close _ -> 5
    | Open_ok _ -> 7
    | Join _ | Leave _ -> 9
    | Send { service; tag; _ } -> 24 + service_size service + strlen tag
    | Sent _ -> 10
    | Deliver { pkt; _ } -> 13 + packet_size pkt
    | Stats_req _ -> 2
    | Stats { json } -> 3 + strlen json

  let encode frame =
    let w = writer (size frame) in
    put_frame w frame;
    contents w
end

(* --------------------------- UDP datagrams ---------------------------- *)

(* Framing for real sockets: a 4-byte preamble (magic, version, kind)
   distinguishing overlay traffic from session traffic. A link frame
   (kind 0) names the sending node and the overlay link it travels on, so
   the receiving daemon can dispatch into [Node.receive ~link] and
   sanity-check the sender, then carries a message count n >= 1 and n
   encoded messages back to back. The count makes every strict prefix of a
   frame malformed, even one that ends on a message boundary. A session
   datagram (kind 1) carries one session frame. As everywhere in this
   reproduction, application payload is represented by its byte count; a
   deployment would append [payload_bytes] of application data after each
   message header. *)

let magic0 = 'S'
let magic1 = 'o'

let version = 2

(* preamble 4 + src 2 + link 2 + count 2 *)
let link_header_size = 10

let put_preamble w kind =
  put_u8 w (Char.code magic0);
  put_u8 w (Char.code magic1);
  put_u8 w version;
  put_u8 w kind

let put_link_header w ~src ~link ~count =
  put_preamble w 0;
  put_u16 w src;
  put_u16 w link;
  put_u16 w count

module Link_frame = struct
  type t = { w : writer; mutable count : int }

  let count_offset = link_header_size - 2

  let create ~src ~link =
    let w = writer 256 in
    put_link_header w ~src ~link ~count:0;
    { w; count = 0 }

  let add f msg =
    if f.count = 0xffff then invalid_arg "Wire.Link_frame.add: frame full";
    put_msg f.w msg;
    f.count <- f.count + 1;
    Bytes.set_uint16_be f.w.buf count_offset f.count

  let count f = f.count
  let length f = f.w.len
  let bytes f = f.w.buf

  let clear f =
    f.w.len <- link_header_size;
    f.count <- 0

  let trim f =
    clear f;
    f.w.buf <- Bytes.sub f.w.buf 0 link_header_size
end

type datagram =
  | Dg_msg of { src : int; link : int; msg : Msg.t }
  | Dg_session of Session.frame

type frame =
  | Fr_link of { src : int; link : int; msgs : Msg.t list }
  | Fr_session of Session.frame

let datagram_size = function
  | Dg_msg { msg; _ } -> link_header_size + header_size msg
  | Dg_session frame -> 4 + Session.size frame

let encode_datagram dg =
  let w = writer (datagram_size dg) in
  (match dg with
  | Dg_msg { src; link; msg } ->
    put_link_header w ~src ~link ~count:1;
    put_msg w msg
  | Dg_session frame ->
    put_preamble w 1;
    Session.put_frame w frame);
  contents w

module Session_buf = struct
  type t = writer

  let create () = writer 256

  let encode w frame =
    w.len <- 0;
    reserve w (4 + Session.size frame);
    put_preamble w 1;
    Session.put_frame w frame

  let length w = w.len
  let bytes w = w.buf
end

let rec get_msgs c n =
  if n = 0 then []
  else
    let m = get_msg c in
    m :: get_msgs c (n - 1)

let get_frame c =
  need c 4;
  if c.data.[0] <> magic0 || c.data.[1] <> magic1 then raise (Bad "bad magic");
  c.pos <- 2;
  let v = get_u8 c in
  if v <> version then raise (Bad (Printf.sprintf "unknown version %d" v));
  match get_u8 c with
  | 0 ->
    let src = get_u16 c in
    let link = get_u16 c in
    let n = get_u16 c in
    if n = 0 then raise (Bad "empty link frame");
    (* Every message costs at least one byte: reject a hostile count
       before allocating for it. *)
    if n > String.length c.data - c.pos then raise (Bad "oversized message count");
    Fr_link { src; link; msgs = get_msgs c n }
  | 1 -> Fr_session (Session.get_frame c)
  | k -> raise (Bad (Printf.sprintf "unknown datagram kind %d" k))

let decode_frame = decoding get_frame

let decode_datagram data =
  match decode_frame data with
  | Ok (Fr_link { src; link; msgs = [ msg ] }) -> Ok (Dg_msg { src; link; msg })
  | Ok (Fr_link { msgs; _ }) ->
    Error (Printf.sprintf "link frame of %d messages" (List.length msgs))
  | Ok (Fr_session frame) -> Ok (Dg_session frame)
  | Error e -> Error e
