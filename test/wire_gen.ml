(* QCheck generators for the wire format's packets and session frames,
   shared by the codec tests (test_wire) and the session client's tests
   (test_rt). *)

module P = Strovl.Packet
module Wire = Strovl.Wire
module Bitmask = Strovl_topo.Bitmask

let gen_dest =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> P.To_node n) (int_bound 1000);
        map (fun g -> P.To_group g) (int_bound 100000);
        map (fun g -> P.Any_of_group g) (int_bound 100000);
      ])

let gen_service =
  QCheck.Gen.(
    oneof
      [
        return P.Best_effort;
        return P.Reliable;
        map (fun d -> P.Realtime { deadline = d }) (int_bound 1_000_000);
        map (fun p -> P.It_priority p) (int_bound 100);
        return P.It_reliable;
        return P.Fec;
      ])

let gen_routing =
  QCheck.Gen.(
    oneof
      [
        return P.Link_state;
        map
          (fun links ->
            P.Source_mask (Bitmask.of_links ~nlinks:200 links))
          (list_size (int_bound 20) (int_bound 199));
      ])

let gen_packet =
  QCheck.Gen.(
    let* f_src = int_bound 60000 in
    let* f_sport = int_bound 100000 in
    let* f_dest = gen_dest in
    let* f_dport = int_bound 100000 in
    let* routing = gen_routing in
    let* service = gen_service in
    let* seq = int_bound 1_000_000 in
    let* sent_at = int_bound 1_000_000_000 in
    let* bytes = int_bound 65536 in
    let* tag = string_size (int_bound 32) in
    let* auth = opt (map Int64.of_int (int_bound 1_000_000)) in
    let* hops = int_bound 63 in
    let* ingress = int_range (-1) 100 in
    let* replay = bool in
    let p =
      P.make
        ~flow:{ P.f_src; f_sport; f_dest; f_dport }
        ~routing ~service ~seq ~sent_at ~bytes ~tag ?auth ()
    in
    let p = if ingress >= 0 then P.with_ingress p ingress else p in
    let p = if replay then P.as_replay p else p in
    let rec bump p n = if n = 0 then p else bump (P.next_hop_copy p) (n - 1) in
    return (bump p hops))

let gen_frame =
  QCheck.Gen.(
    oneof
      [
        map (fun sport -> Wire.Session.Open { sport }) (int_bound 100000);
        (let* node = int_bound 60000 in
         let* sport = int_bound 100000 in
         return (Wire.Session.Open_ok { node; sport }));
        (let* group = int_bound 100000 in
         let* sport = int_bound 100000 in
         return (Wire.Session.Join { group; sport }));
        (let* group = int_bound 100000 in
         let* sport = int_bound 100000 in
         return (Wire.Session.Leave { group; sport }));
        (let* sport = int_bound 100000 in
         let* dest = gen_dest in
         let* dport = int_bound 100000 in
         let* service = gen_service in
         let* seq = int_bound 1_000_000 in
         let* bytes = int_bound 65536 in
         let* tag = string_size (int_bound 32) in
         return
           (Wire.Session.Send { sport; dest; dport; service; seq; bytes; tag }));
        (let* sport = int_bound 100000 in
         let* seq = int_bound 1_000_000 in
         let* accepted = bool in
         return (Wire.Session.Sent { sport; seq; accepted }));
        (let* sport = int_bound 100000 in
         let* at = int_bound 1_000_000_000 in
         let* pkt = gen_packet in
         return (Wire.Session.Deliver { sport; at; pkt }));
        map (fun what -> Wire.Session.Stats_req { what }) (int_bound 255);
        map (fun json -> Wire.Session.Stats { json })
          (string_size (int_bound 200));
        map (fun sport -> Wire.Session.Close { sport }) (int_bound 100000);
      ])
