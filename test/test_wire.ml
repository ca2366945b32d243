(* Wire-format tests: exact roundtrips for every message kind (including
   qcheck-generated arbitrary messages) and hostile-input rejection. *)

module P = Strovl.Packet
module Msg = Strovl.Msg
module Wire = Strovl.Wire
module Bitmask = Strovl_topo.Bitmask

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let roundtrip msg =
  match Wire.decode (Wire.encode msg) with
  | Ok m -> m
  | Error e -> Alcotest.failf "decode failed: %s" e

let sample_packet ?(routing = P.Link_state) ?(service = P.Best_effort)
    ?(auth = None) ?(hops = 0) ?(ingress = -1) ?(replay = false) () =
  let p =
    P.make
      ~flow:{ P.f_src = 3; f_sport = 4001; f_dest = P.To_group 17; f_dport = 88 }
      ~routing ~service ~seq:1234 ~sent_at:987654 ~bytes:1316 ~tag:"video"
      ?auth:(match auth with Some a -> Some a | None -> None)
      ()
  in
  let p = if ingress >= 0 then P.with_ingress p ingress else p in
  let p = if replay then P.as_replay p else p in
  let rec bump p n = if n = 0 then p else bump (P.next_hop_copy p) (n - 1) in
  bump p hops

let data_roundtrip () =
  let mask = Bitmask.of_links ~nlinks:100 [ 0; 13; 64; 99 ] in
  let pkt =
    sample_packet ~routing:(P.Source_mask mask)
      ~service:(P.Realtime { deadline = 65_000; n_requests = 1; m_retrans = 1 })
      ~auth:(Some 0x1234_5678_9abc_def0L) ~hops:3 ~ingress:7 ~replay:true ()
  in
  let msg = Msg.Data { cls = 2; lseq = 42; pkt; auth = Some (-1L) } in
  check_bool "exact roundtrip" true (roundtrip msg = msg)

let control_roundtrips () =
  let msgs =
    [
      Msg.Link_ack { cls = 1; cum = 999 };
      Msg.Link_nack { cls = 1; missing = [ 3; 7; 12 ] };
      Msg.Link_nack { cls = 4; missing = [] };
      Msg.Rt_request { lseq = 55 };
      Msg.It_ack { lseq = 0 };
      Msg.Hello { hseq = 17; sent_at = 1_000_000 };
      Msg.Hello_ack { hseq = 17; echo = 999_900 };
      Msg.Probe { pseq = 4242; sent_at = 123_456_789 };
      Msg.Probe_ack { pseq = 4242; echo = 123_450_000 };
      Msg.Lsu
        {
          origin = 4;
          lsu_seq = 12;
          links =
            [ (0, { Msg.li_up = true; li_metric = 10_700; li_loss = 0 });
              (5, { Msg.li_up = false; li_metric = 1; li_loss = 0 }) ];
          auth = Some 77L;
        };
      Msg.Group_update
        { origin = 9; gseq = 3; memb = [ (100, true); (200, false) ]; auth = None };
    ]
  in
  List.iter (fun m -> check_bool "roundtrip" true (roundtrip m = m)) msgs

let service_variants_roundtrip () =
  List.iter
    (fun service ->
      let msg =
        Msg.Data { cls = P.service_class service; lseq = 1;
                   pkt = sample_packet ~service (); auth = None }
      in
      check_bool "service roundtrip" true (roundtrip msg = msg))
    [
      P.Best_effort;
      P.Reliable;
      P.Realtime { deadline = 200_000; n_requests = 3; m_retrans = 3 };
      P.It_priority 9;
      P.It_reliable;
    ]

let dest_variants_roundtrip () =
  List.iter
    (fun dest ->
      let pkt =
        P.make
          ~flow:{ P.f_src = 0; f_sport = 1; f_dest = dest; f_dport = 2 }
          ~routing:P.Link_state ~service:P.Best_effort ~seq:0 ~sent_at:0
          ~bytes:0 ()
      in
      let msg = Msg.Data { cls = 0; lseq = 1; pkt; auth = None } in
      check_bool "dest roundtrip" true (roundtrip msg = msg))
    [ P.To_node 11; P.To_group 500; P.Any_of_group 500 ]

let size_accounting () =
  let pkt = sample_packet () in
  let msg = Msg.Data { cls = 0; lseq = 1; pkt; auth = None } in
  check_int "size = header + payload" (Wire.size msg)
    (String.length (Wire.encode msg) + 1316);
  check_int "control payload 0" 0 (Wire.payload_bytes (Msg.Rt_request { lseq = 1 }));
  (* The analytic estimate used by the bandwidth model stays within a small
     tolerance of the real encoding. *)
  let diff = abs (Msg.bytes msg - Wire.size msg) in
  check_bool "analytic estimate close" true (diff <= 32)

let multiword_mask_roundtrip () =
  (* A mask spanning three 64-bit words, with bits in every word, survives
     the word-wise encode/decode path exactly. *)
  let bits = [ 0; 63; 64; 100; 127; 128; 129 ] in
  let mask = Bitmask.of_links ~nlinks:130 bits in
  let pkt = sample_packet ~routing:(P.Source_mask mask) () in
  let msg = Msg.Data { cls = 0; lseq = 1; pkt; auth = None } in
  (match roundtrip msg with
  | Msg.Data { pkt = p; _ } -> (
    match p.P.routing with
    | P.Source_mask m ->
      check_bool "mask equal" true (Bitmask.equal m mask);
      check_int "links preserved" (List.length bits) (Bitmask.count m)
    | P.Link_state -> Alcotest.fail "routing kind changed")
  | _ -> Alcotest.fail "message kind changed");
  (* of_words mirrors words, and drops bits at or above nlinks. *)
  let rebuilt = Bitmask.of_words ~nlinks:130 (Bitmask.words mask) in
  check_bool "of_words inverse of words" true (Bitmask.equal rebuilt mask);
  let dirty = Bitmask.create ~nlinks:70 in
  Bitmask.set_word dirty 1 (-1L) (* bits 64..127, only 64..69 valid *);
  check_int "set_word drops high bits" 6 (Bitmask.count dirty);
  check_bool "word count mismatch rejected" true
    (match Bitmask.of_words ~nlinks:130 [| 0L |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let hostile_inputs_rejected () =
  let bad s =
    match Wire.decode s with Ok _ -> false | Error _ -> true
  in
  check_bool "empty" true (bad "");
  check_bool "unknown tag" true (bad "\xff");
  check_bool "truncated data" true (bad "\x01\x02");
  check_bool "truncated lsu" true (bad "\x08\x00\x01");
  (* Valid prefix with trailing garbage must be rejected too. *)
  let good = Wire.encode (Msg.Rt_request { lseq = 7 }) in
  check_bool "trailing bytes" true (bad (good ^ "x"));
  (* Oversized bitmask word count. *)
  check_bool "oversized mask" true
    (bad "\x01\x00\x00\x00\x00\x01\x00\x00\x03\x00\x10\x00\x00\x00\x00\x01\x00\x00\x00\x02\x01\xff\xff");
  (* A list whose claimed element count exceeds the bytes remaining in the
     buffer must be rejected up front, not by allocating 65535 cells and
     failing mid-read: Link_nack claiming 0xffff missing seqs with a 3-byte
     body, and an Lsu likewise. *)
  check_bool "nack list count beyond buffer" true (bad "\x03\x01\xff\xff\x00\x00\x00");
  check_bool "lsu list count beyond buffer" true
    (bad "\x08\x00\x04\x00\x00\x00\x0c\xff\xff\x00")

let corrupted_bytes_never_raise () =
  (* Flipping any single byte of a valid message must yield Ok or Error,
     never an exception. *)
  let msg =
    Msg.Lsu
      {
        origin = 4;
        lsu_seq = 12;
        links = [ (0, { Msg.li_up = true; li_metric = 10_700; li_loss = 0 }) ];
        auth = Some 77L;
      }
  in
  let s = Bytes.of_string (Wire.encode msg) in
  for i = 0 to Bytes.length s - 1 do
    let orig = Bytes.get s i in
    Bytes.set s i (Char.chr ((Char.code orig + 1) land 0xff));
    (match Wire.decode (Bytes.to_string s) with Ok _ | Error _ -> ());
    Bytes.set s i orig
  done;
  check_bool "survived all corruptions" true true

(* qcheck: arbitrary messages roundtrip exactly. *)

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
        map3
          (fun d n m ->
            P.Realtime { deadline = d; n_requests = 1 + n; m_retrans = 1 + m })
          (int_bound 1_000_000) (int_bound 8) (int_bound 8);
        map (fun p -> P.It_priority p) (int_bound 100);
        return P.It_reliable;
        map2 (fun k r -> P.Fec { fec_k = 1 + k; fec_r = 1 + r })
          (int_bound 30) (int_bound 7);
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

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        (let* cls = int_bound 4 in
         let* lseq = int_bound 1_000_000 in
         let* auth = opt (map Int64.of_int (int_bound 1_000_000)) in
         let* pkt = gen_packet in
         return (Msg.Data { cls; lseq; pkt; auth }));
        (let* cls = int_bound 4 in
         let* cum = int_bound 1_000_000 in
         return (Msg.Link_ack { cls; cum }));
        (let* cls = int_bound 4 in
         let* missing = list_size (int_bound 30) (int_bound 1_000_000) in
         return (Msg.Link_nack { cls; missing }));
        map (fun lseq -> Msg.Rt_request { lseq }) (int_bound 1_000_000);
        map (fun lseq -> Msg.It_ack { lseq }) (int_bound 1_000_000);
        (let* hseq = int_bound 1_000_000 in
         let* sent_at = int_bound 1_000_000_000 in
         return (Msg.Hello { hseq; sent_at }));
        (let* pseq = int_bound 1_000_000 in
         let* sent_at = int_bound 1_000_000_000 in
         return (Msg.Probe { pseq; sent_at }));
        (let* pseq = int_bound 1_000_000 in
         let* echo = int_bound 1_000_000_000 in
         return (Msg.Probe_ack { pseq; echo }));
        (let* origin = int_bound 60000 in
         let* lsu_seq = int_bound 1_000_000 in
         let* links =
           list_size (int_bound 10)
             (let* l = int_bound 1000 in
              let* li_up = bool in
              let* li_metric = int_bound 1_000_000 in
              let* li_loss = int_bound 1000 in
              return (l, { Msg.li_up; li_metric; li_loss }))
         in
         let* auth = opt (map Int64.of_int (int_bound 1_000_000)) in
         return (Msg.Lsu { origin; lsu_seq; links; auth }));
        (let* block = int_bound 1_000_000 in
         let* idx = int_bound 7 in
         let* blk_pkts = list_size (int_bound 6) gen_packet in
         let* bytes = int_bound 65536 in
         return
           (Msg.Fec_parity
              { block; idx; k = List.length blk_pkts; bytes; blk_pkts }));
        (let* origin = int_bound 60000 in
         let* gseq = int_bound 1_000_000 in
         let* memb =
           list_size (int_bound 10)
             (let* g = int_bound 100000 in
              let* m = bool in
              return (g, m))
         in
         let* auth = opt (map Int64.of_int (int_bound 1_000_000)) in
         return (Msg.Group_update { origin; gseq; memb; auth }));
      ])

let qcheck_roundtrip =
  QCheck.Test.make ~name:"arbitrary message roundtrips exactly" ~count:500
    (QCheck.make gen_msg)
    (fun msg -> Wire.decode (Wire.encode msg) = Ok msg)

let analytic_header_size =
  QCheck.Test.make ~name:"header_size matches encode length" ~count:500
    (QCheck.make gen_msg)
    (fun msg -> Wire.header_size msg = String.length (Wire.encode msg))

(* Session frames (client <-> daemon) and the UDP datagram framing the
   wall-clock runtime puts on real sockets. *)

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

let qcheck_session_roundtrip =
  QCheck.Test.make ~name:"arbitrary session frame roundtrips exactly"
    ~count:500 (QCheck.make gen_frame) (fun f ->
      Wire.Session.decode (Wire.Session.encode f) = Ok f)

let analytic_session_size =
  QCheck.Test.make ~name:"Session.size matches encode length" ~count:500
    (QCheck.make gen_frame)
    (fun f -> Wire.Session.size f = String.length (Wire.Session.encode f))

let gen_datagram =
  QCheck.Gen.(
    oneof
      [
        (let* src = int_bound 60000 in
         let* link = int_bound 60000 in
         let* msg = gen_msg in
         return (Wire.Dg_msg { src; link; msg }));
        map (fun f -> Wire.Dg_session f) gen_frame;
      ])

let qcheck_datagram_roundtrip =
  QCheck.Test.make ~name:"arbitrary datagram roundtrips exactly" ~count:500
    (QCheck.make gen_datagram)
    (fun d -> Wire.decode_datagram (Wire.encode_datagram d) = Ok d)

let analytic_datagram_size =
  QCheck.Test.make ~name:"datagram_size matches encode length" ~count:500
    (QCheck.make gen_datagram)
    (fun d -> Wire.datagram_size d = String.length (Wire.encode_datagram d))

let truncated_datagrams_rejected =
  (* Every strict prefix of a valid datagram must decode to Error (never an
     exception): what a daemon sees when the kernel clips a read or a peer
     sends garbage. Trailing junk likewise. *)
  QCheck.Test.make ~name:"truncated datagram prefixes all rejected" ~count:200
    (QCheck.make gen_datagram)
    (fun d ->
      let s = Wire.encode_datagram d in
      let ok = ref true in
      for n = 0 to String.length s - 1 do
        match Wire.decode_datagram (String.sub s 0 n) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      (match Wire.decode_datagram (s ^ "\x00") with
      | Ok _ -> ok := false
      | Error _ -> ());
      !ok)

let hostile_datagrams_rejected () =
  let bad s =
    match Wire.decode_datagram s with Ok _ -> false | Error _ -> true
  in
  let v = String.make 1 (Char.chr Wire.version) in
  check_int "version" 2 Wire.version;
  check_bool "empty" true (bad "");
  check_bool "bad magic" true (bad ("Xo" ^ v ^ "\x00"));
  check_bool "version-1 datagram" true
    (bad
       (Wire.encode_datagram
          (Wire.Dg_session (Wire.Session.Close { sport = 1 }))
       |> String.mapi (fun i c -> if i = 2 then '\x01' else c)));
  check_bool "unknown kind" true (bad ("So" ^ v ^ "\x07"));
  check_bool "preamble only" true (bad ("So" ^ v ^ "\x00"));
  check_bool "session with unknown frame tag" true (bad ("So" ^ v ^ "\x01\xff"));
  (* A session frame where an overlay message should be, and vice versa. *)
  let open_f = Wire.Session.encode (Wire.Session.Open { sport = 9 }) in
  check_bool "kind/body mismatch" true
    (bad ("So" ^ v ^ "\x00\x00\x01\x00\x02\x00\x01" ^ open_f))

(* Link frames: n >= 1 messages per overlay datagram. *)

let frame_of ~src ~link msgs =
  let f = Wire.Link_frame.create ~src ~link in
  List.iter (Wire.Link_frame.add f) msgs;
  Bytes.sub_string (Wire.Link_frame.bytes f) 0 (Wire.Link_frame.length f)

let gen_frame_msgs = QCheck.Gen.(list_size (int_range 1 8) gen_msg)

let qcheck_link_frame_roundtrip =
  QCheck.Test.make ~name:"link frame of 1..8 messages decodes in order"
    ~count:300
    (QCheck.make
       QCheck.Gen.(triple (int_bound 60000) (int_bound 60000) gen_frame_msgs))
    (fun (src, link, msgs) ->
      let s = frame_of ~src ~link msgs in
      String.length s
      = 10 + List.fold_left (fun acc m -> acc + Wire.header_size m) 0 msgs
      && Wire.decode_frame s = Ok (Wire.Fr_link { src; link; msgs }))

let one_message_frame_is_a_datagram =
  QCheck.Test.make ~name:"one-message frame = encode_datagram (Dg_msg _)"
    ~count:300 (QCheck.make gen_msg) (fun msg ->
      let dg = Wire.Dg_msg { src = 7; link = 3; msg } in
      let s = frame_of ~src:7 ~link:3 [ msg ] in
      s = Wire.encode_datagram dg
      && String.length s = Wire.datagram_size dg
      && Wire.decode_datagram s = Ok dg)

let rejected s =
  match Wire.decode_frame s with
  | Ok _ -> false
  | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let truncated_frames_rejected =
  (* The message count makes even a prefix that ends on a message boundary
     malformed. *)
  QCheck.Test.make
    ~name:"link frame prefixes and trailing bytes rejected, flips never raise"
    ~count:200 (QCheck.make gen_frame_msgs) (fun msgs ->
      let s = frame_of ~src:1 ~link:2 msgs in
      let ok = ref (rejected (s ^ "\x00")) in
      for n = 0 to String.length s - 1 do
        if not (rejected (String.sub s 0 n)) then ok := false
      done;
      (* A flipped byte may still decode; it must never raise. *)
      let b = Bytes.of_string s in
      for i = 0 to Bytes.length b - 1 do
        let orig = Bytes.get b i in
        Bytes.set b i (Char.chr (Char.code orig lxor 0xff));
        (match Wire.decode_frame (Bytes.to_string b) with Ok _ | Error _ -> ());
        Bytes.set b i orig
      done;
      !ok)

let cleared_frames_reusable () =
  let hello = Msg.Hello { hseq = 1; sent_at = 2 } in
  let ack = Msg.Link_ack { cls = 1; cum = 9 } in
  let f = Wire.Link_frame.create ~src:4 ~link:5 in
  let contents () =
    Bytes.sub_string (Wire.Link_frame.bytes f) 0 (Wire.Link_frame.length f)
  in
  List.iter (Wire.Link_frame.add f) [ hello; hello; hello ];
  Wire.Link_frame.clear f;
  Wire.Link_frame.add f ack;
  check_bool "after clear" true (contents () = frame_of ~src:4 ~link:5 [ ack ]);
  Wire.Link_frame.trim f;
  check_int "trim empties" 0 (Wire.Link_frame.count f);
  Wire.Link_frame.add f hello;
  check_bool "after trim" true (contents () = frame_of ~src:4 ~link:5 [ hello ])

let hostile_frames_rejected () =
  let hello = Msg.Hello { hseq = 1; sent_at = 2 } in
  let empty = frame_of ~src:1 ~link:2 [] in
  check_int "empty frame is the bare header" 10 (String.length empty);
  check_bool "zero-message frame" true (rejected empty);
  (* The second message's tag byte sits right after the first message. *)
  let s = Bytes.of_string (frame_of ~src:1 ~link:2 [ hello; hello ]) in
  Bytes.set s (10 + Wire.header_size hello) '\xee';
  check_bool "unknown tag in the second message" true
    (rejected (Bytes.to_string s));
  check_bool "a count beyond the bytes" true
    (rejected
       (String.mapi
          (fun i c -> if i = 8 || i = 9 then '\xff' else c)
          (frame_of ~src:1 ~link:2 [ hello ])));
  check_bool "two-message frame is not one datagram" true
    (Result.is_error
       (Wire.decode_datagram (frame_of ~src:1 ~link:2 [ hello; hello ])))

let () =
  Alcotest.run "strovl_wire"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "data with everything" `Quick data_roundtrip;
          Alcotest.test_case "control messages" `Quick control_roundtrips;
          Alcotest.test_case "service variants" `Quick service_variants_roundtrip;
          Alcotest.test_case "dest variants" `Quick dest_variants_roundtrip;
          Alcotest.test_case "multi-word bitmask" `Quick multiword_mask_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "size accounting" `Quick size_accounting;
          QCheck_alcotest.to_alcotest analytic_header_size;
          Alcotest.test_case "hostile inputs" `Quick hostile_inputs_rejected;
          Alcotest.test_case "corruption fuzz" `Quick corrupted_bytes_never_raise;
        ] );
      ( "session",
        [
          QCheck_alcotest.to_alcotest qcheck_session_roundtrip;
          QCheck_alcotest.to_alcotest analytic_session_size;
          QCheck_alcotest.to_alcotest qcheck_datagram_roundtrip;
          QCheck_alcotest.to_alcotest analytic_datagram_size;
          QCheck_alcotest.to_alcotest truncated_datagrams_rejected;
          Alcotest.test_case "hostile datagrams" `Quick
            hostile_datagrams_rejected;
        ] );
      ( "link frame",
        [
          QCheck_alcotest.to_alcotest qcheck_link_frame_roundtrip;
          QCheck_alcotest.to_alcotest one_message_frame_is_a_datagram;
          QCheck_alcotest.to_alcotest truncated_frames_rejected;
          Alcotest.test_case "hostile frames" `Quick hostile_frames_rejected;
          Alcotest.test_case "cleared frames reusable" `Quick
            cleared_frames_reusable;
        ] );
    ]
