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
      ~service:(P.Realtime { deadline = 65_000 })
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
      P.Realtime { deadline = 200_000 };
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
  check_int "control payload 0" 0 (Wire.payload_bytes (Msg.Rt_request { lseq = 1 }))

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

(* qcheck: arbitrary messages roundtrip exactly (packets and session frames
   come from Wire_gen). *)

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        (let* cls = int_bound 4 in
         let* lseq = int_bound 1_000_000 in
         let* auth = opt (map Int64.of_int (int_bound 1_000_000)) in
         let* pkt = Wire_gen.gen_packet in
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
         let* blk_pkts = list_size (int_bound 6) Wire_gen.gen_packet in
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

let qcheck_session_roundtrip =
  QCheck.Test.make ~name:"arbitrary session frame roundtrips exactly"
    ~count:500 (QCheck.make Wire_gen.gen_frame) (fun f ->
      Wire.Session.decode (Wire.Session.encode f) = Ok f)

let analytic_session_size =
  QCheck.Test.make ~name:"Session.size matches encode length" ~count:500
    (QCheck.make Wire_gen.gen_frame)
    (fun f -> Wire.Session.size f = String.length (Wire.Session.encode f))

let gen_datagram =
  QCheck.Gen.(
    oneof
      [
        (let* src = int_bound 60000 in
         let* link = int_bound 60000 in
         let* msg = gen_msg in
         return (Wire.Dg_msg { src; link; msg }));
        map (fun f -> Wire.Dg_session f) Wire_gen.gen_frame;
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
  check_int "version" 3 Wire.version;
  check_bool "empty" true (bad "");
  check_bool "bad magic" true (bad ("Xo" ^ v ^ "\x00"));
  List.iter
    (fun old ->
      check_bool (Printf.sprintf "version-%d datagram" old) true
        (bad
           (Wire.encode_datagram
              (Wire.Dg_session (Wire.Session.Close { sport = 1 }))
           |> String.mapi (fun i c -> if i = 2 then Char.chr old else c))))
    [ 1; 2 ];
  check_bool "unknown kind" true (bad ("So" ^ v ^ "\x07"));
  check_bool "preamble only" true (bad ("So" ^ v ^ "\x00"));
  check_bool "session with unknown frame tag" true (bad ("So" ^ v ^ "\x01\xff"));
  (* A session frame where an overlay message should be, and vice versa. *)
  let open_f = Wire.Session.encode (Wire.Session.Open { sport = 9 }) in
  check_bool "kind/body mismatch" true
    (bad ("So" ^ v ^ "\x00\x00\x01\x00\x02\x00\x01" ^ open_f))

(* Link frames: n >= 1 messages per overlay datagram. *)

let add f msg = Wire.Link_frame.add f ~size:(Wire.header_size msg) msg

let frame_of ~src ~link msgs =
  let f = Wire.Link_frame.create ~src ~link in
  List.iter (add f) msgs;
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
  List.iter (add f) [ hello; hello; hello ];
  Wire.Link_frame.clear f;
  add f ack;
  check_bool "after clear" true (contents () = frame_of ~src:4 ~link:5 [ ack ]);
  Wire.Link_frame.trim f;
  check_int "trim empties" 0 (Wire.Link_frame.count f);
  add f hello;
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

(* The daemon's reused session buffer: after every encode, its first
   [length] bytes are exactly the one-shot encoding of the same datagram,
   whatever the buffer held before. *)
let session_buf_matches_encode =
  QCheck.Test.make ~name:"session buffer encodes like encode_datagram"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) Wire_gen.gen_frame))
    (fun frames ->
      let b = Wire.Session_buf.create () in
      List.for_all
        (fun f ->
          Wire.Session_buf.encode b f;
          Bytes.sub_string (Wire.Session_buf.bytes b) 0 (Wire.Session_buf.length b)
          = Wire.encode_datagram (Wire.Dg_session f))
        frames)

let session_buf_after_large_frame () =
  let b = Wire.Session_buf.create () in
  let big = Wire.Session.Stats { json = String.make 3000 'x' } in
  let small = Wire.Session.Open_ok { node = 3; sport = 9 } in
  let encoded () =
    Bytes.sub_string (Wire.Session_buf.bytes b) 0 (Wire.Session_buf.length b)
  in
  Wire.Session_buf.encode b big;
  check_bool "large frame exact" true
    (encoded () = Wire.encode_datagram (Wire.Dg_session big));
  Wire.Session_buf.encode b small;
  check_int "small frame length" (Wire.datagram_size (Wire.Dg_session small))
    (Wire.Session_buf.length b);
  check_bool "small frame exact" true
    (encoded () = Wire.encode_datagram (Wire.Dg_session small))

(* Steady-state allocation of decoding a one-Data link frame, the per-hop
   codec cost on the real path. *)
let decode_frame_words () =
  let pkt =
    P.make
      ~flow:{ P.f_src = 0; f_sport = 1; f_dest = P.To_node 8; f_dport = 9 }
      ~routing:P.Link_state ~service:P.Reliable ~seq:77 ~sent_at:123_456
      ~bytes:1200 ()
  in
  let data =
    Wire.encode_datagram
      (Wire.Dg_msg
         { src = 1; link = 2; msg = Msg.Data { cls = 1; lseq = 5; pkt; auth = None } })
  in
  let decode () =
    match Wire.decode_frame data with
    | Ok (Wire.Fr_link { msgs = [ Msg.Data _ ]; _ }) -> ()
    | _ -> Alcotest.fail "one-Data frame did not decode"
  in
  for _ = 1 to 1000 do
    decode ()
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    decode ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  (* Measured 36 words per decode; 39 while [sent_at] was read through a
     boxed [Int64], 55 when the packet record was built twice and an empty
     tag copied. *)
  if words > 38.0 then
    Alcotest.failf "decode_frame: %.1f minor words per one-Data frame (bound 38)"
      words

(* Golden vectors: the exact bytes of every message kind, every session
   frame and a two-message link frame, recorded from the version-3 codec.
   The round-trip properties above would still pass if encode and decode
   changed the layout together; these pin the layout itself. *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* Golden packets: [full] sets every optional field (a two-word source
   mask, a deadline, a packet auth tag, a tag, hops, ingress, replay);
   [plain] is the rt-backbone shape. *)
let full_pkt =
  let p =
    P.make
      ~flow:{ P.f_src = 3; f_sport = 4001; f_dest = P.To_group 17; f_dport = 88 }
      ~routing:(P.Source_mask (Bitmask.of_links ~nlinks:100 [ 0; 13; 64; 99 ]))
      ~service:(P.Realtime { deadline = 65_000 })
      ~seq:1234 ~sent_at:987_654 ~bytes:1316 ~tag:"video"
      ~auth:0x1234_5678_9abc_def0L ()
  in
  let p = P.as_replay (P.with_ingress p 7) in
  P.next_hop_copy (P.next_hop_copy (P.next_hop_copy p))

let plain_pkt =
  P.make
    ~flow:{ P.f_src = 0; f_sport = 8; f_dest = P.To_node 8; f_dport = 9 }
    ~routing:P.Link_state ~service:P.Reliable ~seq:123_456 ~sent_at:987_654_321
    ~bytes:1200 ()

let pkt_with dest service =
  P.make
    ~flow:{ P.f_src = 11; f_sport = 70_000; f_dest = dest; f_dport = 2 }
    ~routing:P.Link_state ~service ~seq:5 ~sent_at:6 ~bytes:7 ()

let data cls lseq pkt = Msg.Data { cls; lseq; pkt; auth = None }

let golden_msgs =
  [
    ("data full", Msg.Data { cls = 2; lseq = 42; pkt = full_pkt; auth = Some (-1L) });
    ("data plain", data 1 4242 plain_pkt);
    ("data it_priority", data 3 1 (pkt_with (P.Any_of_group 300) (P.It_priority 9)));
    ("data it_reliable", data 4 2 (pkt_with (P.To_node 1) P.It_reliable));
    ("data fec", data 5 3 (pkt_with (P.To_group 2) P.Fec));
    ("data best_effort", data 0 0x7fff_ffff (pkt_with (P.To_node 65_535) P.Best_effort));
    ("link_ack", Msg.Link_ack { cls = 1; cum = 0xdead_beef });
    ("link_nack", Msg.Link_nack { cls = 1; missing = [ 7; 0x0102_0304 ] });
    ("rt_request", Msg.Rt_request { lseq = 77 });
    ("it_ack", Msg.It_ack { lseq = 78 });
    ("hello", Msg.Hello { hseq = 17; sent_at = 987_654_321 });
    ("hello_ack", Msg.Hello_ack { hseq = 18; echo = 0x0102_0304_0506 });
    ("probe", Msg.Probe { pseq = 19; sent_at = 1 });
    ("probe_ack", Msg.Probe_ack { pseq = 20; echo = 2 });
    ( "lsu",
      Msg.Lsu
        {
          origin = 4;
          lsu_seq = 12;
          links =
            [
              (0, { Msg.li_up = true; li_metric = 10_700; li_loss = 0 });
              (31, { Msg.li_up = false; li_metric = 1; li_loss = 999 });
            ];
          auth = Some 77L;
        } );
    ( "group_update",
      Msg.Group_update
        { origin = 5; gseq = 6; memb = [ (1, true); (0x1_0000, false) ]; auth = None } );
    ( "fec_parity",
      Msg.Fec_parity
        { block = 9; idx = 1; k = 2; bytes = 1316; blk_pkts = [ plain_pkt; full_pkt ] }
    );
  ]

let golden_frames =
  let open Wire.Session in
  [
    ("open", Open { sport = 4001 });
    ("open_ok", Open_ok { node = 3; sport = 4001 });
    ("join", Join { group = 17; sport = 4001 });
    ("leave", Leave { group = 17; sport = 4001 });
    ( "send",
      Send
        {
          sport = 8;
          dest = P.Any_of_group 300;
          dport = 9;
          service = P.It_priority 2;
          seq = 123_456;
          bytes = 1200;
          tag = "flow-a";
        } );
    ("sent", Sent { sport = 8; seq = 123_456; accepted = true });
    ("deliver", Deliver { sport = 9; at = 987_655_000; pkt = full_pkt });
    ("stats_req", Stats_req { what = 0 });
    ("stats", Stats { json = {|{"node":1}|} });
    ("close", Close { sport = 4001 });
  ]

(* A two-message link frame: a data message and its link's ack. *)
let golden_link_src = 4
let golden_link_link = 7

let golden_link_msgs = [ data 1 4242 plain_pkt; Msg.Link_ack { cls = 1; cum = 4241 } ]

let golden_msg_hex =
  [
    ( "data full",
      "01020000002a01ffffffffffffffff000300000fa101000000110000\
       00580100640002000000000000200100000008000000010200000000\
       0000fde8000004d200000000000f1206000005240005766964656f01\
       123456789abcdef00003000801" );
    ( "data plain",
      "0101000010920000000000000800000000080000000900010001e240\
       000000003ade68b1000004b00000000000000000" );
    ( "data it_priority",
      "01030000000100000b00011170020000012c00000002000300000009\
       000000050000000000000006000000070000000000000000" );
    ( "data it_reliable",
      "01040000000200000b00011170000000000100000002000400000005\
       0000000000000006000000070000000000000000" );
    ( "data fec",
      "01050000000300000b00011170010000000200000002000500000005\
       0000000000000006000000070000000000000000" );
    ( "data best_effort",
      "01007fffffff00000b00011170000000ffff00000002000000000005\
       0000000000000006000000070000000000000000" );
    ( "link_ack",
      "0201deadbeef" );
    ( "link_nack",
      "030100020000000701020304" );
    ( "rt_request",
      "040000004d" );
    ( "it_ack",
      "050000004e" );
    ( "hello",
      "0600000011000000003ade68b1" );
    ( "hello_ack",
      "07000000120000010203040506" );
    ( "probe",
      "0b000000130000000000000001" );
    ( "probe_ack",
      "0c000000140000000000000002" );
    ( "lsu",
      "0800040000000c00020000000001000029cc00000000001f00000000\
       0103e701000000000000004d" );
    ( "group_update",
      "0900050000000600020000000101000100000000" );
    ( "fec_parity",
      "0a000000090102000005240200000000000800000000080000000900\
       010001e240000000003ade68b1000004b00000000000000000000300\
       000fa101000000110000005801006400020000000000002001000000\
       080000000102000000000000fde8000004d200000000000f12060000\
       05240005766964656f01123456789abcdef00003000801" );
  ]

let golden_frame_hex =
  [
    ( "open",
      "0100000fa1" );
    ( "open_ok",
      "02000300000fa1" );
    ( "join",
      "030000001100000fa1" );
    ( "leave",
      "040000001100000fa1" );
    ( "send",
      "0500000008020000012c0000000903000000020001e240000004b000\
       06666c6f772d61" );
    ( "sent",
      "06000000080001e24001" );
    ( "deliver",
      "0700000009000000003ade6b58000300000fa1010000001100000058\
       01006400020000000000002001000000080000000102000000000000\
       fde8000004d200000000000f1206000005240005766964656f011234\
       56789abcdef00003000801" );
    ( "stats_req",
      "0800" );
    ( "stats",
      "09000a7b226e6f6465223a317d" );
    ( "close",
      "0a00000fa1" );
  ]

let golden_link_hex =
  "536f0300000400070002010100001092000000000000080000000008\
   0000000900010001e240000000003ade68b1000004b0000000000000\
   0000020100001091"

let golden_bytes name table =
  match List.assoc_opt name table with
  | Some h -> of_hex h
  | None -> Alcotest.failf "no golden vector named %s" name

let check_bytes what want got =
  if got <> want then
    Alcotest.failf "%s: encoded %s, golden %s" what (to_hex got) (to_hex want)

let golden_messages () =
  check_int "every message kind has a vector" (List.length golden_msgs)
    (List.length golden_msg_hex);
  List.iter
    (fun (name, msg) ->
      let want = golden_bytes name golden_msg_hex in
      check_bytes name want (Wire.encode msg);
      check_int (name ^ " header_size") (String.length want) (Wire.header_size msg);
      check_bool (name ^ " decodes") true (Wire.decode want = Ok msg))
    golden_msgs

let session_preamble = of_hex "536f0301"

let golden_session_frames () =
  check_int "every session frame has a vector" (List.length golden_frames)
    (List.length golden_frame_hex);
  let b = Wire.Session_buf.create () in
  List.iter
    (fun (name, frame) ->
      let want = golden_bytes name golden_frame_hex in
      check_bytes name want (Wire.Session.encode frame);
      check_bool (name ^ " decodes") true (Wire.Session.decode want = Ok frame);
      let dg = session_preamble ^ want in
      check_bytes (name ^ " datagram") dg
        (Wire.encode_datagram (Wire.Dg_session frame));
      Wire.Session_buf.encode b frame;
      check_bytes (name ^ " session buffer") dg
        (Bytes.sub_string (Wire.Session_buf.bytes b) 0 (Wire.Session_buf.length b));
      check_bool (name ^ " datagram decodes") true
        (Wire.decode_datagram dg = Ok (Wire.Dg_session frame)))
    golden_frames

let golden_link_frame () =
  let want = of_hex golden_link_hex in
  check_bytes "two-message link frame" want
    (frame_of ~src:golden_link_src ~link:golden_link_link golden_link_msgs);
  check_bool "link frame decodes" true
    (Wire.decode_frame want
    = Ok
        (Wire.Fr_link
           { src = golden_link_src; link = golden_link_link; msgs = golden_link_msgs }))

(* Fields that do not fit their width are rejected, never wrapped onto the
   wire as a different valid value: at 2^16 and 2^32, beyond, and below 0. *)
let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let out_of_range_rejected =
  QCheck.Test.make ~name:"u16 and u32 fields out of range are rejected"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (k, negative) ->
      let u16 = if negative then -1 - k else 0x1_0000 + k in
      let u32 = if negative then -1 - k else 0x1_0000_0000 + k in
      raises_invalid (fun () ->
          Wire.Session.encode (Wire.Session.Open_ok { node = u16; sport = 1 }))
      && raises_invalid (fun () ->
             Wire.encode (Msg.Lsu { origin = u16; lsu_seq = 1; links = []; auth = None }))
      && raises_invalid (fun () ->
             Wire.Session.encode (Wire.Session.Open { sport = u32 }))
      && raises_invalid (fun () ->
             Wire.encode (Msg.Link_ack { cls = 1; cum = u32 }))
      && raises_invalid (fun () ->
             Wire.encode_datagram
               (Wire.Dg_msg { src = 1; link = 2; msg = Msg.It_ack { lseq = u32 } })))

let range_edges () =
  let ok_u16 = Wire.Session.Open_ok { node = 0xffff; sport = 0xffff_ffff } in
  check_bool "largest u16 and u32 round-trip" true
    (Wire.Session.decode (Wire.Session.encode ok_u16) = Ok ok_u16);
  check_bool "u16 at 2^16" true
    (raises_invalid (fun () ->
         Wire.Session.encode (Wire.Session.Open_ok { node = 0x1_0000; sport = 1 })));
  check_bool "u32 at 2^32" true
    (raises_invalid (fun () ->
         Wire.Session.encode (Wire.Session.Close { sport = 0x1_0000_0000 })));
  check_bool "u8 at 2^8" true
    (raises_invalid (fun () ->
         Wire.Session.encode (Wire.Session.Stats_req { what = 0x100 })));
  (* A link frame that rejects a message keeps the messages it had. *)
  let ack = Msg.Link_ack { cls = 1; cum = 9 } in
  let f = Wire.Link_frame.create ~src:4 ~link:5 in
  add f ack;
  let contents () =
    Bytes.sub_string (Wire.Link_frame.bytes f) 0 (Wire.Link_frame.length f)
  in
  let before = contents () in
  check_bool "lseq at 2^32 in a frame" true
    (raises_invalid (fun () -> add f (data 1 0x1_0000_0000 plain_pkt)));
  check_int "count unchanged" 1 (Wire.Link_frame.count f);
  check_bool "bytes unchanged" true (contents () = before);
  check_bool "still decodes" true
    (Wire.decode_frame before = Ok (Wire.Fr_link { src = 4; link = 5; msgs = [ ack ] }))

(* Steady-state minor words of [f], averaged over many calls. *)
let words_per_call f =
  for _ = 1 to 1000 do
    f ()
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The daemon's two encoders write into reused buffers and allocate
   nothing: a time field is stored without boxing an [Int64]. *)
let encode_words () =
  let msg = data 1 4242 plain_pkt in
  let size = Wire.header_size msg in
  let f = Wire.Link_frame.create ~src:4 ~link:7 in
  let add_words =
    words_per_call (fun () ->
        Wire.Link_frame.clear f;
        Wire.Link_frame.add f ~size msg)
  in
  if add_words > 0.0 then
    Alcotest.failf "Link_frame.add of a Data message: %.1f minor words (bound 0)"
      add_words;
  let deliver = Wire.Session.Deliver { sport = 9; at = 987_655_000; pkt = plain_pkt } in
  let b = Wire.Session_buf.create () in
  let deliver_words = words_per_call (fun () -> Wire.Session_buf.encode b deliver) in
  if deliver_words > 0.0 then
    Alcotest.failf "Session_buf.encode of a Deliver frame: %.1f minor words (bound 0)"
      deliver_words

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
          QCheck_alcotest.to_alcotest session_buf_matches_encode;
          Alcotest.test_case "session buffer after a large frame" `Quick
            session_buf_after_large_frame;
        ] );
      ( "link frame",
        [
          QCheck_alcotest.to_alcotest qcheck_link_frame_roundtrip;
          QCheck_alcotest.to_alcotest one_message_frame_is_a_datagram;
          QCheck_alcotest.to_alcotest truncated_frames_rejected;
          Alcotest.test_case "hostile frames" `Quick hostile_frames_rejected;
          Alcotest.test_case "cleared frames reusable" `Quick
            cleared_frames_reusable;
          Alcotest.test_case "decode words per frame" `Quick decode_frame_words;
          Alcotest.test_case "encode words" `Quick encode_words;
        ] );
      ( "golden",
        [
          Alcotest.test_case "every message kind" `Quick golden_messages;
          Alcotest.test_case "every session frame" `Quick golden_session_frames;
          Alcotest.test_case "two-message link frame" `Quick golden_link_frame;
        ] );
      ( "range",
        [
          QCheck_alcotest.to_alcotest out_of_range_rejected;
          Alcotest.test_case "edges" `Quick range_edges;
        ] );
    ]
