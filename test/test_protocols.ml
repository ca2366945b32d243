(* State-machine tests for the link-level protocols, run over a scriptable
   loopback pipe (delay + per-message drop control) instead of the full
   overlay, so specific loss patterns can be injected deterministically. *)

open Strovl_sim
module P = Strovl.Packet
module Msg = Strovl.Msg
module Lproto = Strovl.Lproto

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flow = { P.f_src = 0; f_sport = 1; f_dest = P.To_node 1; f_dport = 2 }

let packet ?(seq = 0) ?(service = P.Best_effort) ?(bytes = 100) engine =
  P.make ~flow ~routing:P.Link_state ~service ~seq ~sent_at:(Engine.now engine)
    ~bytes ()

(* A duplex pipe: side A's xmit delivers to a handler for B and vice versa.
   [drop_a2b i msg] may drop the i-th A->B message. *)
type pipe = {
  engine : Engine.t;
  mutable recv_a : Msg.t -> unit;
  mutable recv_b : Msg.t -> unit;
  mutable drop_a2b : int -> Msg.t -> bool;
  mutable drop_b2a : int -> Msg.t -> bool;
  mutable sent_a2b : int;
  mutable sent_b2a : int;
}

let make_pipe ?(delay = Time.ms 5) () =
  let engine = Engine.create ~seed:3L () in
  let p =
    {
      engine;
      recv_a = ignore;
      recv_b = ignore;
      drop_a2b = (fun _ _ -> false);
      drop_b2a = (fun _ _ -> false);
      sent_a2b = 0;
      sent_b2a = 0;
    }
  in
  let xmit_a msg =
    let i = p.sent_a2b in
    p.sent_a2b <- i + 1;
    if not (p.drop_a2b i msg) then
      ignore (Engine.schedule engine ~delay (fun () -> p.recv_b msg))
  in
  let xmit_b msg =
    let i = p.sent_b2a in
    p.sent_b2a <- i + 1;
    if not (p.drop_b2a i msg) then
      ignore (Engine.schedule engine ~delay (fun () -> p.recv_a msg))
  in
  let ctx xmit up try_up =
    {
      Lproto.engine;
      node = -1;
      link = -1;
      xmit;
      up;
      try_up;
      bandwidth_bps = 1_000_000_000;
      rtt_hint = 2 * delay;
    }
  in
  (p, ctx xmit_a ignore (fun _ -> true), ctx xmit_b ignore (fun _ -> true))

let drop_nth_data n =
  let data_idx = ref (-1) in
  fun _ msg ->
    match msg with
    | Msg.Data _ ->
      incr data_idx;
      !data_idx = n
    | _ -> false

(* ---------------------------- Best effort ---------------------------- *)

let best_effort_forwards () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a = Strovl.Best_effort.create ctx_a in
  let b =
    Strovl.Best_effort.create
      { ctx_b with Lproto.up = (fun pkt -> got := pkt.P.seq :: !got) }
  in
  p.recv_b <- Strovl.Best_effort.recv b;
  for s = 0 to 4 do
    Strovl.Best_effort.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  Alcotest.(check (list int)) "all through, in order" [ 0; 1; 2; 3; 4 ] (List.rev !got);
  check_int "sent" 5 (Strovl.Best_effort.sent a);
  check_int "received" 5 (Strovl.Best_effort.received b)

(* --------------------------- Reliable link --------------------------- *)

let rel_pair ?config p ctx_a ctx_b ~up =
  let a = Strovl.Reliable_link.create ?config ctx_a in
  let b = Strovl.Reliable_link.create ?config { ctx_b with Lproto.up } in
  p.recv_a <- Strovl.Reliable_link.recv a;
  p.recv_b <- Strovl.Reliable_link.recv b;
  (a, b)

let reliable_no_loss () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = rel_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  for s = 0 to 9 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "all up" 10 (List.length !got);
  check_int "no retrans" 0 (Strovl.Reliable_link.retransmissions a);
  check_int "store drained by cum ack" 0 (Strovl.Reliable_link.store_size a);
  check_int "delivered_up counter" 10 (Strovl.Reliable_link.delivered_up b)

let reliable_recovers_loss_out_of_order () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, _b = rel_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  p.drop_a2b <- drop_nth_data 2;
  for s = 0 to 5 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  Alcotest.(check (list int)) "all delivered, loss forwarded late (out of order)"
    [ 0; 1; 3; 4; 5; 2 ]
    (List.rev !got);
  check_bool "recovered via nack quickly" true (Engine.now p.engine < Time.ms 100);
  check_int "exactly one retransmission" 1 (Strovl.Reliable_link.retransmissions a)

let reliable_in_order_mode () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let config =
    { Strovl.Reliable_link.default_config with Strovl.Reliable_link.in_order_forwarding = true }
  in
  let a, _ = rel_pair ~config p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  p.drop_a2b <- drop_nth_data 2;
  for s = 0 to 5 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  Alcotest.(check (list int)) "held until contiguous" [ 0; 1; 2; 3; 4; 5 ] (List.rev !got)

let reliable_tail_loss_rto () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, _ = rel_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  (* Drop the LAST data packet: no later packet triggers a receiver gap, so
     only the sender RTO can save it. *)
  p.drop_a2b <- drop_nth_data 2;
  for s = 0 to 2 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "tail recovered" 3 (List.length !got);
  check_bool "used rto" true (Strovl.Reliable_link.retransmissions a >= 1)

let reliable_nack_loss_retried () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, _ = rel_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  p.drop_a2b <- drop_nth_data 1;
  (* Also drop the first NACK. *)
  let first_nack = ref true in
  p.drop_b2a <-
    (fun _ msg ->
      match msg with
      | Msg.Link_nack _ when !first_nack ->
        first_nack := false;
        true
      | _ -> false);
  for s = 0 to 3 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "recovered despite nack loss" 4 (List.length !got)

let reliable_duplicate_suppressed () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref 0 in
  let _, b = rel_pair p ctx_a ctx_b ~up:(fun _ -> incr got) in
  let pkt = packet ~seq:0 p.engine in
  let msg = Msg.Data { cls = P.service_class P.Reliable; lseq = 1; pkt; auth = None } in
  Strovl.Reliable_link.recv b msg;
  Strovl.Reliable_link.recv b msg;
  Engine.run p.engine;
  check_int "delivered once" 1 !got

let reliable_ack_loss_recovered_by_refresh () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref 0 in
  let a, _ = rel_pair p ctx_a ctx_b ~up:(fun _ -> incr got) in
  (* Drop every ack: the sender's store must still drain eventually via the
     duplicate-triggered cum-ack refresh after RTO retransmissions. *)
  let acks_dropped = ref 0 in
  p.drop_b2a <-
    (fun _ msg ->
      match msg with
      | Msg.Link_ack _ when !acks_dropped < 3 ->
        incr acks_dropped;
        true
      | _ -> false);
  for s = 0 to 4 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run ~until:(Time.sec 5) p.engine;
  check_int "all delivered once" 5 !got;
  check_int "store eventually drained" 0 (Strovl.Reliable_link.store_size a)

let reliable_drain_store () =
  let p, ctx_a, ctx_b = make_pipe () in
  let a, _ = rel_pair p ctx_a ctx_b ~up:ignore in
  (* Peer completely dead: everything stays in the store. *)
  p.drop_a2b <- (fun _ _ -> true);
  for s = 0 to 3 do
    Strovl.Reliable_link.send a (packet ~seq:s p.engine)
  done;
  check_int "store holds all" 4 (Strovl.Reliable_link.store_size a);
  let stranded = Strovl.Reliable_link.drain_store a in
  Alcotest.(check (list int)) "drained oldest-first" [ 0; 1; 2; 3 ]
    (List.map (fun pkt -> pkt.P.seq) stranded);
  check_int "store empty" 0 (Strovl.Reliable_link.store_size a);
  (* No RTO storms afterwards: engine drains quietly. *)
  Engine.run ~until:(Time.sec 2) p.engine;
  check_int "nothing retransmitted after drain" 0
    (Strovl.Reliable_link.retransmissions a)

let reliable_nack_gives_up_eventually () =
  let p, ctx_a, ctx_b = make_pipe () in
  let config =
    { Strovl.Reliable_link.default_config with Strovl.Reliable_link.max_nack_repeats = 5 }
  in
  let got = ref 0 in
  let _, b = rel_pair ~config p ctx_a ctx_b ~up:(fun _ -> incr got) in
  (* Feed the receiver a gap the sender will never fill (lseq 1 missing,
     no sender-side state at all). *)
  let data lseq =
    Msg.Data { cls = P.service_class P.Reliable; lseq; pkt = packet ~seq:lseq p.engine; auth = None }
  in
  Strovl.Reliable_link.recv b (data 2);
  Strovl.Reliable_link.recv b (data 3);
  Engine.run ~until:(Time.sec 10) p.engine;
  check_int "later packets forwarded" 2 !got;
  (* The abandoned gap stopped generating NACKs: count the b->a messages in
     a quiet second. *)
  let before = p.sent_b2a in
  Engine.run ~until:(Time.add (Engine.now p.engine) (Time.sec 1)) p.engine;
  check_int "no more nacks after give-up" before p.sent_b2a

(* --------------------------- Realtime link --------------------------- *)

let rt_config =
  {
    Strovl.Realtime_link.n_requests = 3;
    m_retrans = 2;
    budget = Time.ms 120;
    history = 128;
    request_spacing = None;
    retrans_spacing = None;
  }

let rt_pair ?(config = rt_config) p ctx_a ctx_b ~up =
  let a = Strovl.Realtime_link.create ~config ctx_a in
  let b = Strovl.Realtime_link.create ~config { ctx_b with Lproto.up } in
  p.recv_a <- Strovl.Realtime_link.recv a;
  p.recv_b <- Strovl.Realtime_link.recv b;
  (a, b)

let realtime_recovers_in_budget () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = rt_pair p ctx_a ctx_b ~up:(fun pkt -> got := (pkt.P.seq, Engine.now p.engine) :: !got) in
  p.drop_a2b <- drop_nth_data 1;
  for s = 0 to 3 do
    Strovl.Realtime_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "all delivered" 4 (List.length !got);
  let _, t1 = List.find (fun (s, _) -> s = 1) !got in
  check_bool "within budget" true (t1 <= Time.ms 120);
  (* Receiving the packet cancels pending requests: only the first request
     fired. *)
  check_int "requests cancelled after success" 1 (Strovl.Realtime_link.requests_sent b);
  check_int "M retransmissions scheduled" 2 (Strovl.Realtime_link.retransmissions a)

let realtime_duplicate_requests_single_m () =
  let p, ctx_a, ctx_b = make_pipe () in
  let a, _b = rt_pair p ctx_a ctx_b ~up:ignore in
  Strovl.Realtime_link.send a (packet ~seq:0 p.engine);
  Engine.run p.engine;
  (* Two requests for the same lseq: only the first triggers M retransmits. *)
  Strovl.Realtime_link.recv a (Msg.Rt_request { lseq = 1 });
  Strovl.Realtime_link.recv a (Msg.Rt_request { lseq = 1 });
  Engine.run p.engine;
  check_int "M once" 2 (Strovl.Realtime_link.retransmissions a)

let realtime_gives_up_after_n_requests () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref 0 in
  let a, b = rt_pair p ctx_a ctx_b ~up:(fun _ -> incr got) in
  (* Lose packet 1 and every retransmission of it. *)
  p.drop_a2b <-
    (fun _ msg ->
      match msg with
      | Msg.Data { lseq = 2; _ } -> true
      | _ -> false);
  for s = 0 to 3 do
    Strovl.Realtime_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "others delivered" 3 !got;
  check_int "exactly N requests then give up" 3 (Strovl.Realtime_link.requests_sent b);
  check_bool "overhead includes M per received request" true
    (Strovl.Realtime_link.retransmissions a >= 2)

let realtime_request_for_forgotten_packet () =
  let p, ctx_a, ctx_b = make_pipe () in
  let config = { rt_config with Strovl.Realtime_link.history = 4 } in
  let a, _ = rt_pair ~config p ctx_a ctx_b ~up:ignore in
  for s = 0 to 9 do
    Strovl.Realtime_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  (* lseq 1 has fallen out of the 4-slot history: request ignored. *)
  Strovl.Realtime_link.recv a (Msg.Rt_request { lseq = 1 });
  Engine.run p.engine;
  check_int "no retransmission of forgotten" 0 (Strovl.Realtime_link.retransmissions a)

let realtime_overhead_counter () =
  let p, ctx_a, ctx_b = make_pipe () in
  let a, _ = rt_pair p ctx_a ctx_b ~up:ignore in
  for s = 0 to 9 do
    Strovl.Realtime_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  Alcotest.(check (float 0.001)) "no loss overhead 1.0" 1.0
    (Strovl.Realtime_link.wire_overhead a)

let realtime_burst_recovery () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = rt_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  (* Lose three consecutive packets: each missing lseq gets its own request
     machinery and all recover. *)
  let dropped = ref 0 in
  p.drop_a2b <-
    (fun _ msg ->
      match msg with
      | Msg.Data { lseq; _ } when lseq >= 2 && lseq <= 4 && !dropped < 3 ->
        incr dropped;
        true
      | _ -> false);
  for s = 0 to 6 do
    Strovl.Realtime_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "all seven delivered" 7 (List.length !got);
  check_bool "one request per missing packet" true
    (Strovl.Realtime_link.requests_sent b >= 3)

let realtime_overhead_with_loss () =
  let p, ctx_a, ctx_b = make_pipe () in
  let a, _ = rt_pair p ctx_a ctx_b ~up:ignore in
  p.drop_a2b <- drop_nth_data 3;
  for s = 0 to 9 do
    Strovl.Realtime_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  (* One loss, M=2 retransmissions: overhead = 12/10. *)
  Alcotest.(check (float 0.001)) "overhead = 1 + M*losses/sent" 1.2
    (Strovl.Realtime_link.wire_overhead a)

(* ---------------------------- IT-Priority ---------------------------- *)

let slow_ctx ctx =
  (* 1 Mbit/s: a 1000B data message takes ~8ms to serialize, so queues
     actually build. *)
  { ctx with Lproto.bandwidth_bps = 1_000_000 }

let itp_packet ~src ~prio ~seq engine =
  P.make
    ~flow:{ P.f_src = src; f_sport = 1; f_dest = P.To_node 9; f_dport = 2 }
    ~routing:P.Link_state ~service:(P.It_priority prio) ~seq
    ~sent_at:(Engine.now engine) ~bytes:1000 ()

let itp_round_robin_fair () =
  let p, ctx_a, _ = make_pipe () in
  let sched = Strovl.It_priority.create (slow_ctx ctx_a) in
  (* Source 7 floods 100; source 8 offers 10. All of 8's packets must be
     transmitted (fair share), even though 7 enqueued first. *)
  for s = 0 to 99 do
    Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:1 ~seq:s p.engine)
  done;
  for s = 0 to 9 do
    Strovl.It_priority.send sched (itp_packet ~src:8 ~prio:1 ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "all of the light source sent" 10
    (Strovl.It_priority.sent_for sched ~source:8);
  check_bool "flooder saw the drops" true
    (Strovl.It_priority.dropped_for sched ~source:7 > 0);
  check_int "flooder kept only its buffer" (64 + 36)
    (Strovl.It_priority.sent_for sched ~source:7 + Strovl.It_priority.dropped_for sched ~source:7 - 0)

let itp_priority_eviction () =
  let p, ctx_a, _ = make_pipe () in
  let config =
    { Strovl.It_priority.default_config with Strovl.It_priority.per_source_cap = 3 }
  in
  let sched = Strovl.It_priority.create ~config (slow_ctx ctx_a) in
  (* One packet is serialized immediately; then fill the 3-slot buffer with
     priorities [1;1;5] and push another 5: the OLDEST LOWEST (first prio-1)
     must be evicted. *)
  Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:9 ~seq:0 p.engine);
  Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:1 ~seq:1 p.engine);
  Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:1 ~seq:2 p.engine);
  Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:5 ~seq:3 p.engine);
  Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:5 ~seq:4 p.engine);
  Engine.run p.engine;
  check_int "one drop" 1 (Strovl.It_priority.total_dropped sched);
  check_int "rest sent" 4 (Strovl.It_priority.total_sent sched)

let itp_fifo_mode_drop_tail () =
  let p, ctx_a, _ = make_pipe () in
  let config =
    { Strovl.It_priority.mode = Strovl.It_priority.Fifo; per_source_cap = 64; fifo_cap = 5 }
  in
  let sched = Strovl.It_priority.create ~config (slow_ctx ctx_a) in
  for s = 0 to 19 do
    Strovl.It_priority.send sched (itp_packet ~src:7 ~prio:1 ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_bool "drop-tail dropped" true (Strovl.It_priority.total_dropped sched > 0);
  check_bool "bounded by cap + in-service" true (Strovl.It_priority.total_sent sched <= 7)

let itp_recv_passes_up () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref 0 in
  let a = Strovl.It_priority.create ctx_a in
  let b = Strovl.It_priority.create { ctx_b with Lproto.up = (fun _ -> incr got) } in
  p.recv_b <- Strovl.It_priority.recv b;
  Strovl.It_priority.send a (itp_packet ~src:7 ~prio:1 ~seq:0 p.engine);
  Engine.run p.engine;
  check_int "delivered" 1 !got

(* ---------------------------- IT-Reliable ---------------------------- *)

let itr_packet ~dst ~seq engine =
  P.make
    ~flow:{ P.f_src = 0; f_sport = 1; f_dest = P.To_node dst; f_dport = 2 }
    ~routing:P.Link_state ~service:P.It_reliable ~seq
    ~sent_at:(Engine.now engine) ~bytes:500 ()

let itr_pair ?(config = Strovl.It_reliable.default_config) ?(accept = fun _ -> true)
    p ctx_a ctx_b =
  let a = Strovl.It_reliable.create ~config ctx_a in
  let b = Strovl.It_reliable.create ~config { ctx_b with Lproto.try_up = accept } in
  p.recv_a <- Strovl.It_reliable.recv a;
  p.recv_b <- Strovl.It_reliable.recv b;
  (a, b)

let itr_delivery_and_ack () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref 0 in
  let a, _ = itr_pair ~accept:(fun _ -> incr got; true) p ctx_a ctx_b in
  for s = 0 to 4 do
    check_bool "accepted" true (Strovl.It_reliable.offer a (itr_packet ~dst:9 ~seq:s p.engine))
  done;
  Engine.run p.engine;
  check_int "all delivered" 5 !got;
  check_int "all acked" 5 (Strovl.It_reliable.acked a);
  check_int "buffers empty" 0 (Strovl.It_reliable.total_buffered a)

let itr_flow_cap_refuses () =
  let p, ctx_a, ctx_b = make_pipe () in
  let config = { Strovl.It_reliable.default_config with Strovl.It_reliable.flow_cap = 3 } in
  (* Peer never acks (accept = false): buffer cannot drain. *)
  let a, _ = itr_pair ~config ~accept:(fun _ -> false) p ctx_a ctx_b in
  let flow9 = (itr_packet ~dst:9 ~seq:0 p.engine).P.flow in
  for s = 0 to 2 do
    check_bool "fits" true (Strovl.It_reliable.offer a (itr_packet ~dst:9 ~seq:s p.engine))
  done;
  check_bool "can_accept false at cap" false (Strovl.It_reliable.can_accept a ~flow:flow9);
  check_bool "refused at cap" false (Strovl.It_reliable.offer a (itr_packet ~dst:9 ~seq:3 p.engine));
  (* A different flow has its own buffer. *)
  check_bool "other flow unaffected" true
    (Strovl.It_reliable.offer a (itr_packet ~dst:8 ~seq:0 p.engine))

let itr_retransmits_until_acked () =
  let p, ctx_a, ctx_b = make_pipe () in
  let accepts = ref 0 in
  (* Refuse the first two attempts, accept afterwards. *)
  let a, _ =
    itr_pair
      ~accept:(fun _ ->
        incr accepts;
        !accepts > 2)
      p ctx_a ctx_b
  in
  ignore (Strovl.It_reliable.offer a (itr_packet ~dst:9 ~seq:0 p.engine));
  Engine.run ~until:(Time.sec 2) p.engine;
  check_bool "retransmitted" true (Strovl.It_reliable.retransmissions a >= 2);
  check_int "eventually acked" 1 (Strovl.It_reliable.acked a);
  check_int "buffer freed" 0 (Strovl.It_reliable.total_buffered a)

let itr_round_robin_across_flows () =
  let p, ctx_a, ctx_b = make_pipe () in
  let order = ref [] in
  let a, _ =
    itr_pair
      ~accept:(fun pkt ->
        (match pkt.P.flow.P.f_dest with
        | P.To_node d -> order := d :: !order
        | _ -> ());
        true)
      p
      (slow_ctx ctx_a) ctx_b
  in
  for s = 0 to 4 do
    ignore (Strovl.It_reliable.offer a (itr_packet ~dst:8 ~seq:s p.engine))
  done;
  for s = 0 to 4 do
    ignore (Strovl.It_reliable.offer a (itr_packet ~dst:9 ~seq:s p.engine))
  done;
  Engine.run ~until:(Time.sec 2) p.engine;
  (* Flows alternate rather than 8 draining before 9 starts. *)
  let first_four = List.filteri (fun i _ -> i < 4) (List.rev !order) in
  check_bool "interleaved" true (List.mem 9 first_four && List.mem 8 first_four)

(* ------------------------------- FEC ---------------------------------- *)

let fec_config = { Strovl.Fec_link.k = 4; r = 2; flush = Time.ms 50 }

let fec_pair ?(config = fec_config) p ctx_a ctx_b ~up =
  let a = Strovl.Fec_link.create ~config ctx_a in
  let b = Strovl.Fec_link.create ~config { ctx_b with Lproto.up } in
  p.recv_a <- Strovl.Fec_link.recv a;
  p.recv_b <- Strovl.Fec_link.recv b;
  (a, b)

let fec_no_loss () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = fec_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  for s = 0 to 7 do
    Strovl.Fec_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "all delivered" 8 (List.length !got);
  check_int "two full blocks of parity" 4 (Strovl.Fec_link.parity_sent a);
  check_int "nothing recovered" 0 (Strovl.Fec_link.recovered b);
  (* ~1 + r/k in bytes; headers make parity slightly cheaper than data. *)
  let oh = Strovl.Fec_link.wire_overhead a in
  check_bool "overhead ~1+r/k" true (oh > 1.3 && oh < 1.6)

let fec_recovers_within_parity_budget () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = fec_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  (* Lose 2 of the first block's 4 data packets: exactly r, recoverable. *)
  p.drop_a2b <-
    (fun _ msg ->
      match msg with Msg.Data { lseq = 2 | 3; _ } -> true | _ -> false);
  for s = 0 to 7 do
    Strovl.Fec_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "all delivered incl recovered" 8 (List.length !got);
  check_int "two recovered" 2 (Strovl.Fec_link.recovered b);
  (* Delivery of recovered packets happens without any b->a traffic. *)
  check_int "no reverse traffic" 0 p.sent_b2a

let fec_burst_defeats_block () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = fec_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  (* Lose 3 > r=2 of one block: unrecoverable; later blocks unaffected. *)
  p.drop_a2b <-
    (fun _ msg ->
      match msg with Msg.Data { lseq = 1 | 2 | 3; _ } -> true | _ -> false);
  for s = 0 to 7 do
    Strovl.Fec_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "only survivors delivered" 5 (List.length !got);
  check_int "nothing recovered" 0 (Strovl.Fec_link.recovered b)

let fec_parity_loss_tolerated () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = fec_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  (* One data and one parity lost: the remaining parity still decodes. *)
  let dropped_parity = ref false in
  p.drop_a2b <-
    (fun _ msg ->
      match msg with
      | Msg.Data { lseq = 2; _ } -> true
      | Msg.Fec_parity _ when not !dropped_parity ->
        dropped_parity := true;
        true
      | _ -> false);
  for s = 0 to 3 do
    Strovl.Fec_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  check_int "recovered with one parity" 4 (List.length !got);
  check_int "one recovery" 1 (Strovl.Fec_link.recovered b)

let fec_flush_partial_block () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref 0 in
  let a, b = fec_pair p ctx_a ctx_b ~up:(fun _ -> incr got) in
  (* Two packets only (block of 4 incomplete), one lost: the flush timer
     must emit parity for the partial block and recover it. *)
  p.drop_a2b <- drop_nth_data 1;
  Strovl.Fec_link.send a (packet ~seq:0 p.engine);
  Strovl.Fec_link.send a (packet ~seq:1 p.engine);
  Engine.run p.engine;
  check_int "partial block recovered after flush" 2 !got;
  check_int "recovered" 1 (Strovl.Fec_link.recovered b)

let fec_no_duplicates () =
  let p, ctx_a, ctx_b = make_pipe () in
  let got = ref [] in
  let a, b = fec_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
  ignore b;
  for s = 0 to 3 do
    Strovl.Fec_link.send a (packet ~seq:s p.engine)
  done;
  Engine.run p.engine;
  (* No loss: both parities arrive after complete data; nothing re-delivered. *)
  Alcotest.(check (list int)) "exactly once, in order" [ 0; 1; 2; 3 ] (List.rev !got)

(* ----------------------- qcheck protocol properties ------------------- *)

(* Under ANY finite pattern of losses (data, acks, nacks — both directions),
   the reliable link delivers every packet exactly once and drains its
   retransmission store. *)
let qcheck_reliable_exactly_once =
  QCheck.Test.make ~name:"reliable: exactly-once under arbitrary finite drops"
    ~count:150
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 12) (int_bound 60))
        (list_of_size (Gen.int_bound 12) (int_bound 60)))
    (fun (drops_ab, drops_ba) ->
      let p, ctx_a, ctx_b = make_pipe () in
      let got = ref [] in
      let a, _b = rel_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
      p.drop_a2b <- (fun i _ -> List.mem i drops_ab);
      p.drop_b2a <- (fun i _ -> List.mem i drops_ba);
      let n = 15 in
      for s = 0 to n - 1 do
        Strovl.Reliable_link.send a (packet ~seq:s p.engine)
      done;
      Engine.run p.engine;
      List.sort compare !got = List.init n (fun i -> i)
      && Strovl.Reliable_link.store_size a = 0)

(* The realtime link never duplicates a delivery and never delivers
   something that was not sent, no matter the loss pattern. *)
let qcheck_realtime_no_duplicates =
  QCheck.Test.make ~name:"realtime: no duplicates under arbitrary drops"
    ~count:150
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 15) (int_bound 80))
        (list_of_size (Gen.int_bound 15) (int_bound 80)))
    (fun (drops_ab, drops_ba) ->
      let p, ctx_a, ctx_b = make_pipe () in
      let got = ref [] in
      let a, _b = rt_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
      p.drop_a2b <- (fun i _ -> List.mem i drops_ab);
      p.drop_b2a <- (fun i _ -> List.mem i drops_ba);
      let n = 20 in
      for s = 0 to n - 1 do
        Strovl.Realtime_link.send a (packet ~seq:s p.engine)
      done;
      Engine.run p.engine;
      let sorted = List.sort compare !got in
      List.length (List.sort_uniq compare sorted) = List.length sorted
      && List.for_all (fun s -> s >= 0 && s < n) sorted)

(* FEC: never duplicates; every directly received packet is delivered; and
   with no parity losses, blocks with <= r data erasures fully recover. *)
let qcheck_fec_invariants =
  QCheck.Test.make ~name:"fec: no duplicates, erasures <= r recovered"
    ~count:150
    QCheck.(list_of_size (Gen.int_bound 6) (int_bound 15))
    (fun dropped_data ->
      let p, ctx_a, ctx_b = make_pipe () in
      let got = ref [] in
      let a, _b = fec_pair p ctx_a ctx_b ~up:(fun pkt -> got := pkt.P.seq :: !got) in
      (* Drop only data packets, by lseq (1-based), never parity. *)
      let dropped = List.sort_uniq compare (List.map (fun d -> d + 1) dropped_data) in
      p.drop_a2b <-
        (fun _ msg ->
          match msg with
          | Msg.Data { lseq; _ } -> List.mem lseq dropped
          | _ -> false);
      let n = 16 in
      for s = 0 to n - 1 do
        Strovl.Fec_link.send a (packet ~seq:s p.engine)
      done;
      Engine.run p.engine;
      let sorted = List.sort compare !got in
      let no_dups = List.sort_uniq compare sorted = sorted in
      (* Blocks are lseqs 1-4, 5-8, ...: a block with <= 2 drops recovers. *)
      let expected =
        List.filter
          (fun s ->
            let lseq = s + 1 in
            let block_first = (((lseq - 1) / 4) * 4) + 1 in
            let drops_in_block =
              List.length
                (List.filter
                   (fun d -> d >= block_first && d < block_first + 4)
                   dropped)
            in
            (not (List.mem lseq dropped)) || drops_in_block <= 2)
          (List.init n (fun i -> i))
      in
      no_dups && sorted = expected)

(* ------------------- Reliable link: model and bounds ------------------- *)

(* The Reliable Data Link as it was written with persistent [Map]s for both
   windows, kept verbatim in behaviour as the oracle for the ring-window
   implementation: same timers, same xmits, same up-calls. *)
module Rel_oracle = struct
  module IntMap = Map.Make (Int)
  module R = Strovl.Reliable_link

  type t = {
    ctx : Lproto.ctx;
    cfg : R.config;
    cls : int;
    mutable next_lseq : int;
    mutable store : P.t IntMap.t;
    mutable rto_timer : Engine.handle option;
    mutable recv_high : int;
    mutable cum : int;
    missing : (int, Engine.handle) Hashtbl.t;
    mutable seen : P.t option IntMap.t;
    mutable unacked_count : int;
    mutable ack_timer : Engine.handle option;
  }

  let create cfg ctx =
    {
      ctx;
      cfg;
      cls = P.service_class P.Reliable;
      next_lseq = 0;
      store = IntMap.empty;
      rto_timer = None;
      recv_high = 0;
      cum = 0;
      missing = Hashtbl.create 8;
      seen = IntMap.empty;
      unacked_count = 0;
      ack_timer = None;
    }

  let nack_repeat t =
    match t.cfg.R.nack_repeat with
    | Some d -> d
    | None -> Time.max (Time.ms 2) (2 * t.ctx.Lproto.rtt_hint)

  let rto t =
    match t.cfg.R.rto with
    | Some d -> d
    | None -> Time.max (Time.ms 5) ((3 * t.ctx.Lproto.rtt_hint) + t.cfg.R.ack_delay)

  let xmit_data t lseq pkt =
    t.ctx.Lproto.xmit (Msg.Data { cls = t.cls; lseq; pkt; auth = None })

  let rec arm_rto t =
    Option.iter (Engine.cancel t.ctx.Lproto.engine) t.rto_timer;
    if IntMap.is_empty t.store then t.rto_timer <- None
    else
      t.rto_timer <-
        Some
          (Engine.schedule t.ctx.Lproto.engine ~delay:(rto t) (fun () ->
               t.rto_timer <- None;
               (match IntMap.min_binding_opt t.store with
               | Some (lseq, pkt) -> xmit_data t lseq pkt
               | None -> ());
               arm_rto t))

  let send t pkt =
    t.next_lseq <- t.next_lseq + 1;
    t.store <- IntMap.add t.next_lseq pkt t.store;
    xmit_data t t.next_lseq pkt;
    if t.rto_timer = None then arm_rto t

  let handle_ack t cum =
    let _, _, keep = IntMap.split cum t.store in
    t.store <- keep;
    arm_rto t

  let handle_nack t missing =
    List.iter
      (fun lseq ->
        match IntMap.find_opt lseq t.store with
        | Some pkt -> xmit_data t lseq pkt
        | None -> ())
      missing;
    arm_rto t

  let send_cum_ack t =
    Option.iter (Engine.cancel t.ctx.Lproto.engine) t.ack_timer;
    t.ack_timer <- None;
    t.unacked_count <- 0;
    t.ctx.Lproto.xmit (Msg.Link_ack { cls = t.cls; cum = t.cum })

  let schedule_ack t =
    t.unacked_count <- t.unacked_count + 1;
    if t.unacked_count >= t.cfg.R.ack_every then send_cum_ack t
    else if t.ack_timer = None then
      t.ack_timer <-
        Some
          (Engine.schedule t.ctx.Lproto.engine ~delay:t.cfg.R.ack_delay (fun () ->
               t.ack_timer <- None;
               send_cum_ack t))

  let rec advance_cum t =
    let next = t.cum + 1 in
    match IntMap.find_opt next t.seen with
    | Some held ->
      t.seen <- IntMap.remove next t.seen;
      t.cum <- next;
      Option.iter t.ctx.Lproto.up held;
      advance_cum t
    | None -> ()

  let rec nack_loop t lseq tries () =
    if Hashtbl.mem t.missing lseq then
      if tries >= t.cfg.R.max_nack_repeats then begin
        Hashtbl.remove t.missing lseq;
        t.seen <- IntMap.add lseq None t.seen;
        advance_cum t
      end
      else begin
        t.ctx.Lproto.xmit (Msg.Link_nack { cls = t.cls; missing = [ lseq ] });
        Hashtbl.replace t.missing lseq
          (Engine.schedule t.ctx.Lproto.engine ~delay:(nack_repeat t)
             (nack_loop t lseq (tries + 1)))
      end

  let handle_data t lseq pkt =
    if lseq <= t.cum || IntMap.mem lseq t.seen then send_cum_ack t
    else begin
      (match Hashtbl.find_opt t.missing lseq with
      | Some h ->
        Engine.cancel t.ctx.Lproto.engine h;
        Hashtbl.remove t.missing lseq
      | None -> ());
      if lseq > t.recv_high then begin
        for g = t.recv_high + 1 to lseq - 1 do
          if g > t.cum && (not (IntMap.mem g t.seen)) && not (Hashtbl.mem t.missing g)
          then
            Hashtbl.replace t.missing g
              (Engine.schedule t.ctx.Lproto.engine ~delay:Time.zero
                 (nack_loop t g 0))
        done;
        t.recv_high <- lseq
      end;
      if t.cfg.R.in_order_forwarding then begin
        t.seen <- IntMap.add lseq (Some pkt) t.seen;
        advance_cum t
      end
      else begin
        t.seen <- IntMap.add lseq None t.seen;
        advance_cum t;
        t.ctx.Lproto.up pkt
      end;
      schedule_ack t
    end

  let recv t = function
    | Msg.Data { lseq; pkt; _ } -> handle_data t lseq pkt
    | Msg.Link_ack { cum; _ } -> handle_ack t cum
    | Msg.Link_nack { missing; _ } -> handle_nack t missing
    | _ -> ()

  let drain_store t =
    let pkts = List.map snd (IntMap.bindings t.store) in
    t.store <- IntMap.empty;
    Option.iter (Engine.cancel t.ctx.Lproto.engine) t.rto_timer;
    t.rto_timer <- None;
    pkts

  let store_size t = IntMap.cardinal t.store
end

type rel_op =
  | Op_send
  | Op_ack of int
  | Op_nack of int list
  | Op_data of int
  | Op_drain
  | Op_wait of int  (** µs of virtual time *)

let pp_rel_op ppf = function
  | Op_send -> Format.fprintf ppf "send"
  | Op_ack c -> Format.fprintf ppf "ack %d" c
  | Op_nack l ->
    Format.fprintf ppf "nack [%s]" (String.concat ";" (List.map string_of_int l))
  | Op_data l -> Format.fprintf ppf "data %d" l
  | Op_drain -> Format.fprintf ppf "drain"
  | Op_wait d -> Format.fprintf ppf "wait %d" d

(* Data lseqs up to 40 and acks/nacks up to 80, against up to ~70 sends:
   duplicates, reordering, gaps, stale acks and acks beyond anything sent
   all occur, and both rings outgrow their initial 16 slots. *)
let gen_rel_op =
  QCheck.Gen.(
    frequency
      [
        (8, return Op_send);
        (2, map (fun c -> Op_ack c) (int_bound 80));
        (2, map (fun l -> Op_nack l) (list_size (int_bound 3) (int_bound 80)));
        (6, map (fun l -> Op_data l) (int_range 1 40));
        (1, return Op_drain);
        (3, map (fun d -> Op_wait d) (int_bound 30_000));
      ])

let gen_rel_case =
  QCheck.Gen.(
    pair
      (quad bool (int_range 1 5) (int_range 1 10) (int_range 1 4))
      (list_size (int_range 1 160) gen_rel_op))

let print_rel_case ((in_order, ack_every, ack_delay_ms, max_nack), ops) =
  Format.asprintf "in_order=%b ack_every=%d ack_delay=%dms max_nack=%d@ %a"
    in_order ack_every ack_delay_ms max_nack
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_rel_op)
    ops

(* Drives one endpoint (sender and receiver at once) through [ops] and
   returns everything it did: timed xmits, timed up-calls, and the store
   size and drained packets after every op. *)
let run_rel_model ~create ~recv ~send ~drain ~store_size cfg ops =
  let engine = Engine.create ~seed:3L () in
  let xmits = ref [] and ups = ref [] and sizes = ref [] and drained = ref [] in
  let ctx =
    {
      Lproto.engine;
      node = -1;
      link = -1;
      xmit = (fun m -> xmits := (Engine.now engine, m) :: !xmits);
      up = (fun pkt -> ups := (Engine.now engine, pkt.P.seq) :: !ups);
      try_up = (fun _ -> true);
      bandwidth_bps = 1_000_000_000;
      rtt_hint = Time.ms 4;
    }
  in
  let t = create cfg ctx in
  let sent = ref 0 in
  let cls = P.service_class P.Reliable in
  List.iter
    (fun op ->
      (match op with
      | Op_send ->
        incr sent;
        send t (packet ~seq:(1000 + !sent) engine)
      | Op_ack cum -> recv t (Msg.Link_ack { cls; cum })
      | Op_nack missing -> recv t (Msg.Link_nack { cls; missing })
      | Op_data lseq ->
        recv t (Msg.Data { cls; lseq; pkt = packet ~seq:lseq engine; auth = None })
      | Op_drain -> drained := List.map (fun p -> p.P.seq) (drain t) :: !drained
      | Op_wait d -> Engine.run ~until:(Engine.now engine + d) engine);
      sizes := store_size t :: !sizes)
    ops;
  Engine.run ~until:(Engine.now engine + Time.sec 1) engine;
  (List.rev !xmits, List.rev !ups, List.rev !sizes, List.rev !drained)

let qcheck_reliable_matches_model =
  QCheck.Test.make ~name:"reliable: ring windows match the Map model" ~count:400
    (QCheck.make ~print:print_rel_case gen_rel_case)
    (fun ((in_order, ack_every, ack_delay_ms, max_nack), ops) ->
      let cfg =
        {
          Strovl.Reliable_link.default_config with
          Strovl.Reliable_link.ack_every;
          ack_delay = Time.ms ack_delay_ms;
          in_order_forwarding = in_order;
          max_nack_repeats = max_nack;
        }
      in
      let real =
        run_rel_model
          ~create:(fun config ctx -> Strovl.Reliable_link.create ~config ctx)
          ~recv:Strovl.Reliable_link.recv ~send:Strovl.Reliable_link.send
          ~drain:Strovl.Reliable_link.drain_store
          ~store_size:Strovl.Reliable_link.store_size cfg ops
      in
      let model =
        run_rel_model ~create:Rel_oracle.create ~recv:Rel_oracle.recv
          ~send:Rel_oracle.send ~drain:Rel_oracle.drain_store
          ~store_size:Rel_oracle.store_size cfg ops
      in
      real = model)

let window_drops proto =
  Strovl_obs.Metrics.find_counter
    ~labels:[ ("proto", proto) ]
    "strovl_link_window_drops_total"

(* One forged Data far past the window costs a counter increment: no NACK
   timer per skipped slot, nothing handed up, and the link keeps working. *)
let reliable_window_bound () =
  let p, _, ctx_b = make_pipe () in
  let got = ref [] in
  let b =
    Strovl.Reliable_link.create
      { ctx_b with Lproto.up = (fun pkt -> got := pkt.P.seq :: !got) }
  in
  let cls = P.service_class P.Reliable in
  let data lseq = Msg.Data { cls; lseq; pkt = packet ~seq:lseq p.engine; auth = None } in
  let before = window_drops "reliable" in
  Strovl.Reliable_link.recv b (data (Strovl.Reliable_link.max_window + 1));
  check_int "dropped and counted" (before + 1) (window_drops "reliable");
  check_int "no timers" 0 (Engine.pending_events p.engine);
  (* The edge of the window is still accepted. *)
  Strovl.Reliable_link.recv b (data 1);
  Strovl.Reliable_link.recv b (data (1 + Strovl.Reliable_link.max_window));
  Engine.run ~until:(Time.ms 1) p.engine;
  Alcotest.(check (list int)) "in-window data up"
    [ 1; 1 + Strovl.Reliable_link.max_window ]
    (List.rev !got);
  check_int "one drop only" (before + 1) (window_drops "reliable");
  (* Same bound on the NM-Strikes link. *)
  let rt = Strovl.Realtime_link.create ctx_b in
  let rt_before = window_drops "realtime" in
  let rt_data lseq =
    Msg.Data
      {
        cls = P.service_class (P.Realtime { deadline = 0; n_requests = 1; m_retrans = 1 });
        lseq;
        pkt = packet ~seq:lseq p.engine;
        auth = None;
      }
  in
  let pending = Engine.pending_events p.engine in
  Strovl.Realtime_link.recv rt (rt_data 20_000_000);
  check_int "realtime dropped and counted" (rt_before + 1) (window_drops "realtime");
  check_int "no realtime timers" pending (Engine.pending_events p.engine);
  check_int "nothing up" 0 (Strovl.Realtime_link.delivered_up rt)

(* Both rings let go of a packet once it is acked, drained or handed up:
   the slots hold no stale reference that would keep it from being
   collected. *)
let reliable_releases_packets () =
  let engine = Engine.create () in
  let ctx =
    {
      Lproto.engine;
      node = -1;
      link = -1;
      xmit = ignore;
      up = ignore;
      try_up = (fun _ -> true);
      bandwidth_bps = 1_000_000_000;
      rtt_hint = Time.ms 2;
    }
  in
  let config =
    { Strovl.Reliable_link.default_config with Strovl.Reliable_link.in_order_forwarding = true }
  in
  let t = Strovl.Reliable_link.create ~config ctx in
  let cls = P.service_class P.Reliable in
  let tracked = Weak.create 4 in
  let fresh i =
    let pkt = packet ~seq:i engine in
    Weak.set tracked i (Some pkt);
    pkt
  in
  let send i = Strovl.Reliable_link.send t (fresh i) in
  let data i lseq =
    Strovl.Reliable_link.recv t (Msg.Data { cls; lseq; pkt = fresh i; auth = None })
  in
  send 0;
  send 1;
  Strovl.Reliable_link.recv t (Msg.Link_ack { cls; cum = 1 });
  ignore (Strovl.Reliable_link.drain_store t);
  (* Held for in-order forwarding, then handed up once lseq 1 arrives. *)
  data 2 2;
  data 3 1;
  check_int "both handed up" 2 (Strovl.Reliable_link.delivered_up t);
  Gc.full_major ();
  for i = 0 to 3 do
    check_bool (Printf.sprintf "packet %d collectable" i) false (Weak.check tracked i)
  done

(* Steady-state allocation of a directly wired reliable pair: sender and
   receiver call each other synchronously, the engine runs the delayed ack,
   and one packet record is reused, so every word counted is the link's
   own (plus the Data and Link_ack messages themselves). *)
let reliable_pair_words_per_packet () =
  let engine = Engine.create () in
  let a_recv = ref ignore and b_recv = ref ignore in
  let ctx xmit =
    {
      Lproto.engine;
      node = -1;
      link = -1;
      xmit;
      up = ignore;
      try_up = (fun _ -> true);
      bandwidth_bps = 1_000_000_000;
      rtt_hint = Time.ms 2;
    }
  in
  let a = Strovl.Reliable_link.create (ctx (fun m -> !b_recv m)) in
  let b = Strovl.Reliable_link.create (ctx (fun m -> !a_recv m)) in
  a_recv := Strovl.Reliable_link.recv a;
  b_recv := Strovl.Reliable_link.recv b;
  let pkt = packet engine in
  let burst () =
    for _ = 1 to 40 do
      Strovl.Reliable_link.send a pkt
    done;
    Engine.run engine
  in
  for _ = 1 to 100 do
    burst ()
  done;
  let rounds = 500 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    burst ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (40 * rounds) in
  check_int "store drained" 0 (Strovl.Reliable_link.store_size a);
  (* Measured 9.7 words per packet (the Data message and its share of the
     acks and timer options); the Map windows took 55.6. *)
  if words > 11.0 then
    Alcotest.failf "reliable pair: %.1f minor words per packet (bound 11)" words

let () =
  Alcotest.run "strovl_protocols"
    [
      ("best_effort", [ Alcotest.test_case "forwards" `Quick best_effort_forwards ]);
      ( "reliable_link",
        [
          Alcotest.test_case "no loss" `Quick reliable_no_loss;
          Alcotest.test_case "recovers out of order" `Quick reliable_recovers_loss_out_of_order;
          Alcotest.test_case "in-order mode" `Quick reliable_in_order_mode;
          Alcotest.test_case "tail loss rto" `Quick reliable_tail_loss_rto;
          Alcotest.test_case "nack loss retried" `Quick reliable_nack_loss_retried;
          Alcotest.test_case "duplicate suppressed" `Quick reliable_duplicate_suppressed;
          Alcotest.test_case "ack loss refresh" `Quick reliable_ack_loss_recovered_by_refresh;
          Alcotest.test_case "drain store" `Quick reliable_drain_store;
          Alcotest.test_case "nack give-up" `Quick reliable_nack_gives_up_eventually;
          Alcotest.test_case "window bound" `Quick reliable_window_bound;
          Alcotest.test_case "releases packets" `Quick reliable_releases_packets;
          Alcotest.test_case "words per packet" `Quick reliable_pair_words_per_packet;
          QCheck_alcotest.to_alcotest qcheck_reliable_matches_model;
        ] );
      ( "realtime_link",
        [
          Alcotest.test_case "recovers in budget" `Quick realtime_recovers_in_budget;
          Alcotest.test_case "duplicate requests" `Quick realtime_duplicate_requests_single_m;
          Alcotest.test_case "gives up after N" `Quick realtime_gives_up_after_n_requests;
          Alcotest.test_case "forgotten packet" `Quick realtime_request_for_forgotten_packet;
          Alcotest.test_case "overhead counter" `Quick realtime_overhead_counter;
          Alcotest.test_case "burst recovery" `Quick realtime_burst_recovery;
          Alcotest.test_case "overhead with loss" `Quick realtime_overhead_with_loss;
        ] );
      ( "it_priority",
        [
          Alcotest.test_case "round robin fair" `Quick itp_round_robin_fair;
          Alcotest.test_case "priority eviction" `Quick itp_priority_eviction;
          Alcotest.test_case "fifo drop tail" `Quick itp_fifo_mode_drop_tail;
          Alcotest.test_case "recv passes up" `Quick itp_recv_passes_up;
        ] );
      ( "it_reliable",
        [
          Alcotest.test_case "delivery and ack" `Quick itr_delivery_and_ack;
          Alcotest.test_case "flow cap refuses" `Quick itr_flow_cap_refuses;
          Alcotest.test_case "retransmits until acked" `Quick itr_retransmits_until_acked;
          Alcotest.test_case "round robin flows" `Quick itr_round_robin_across_flows;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_reliable_exactly_once;
          QCheck_alcotest.to_alcotest qcheck_realtime_no_duplicates;
          QCheck_alcotest.to_alcotest qcheck_fec_invariants;
        ] );
      ( "fec_link",
        [
          Alcotest.test_case "no loss" `Quick fec_no_loss;
          Alcotest.test_case "recovers within budget" `Quick fec_recovers_within_parity_budget;
          Alcotest.test_case "burst defeats block" `Quick fec_burst_defeats_block;
          Alcotest.test_case "parity loss tolerated" `Quick fec_parity_loss_tolerated;
          Alcotest.test_case "flush partial block" `Quick fec_flush_partial_block;
          Alcotest.test_case "no duplicates" `Quick fec_no_duplicates;
        ] );
    ]
