(* Wall-clock runtime integration test: three overlay daemons on real
   loopback UDP sockets — in one process, on one Strovl_rt.Runtime, which
   makes the test deterministic to schedule yet exercises the entire real
   path: datagram framing, non-blocking sockets, the select loop, session
   clients, and the unmodified protocol stack (hello, LSUs, reliable
   links, routing, delivery).

   Topology is a square — two disjoint 2-hop paths 0-1-3 and 0-2-3 — and
   the flow runs 0 -> 3. The stack routes on *measured* latency (hello
   RTTs), which on loopback is near-equal everywhere, so the test
   does not assume which relay wins: it discovers which middle node
   carried the first batch, kills that daemon (socket closed, node
   stopped), and shows the overlay reroutes onto the surviving relay
   within the liveness window and keeps delivering. Every phase has a
   bounded wall-clock budget; the whole test stays well under 10 s. *)

module Time = Strovl_sim.Time
module Node = Strovl.Node
module Wire = Strovl.Wire
module Packet = Strovl.Packet
module Rt = Strovl_rt
module Metrics = Strovl_obs.Metrics
module Client = Rt.Session_client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Three kernel-chosen free UDP ports, released before the daemons bind
   them. (A race with other processes is theoretically possible, real
   collisions are not: nothing else on the test host grabs ephemeral UDP
   ports in the microseconds between close and re-bind.) *)
let free_ports n =
  List.init n (fun _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      Unix.close fd;
      port)

(* Fast protocol timings so failure detection and rerouting fit a test
   budget: hello every 30 ms with a 120 ms timeout, so a dead link is
   declared down within ~150 ms. *)
let test_config =
  {
    Node.default_config with
    Node.hello_interval = Time.ms 30;
    hello_timeout = Time.ms 120;
  }

(* Drives the runtime in slices until [cond] holds or [budget_ms] elapses. *)
let run_until rt ~budget_ms cond =
  let deadline = Rt.Clock.now_us () + (budget_ms * 1000) in
  let rec go () =
    if cond () then true
    else if Rt.Clock.now_us () >= deadline then cond ()
    else begin
      Rt.Runtime.run_for rt (Time.ms 20);
      go ()
    end
  in
  go ()

(* The runtime as a session client's [wait]: the daemons answer only
   while it runs. *)
let step rt deadline = Rt.Runtime.step rt ~deadline

(* An in-process session client on [sport] at [node]'s daemon, opened and
   polled from the runtime's select loop. *)
let client rt topo node ~sport =
  let c =
    Client.create (Rt.Udp.bind ~host:"127.0.0.1" ~port:0)
      ~daemon:(Rt.Topofile.addr topo node) ~sport
  in
  Rt.Runtime.watch rt (Client.fd c) (fun () -> Client.poll c);
  check_bool "session open" true (Client.open_session c ~wait:(step rt) <> None);
  c

let close_client rt c =
  Rt.Runtime.unwatch rt (Client.fd c);
  Client.close c

(* Reliable Sends to port 9 at node 3, seqs [first .. first + n - 1]. *)
let send_to_3 c ~tag first n =
  Client.send_batch c ~dest:(Packet.To_node 3) ~dport:9 ~service:Packet.Reliable
    ~bytes:1000 ~tag ~first n

(* The square 0-1-3 / 0-2-3 on free loopback ports. *)
let square_topo () =
  let ports = free_ports 4 in
  let topo_text =
    String.concat "\n"
      (List.mapi
         (fun i p -> Printf.sprintf "node %d 127.0.0.1:%d" i p)
         ports
      @ [ "link 0 1 5"; "link 1 3 5"; "link 0 2 5"; "link 2 3 5" ])
  in
  match Rt.Topofile.parse topo_text with
  | Ok t -> t
  | Error e -> Alcotest.failf "topofile: %s" e

(* Four daemons on the square, a session client on port 8 at node 0 (the
   sender) and one on port 9 at node 3 (the receiver). *)
let square_overlay () =
  let topo = square_topo () in
  let rt = Rt.Runtime.create () in
  let hosts =
    Array.init 4 (fun id -> Rt.Host.create ~config:test_config ~rt ~topo ~id ())
  in
  Array.iter Rt.Host.start hosts;
  (rt, topo, hosts, client rt topo 0 ~sport:8, client rt topo 3 ~sport:9)

let overlay_survives_relay_death () =
  (* Phase 1: clients attach — sender at node 0, receiver at node 3. *)
  let rt, _, hosts, sender, receiver = square_overlay () in
  let send_batch = send_to_3 sender ~tag:"t" in
  let forwarded id = (Node.counters (Rt.Host.node hosts.(id))).Node.forwarded in

  (* Phase 2: the overlay converges (hellos, LSU floods) and
     delivers the flow end-to-end through one of the two relays. *)
  send_batch 0 5;
  check_bool "first batch delivered via overlay" true
    (run_until rt ~budget_ms:3000 (fun () ->
         Client.delivered receiver >= 5 && Client.acks sender >= 5));
  check_bool "a relay carried the first batch" true
    (forwarded 1 + forwarded 2 >= 5);

  (* Phase 3: kill the daemon that is actually on the path. The hello
     timeout sees the silence; the overlay must fail over to the surviving
     relay within the liveness window and keep delivering. *)
  let victim = if forwarded 1 >= forwarded 2 then 1 else 2 in
  let survivor = 3 - victim in
  let victim_forwarded = forwarded victim in
  let survivor_forwarded_before = forwarded survivor in
  Rt.Host.close hosts.(victim);
  Rt.Runtime.run_for rt (Time.ms 400) (* > hello_timeout + hello_interval *);
  send_batch 100 5;
  check_bool "rerouted after the active relay died" true
    (run_until rt ~budget_ms:3000 (fun () -> Client.delivered receiver >= 10));
  check_int "dead relay saw none of the second batch" victim_forwarded
    (forwarded victim);
  check_bool "surviving relay carried the second batch" true
    (forwarded survivor >= survivor_forwarded_before + 5);

  (* Deliver stamps ride the shared monotonic clock: one-way latencies are
     non-negative and sub-second on loopback. *)
  Client.iter_deliveries receiver (fun at pkt ->
      let one_way = at - pkt.Packet.sent_at in
      check_bool "sane one-way latency" true (one_way >= 0 && one_way < 1_000_000));

  close_client rt sender;
  close_client rt receiver;
  let has_no_sessions () =
    (* stats_json ends with ,"sessions":N} — N must drop to 0 *)
    let j = Rt.Host.stats_json hosts.(3) in
    match String.index_opt j ':' with
    | None -> false
    | Some _ ->
      String.length j > 13
      && String.sub j (String.length j - 13) 13 = {|"sessions":0}|}
  in
  check_bool "daemon dropped the closed session" true
    (run_until rt ~budget_ms:500 has_no_sessions);
  Array.iter Rt.Host.close hosts

(* Rt.Clock reads CLOCK_MONOTONIC: it never goes backwards, and it tracks
   real sleeps in nanoseconds. *)
let monotonic_clock () =
  let prev = ref (Rt.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let now = Rt.Clock.now_ns () in
    if Int64.compare now !prev < 0 then
      Alcotest.failf "clock went back: %Ld after %Ld" now !prev;
    prev := now
  done;
  let t0 = Rt.Clock.now_ns () in
  Unix.sleepf 0.05;
  let ms = Int64.to_float (Int64.sub (Rt.Clock.now_ns ()) t0) /. 1e6 in
  if ms < 50. || ms > 500. then
    Alcotest.failf "a 50 ms sleep read %.1f ms" ms

let runtime_scheduling () =
  (* The Runtime satisfies the engine scheduling contract over the wall
     clock: timers fire in order, cancellation works, now() advances. *)
  let rt = Rt.Runtime.create () in
  let t0 = Rt.Runtime.now rt in
  let fired = ref [] in
  let e = Rt.Runtime.engine rt in
  ignore
    (Strovl_sim.Engine.schedule e ~delay:(Time.ms 10) (fun () ->
         fired := 10 :: !fired));
  ignore
    (Strovl_sim.Engine.schedule e ~delay:(Time.ms 30) (fun () ->
         fired := 30 :: !fired));
  let cancelled =
    Strovl_sim.Engine.schedule e ~delay:(Time.ms 20) (fun () ->
        fired := 20 :: !fired)
  in
  Strovl_sim.Engine.cancel e cancelled;
  Rt.Runtime.run_for rt (Time.ms 60);
  Alcotest.(check (list int)) "timers fired in wall-clock order" [ 30; 10 ]
    !fired;
  let elapsed = Rt.Runtime.now rt - t0 in
  check_bool "clock advanced with the wall" true
    (elapsed >= Time.ms 50 && elapsed < Time.sec 5)

(* A burst of reliable packets across the square: every packet arrives
   exactly once and, through the destination's reorder buffer, in order;
   the overlay messages of a runtime turn share datagrams (fewer link
   datagrams than link messages), and no link datagram is larger than
   Ethernet's MTU allows ([Wire.max_frame]). *)
let burst_is_coalesced () =
  let rt, _, hosts, sender, receiver = square_overlay () in
  let send = send_to_3 sender ~tag:"burst" in
  (* One packet first, so that routes have converged before the burst. *)
  send 0 1;
  check_bool "first packet delivered" true
    (run_until rt ~budget_ms:3000 (fun () -> Client.delivered receiver >= 1));
  Metrics.reset ();
  (* 40 Sends per turn: node 0 drains them in one callback, so each turn's
     Data messages on the first hop overflow one frame's 1472 bytes. *)
  let bursts = 6 and per_burst = 40 in
  let total = 1 + (bursts * per_burst) in
  for b = 0 to bursts - 1 do
    send ((b * per_burst) + 1) per_burst;
    Rt.Runtime.run_for rt (Time.ms 5)
  done;
  check_bool "burst delivered" true
    (run_until rt ~budget_ms:5000 (fun () -> Client.delivered receiver >= total));
  Rt.Runtime.run_for rt (Time.ms 50);
  let arrivals = Array.make total 0 and ordered = ref [] in
  let reorder =
    Strovl.Deliver.create (Rt.Runtime.engine rt) Strovl.Deliver.Ordered
      ~deliver:(fun pkt -> ordered := pkt.Packet.seq :: !ordered)
  in
  Client.iter_deliveries receiver (fun _ pkt ->
      let seq = pkt.Packet.seq in
      if seq >= 0 && seq < total then arrivals.(seq) <- arrivals.(seq) + 1;
      Strovl.Deliver.push reorder pkt);
  check_bool "every packet arrived exactly once" true
    (Array.for_all (fun n -> n = 1) arrivals);
  Alcotest.(check (list int))
    "delivered in order" (List.init total Fun.id) (List.rev !ordered);
  let sum f = Array.fold_left (fun acc h -> acc + f (Rt.Host.id h)) 0 hosts in
  let labels id = [ ("node", string_of_int id) ] in
  let frames id =
    Metrics.histogram ~labels:(labels id) "strovl_rt_link_frame_bytes"
  in
  let datagrams = sum (fun id -> Metrics.Histogram.count (frames id)) in
  let msgs =
    sum (fun id ->
        Metrics.find_counter ~labels:(labels id) "strovl_rt_tx_link_msgs_total")
  in
  let largest =
    Array.fold_left
      (fun acc h -> max acc (Metrics.Histogram.max (frames (Rt.Host.id h))))
      0 hosts
  in
  check_bool "link traffic flowed" true (datagrams > 0);
  check_bool
    (Printf.sprintf "fewer link datagrams (%d) than link messages (%d)"
       datagrams msgs)
    true (datagrams < msgs);
  check_bool
    (Printf.sprintf "largest link datagram %d <= %d bytes" largest
       Wire.max_frame)
    true
    (largest <= Wire.max_frame && Wire.max_frame = 1472);
  check_bool "link frames carry many messages" true
    (largest > Wire.max_frame / 2);
  Array.iter Rt.Host.close hosts;
  close_client rt sender;
  close_client rt receiver

(* One forged link datagram naming a real neighbour as its source and an
   lseq 20 million past the window: the relay drops and counts it instead
   of scheduling a NACK timer per skipped slot, nothing raises out of the
   runtime, and the flow keeps going. *)
let forged_lseq_is_dropped () =
  let rt, topo, hosts, sender, receiver = square_overlay () in
  let send_batch = send_to_3 sender ~tag:"f" in
  let forwarded id = (Node.counters (Rt.Host.node hosts.(id))).Node.forwarded in
  send_batch 0 5;
  check_bool "first batch delivered" true
    (run_until rt ~budget_ms:3000 (fun () -> Client.delivered receiver >= 5));
  (* The relay on the path, and its link from node 0 (square_topo's links
     are 0-1, 1-3, 0-2, 2-3 in that order). *)
  let relay = if forwarded 1 >= forwarded 2 then 1 else 2 in
  let link = if relay = 1 then 0 else 2 in
  let drops () =
    Metrics.find_counter
      ~labels:[ ("proto", "reliable") ]
      "strovl_link_window_drops_total"
  in
  let drops_before = drops () in
  let pkt =
    Packet.make
      ~flow:{ Packet.f_src = 0; f_sport = 8; f_dest = Packet.To_node 3; f_dport = 9 }
      ~routing:Packet.Link_state ~service:Packet.Reliable ~seq:999
      ~sent_at:(Rt.Runtime.now rt) ~bytes:1000 ()
  in
  let forged =
    Wire.Dg_msg
      {
        src = 0;
        link;
        msg =
          Strovl.Msg.Data
            {
              cls = Packet.service_class Packet.Reliable;
              lseq = 20_000_000;
              pkt;
              auth = None;
            };
      }
  in
  let attacker = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  ignore
    (Rt.Udp.sendto attacker (Rt.Topofile.addr topo relay)
       (Wire.encode_datagram forged));
  Rt.Runtime.run_for rt (Time.ms 50);
  check_int "forged datagram dropped and counted" (drops_before + 1) (drops ());
  check_bool "no NACK timer storm" true
    (Strovl_sim.Engine.pending_events (Rt.Runtime.engine rt) < 10_000);
  let relayed_before = forwarded 1 + forwarded 2 in
  send_batch 100 5;
  check_bool "flow keeps being delivered" true
    (run_until rt ~budget_ms:3000 (fun () -> Client.delivered receiver >= 10));
  check_bool "relays keep forwarding" true
    (forwarded 1 + forwarded 2 >= relayed_before + 5);
  let forged_arrivals = ref 0 in
  Client.iter_deliveries receiver (fun _ pkt ->
      if pkt.Packet.seq = 999 then incr forged_arrivals);
  check_int "the forged packet never arrived" 0 !forged_arrivals;
  Array.iter Rt.Host.close hosts;
  Rt.Udp.close attacker;
  close_client rt sender;
  close_client rt receiver

(* No SO_REUSEADDR: a second socket on a live daemon's port must fail
   rather than silently split the daemon's datagrams. *)
let duplicate_bind_refused () =
  let live = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let port = Rt.Udp.port live in
  let refused f =
    match f () with
    | () -> false
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> true
  in
  check_bool "second Udp.bind raises" true
    (refused (fun () -> Rt.Udp.close (Rt.Udp.bind ~host:"127.0.0.1" ~port)));
  let topo =
    match
      Rt.Topofile.parse
        (Printf.sprintf "node 0 127.0.0.1:%d\nnode 1 127.0.0.1:%d\nlink 0 1"
           port (List.hd (free_ports 1)))
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "topofile: %s" e
  in
  let rt = Rt.Runtime.create () in
  check_bool "Host.create on a live port raises" true
    (refused (fun () -> Rt.Host.close (Rt.Host.create ~rt ~topo ~id:0 ())));
  Rt.Udp.close live;
  (* Once the holder closes, the port binds again. *)
  let again = Rt.Udp.bind ~host:"127.0.0.1" ~port in
  check_int "rebound" port (Rt.Udp.port again);
  Rt.Udp.close again

(* Within a turn, ready callbacks run last-registered first, and
   Runtime.step re-looks up each readable descriptor, so a callback
   unwatched by an earlier callback in the same turn does not fire. *)
let unwatched_callback_skipped () =
  let rt = Rt.Runtime.create () in
  let a = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let b = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let addr s = Unix.ADDR_INET (Unix.inet_addr_loopback, Rt.Udp.port s) in
  let fired = ref [] in
  let watch name me other =
    Rt.Runtime.watch rt (Rt.Udp.fd me) (fun () ->
        fired := name :: !fired;
        Rt.Udp.drain me ~f:(fun _ _ -> ());
        Rt.Runtime.unwatch rt (Rt.Udp.fd other))
  in
  Rt.Runtime.watch rt (Rt.Udp.fd a) (fun () -> Alcotest.fail "replaced callback ran");
  watch "a" a b;
  watch "b" b a;
  ignore (Rt.Udp.sendto a (addr b) "x");
  ignore (Rt.Udp.sendto b (addr a) "x");
  let readable, _, _ = Unix.select [ Rt.Udp.fd a; Rt.Udp.fd b ] [] [] 1.0 in
  check_int "both sockets readable" 2 (List.length readable);
  Rt.Runtime.step rt ~deadline:(Rt.Runtime.now rt + Time.ms 20);
  Alcotest.(check (list string)) "only the last registered fired" [ "b" ] !fired;
  Rt.Runtime.step rt ~deadline:(Rt.Runtime.now rt + Time.ms 20);
  check_int "the unwatched one stays silent" 1 (List.length !fired);
  Rt.Udp.close a;
  Rt.Udp.close b

(* ------------------------- the batched send path ------------------------ *)

(* The send planner. Runs cover the queue in order; each has one address
   and one length, at most Udp.max_segments datagrams, and more than one
   only for a length of 1..Wire.max_frame bytes and a total of at most
   Udp.max_run_bytes. With segmentation on, runs are greedy: the next run
   could not have been appended to the one before it. *)
let check_plan ~segment addr len n =
  let runs = Array.make (3 * max n 1) (-1) in
  let nruns = Rt.Udp.plan ~segment addr len n runs in
  let ok = ref (nruns >= 0 && nruns <= n) and next = ref 0 in
  for k = 0 to nruns - 1 do
    let first = runs.(3 * k) and size = runs.((3 * k) + 1)
    and segs = runs.((3 * k) + 2) in
    let one_run =
      first = !next && segs >= 1 && first + segs <= n
      && segs <= Rt.Udp.max_segments
      && (segs = 1
         || segment && size > 0 && size <= Wire.max_frame
            && segs * size <= Rt.Udp.max_run_bytes)
      && List.for_all
           (fun i -> len.(i) = size && addr.(i) = addr.(first))
           (List.init segs (fun j -> first + j))
    in
    let greedy =
      k = 0
      || (not segment)
      ||
      let pfirst = runs.(3 * (k - 1)) and psegs = runs.((3 * (k - 1)) + 2) in
      not
        (addr.(first) = addr.(pfirst)
        && size = len.(pfirst)
        && size > 0 && size <= Wire.max_frame
        && psegs < Rt.Udp.max_segments
        && (psegs + 1) * size <= Rt.Udp.max_run_bytes)
    in
    if not (one_run && greedy) then ok := false;
    next := first + segs
  done;
  !ok && !next = n

(* Blocks of repeated (address, length): long runs, address and length
   changes, zero-length and over-MTU datagrams. *)
let gen_queue =
  QCheck.Gen.(
    let block =
      map3
        (fun a l k -> (a, l, k))
        (int_bound 2)
        (oneof
           [
             oneofl [ 0; 14; Wire.max_frame; Wire.max_frame + 1; 3000 ];
             int_range 1 1100;
           ])
        (oneof [ int_range 1 3; int_range 60 140 ])
    in
    map
      (fun blocks ->
        let dgs =
          List.concat_map (fun (a, l, k) -> List.init k (fun _ -> (a, l))) blocks
        in
        let dgs = List.filteri (fun i _ -> i < Rt.Udp.max_queue) dgs in
        let addrs =
          [|
            Unix.ADDR_INET (Unix.inet_addr_loopback, 9000);
            Unix.ADDR_INET (Unix.inet_addr_loopback, 9001);
            Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.2", 9000);
          |]
        in
        ( Array.of_list (List.map (fun (a, _) -> addrs.(a)) dgs),
          Array.of_list (List.map snd dgs) ))
      (list_size (int_range 0 8) block))

let qcheck_plan =
  QCheck.Test.make ~count:500 ~name:"send plan covers the queue in runs"
    (QCheck.make
       ~print:(fun (_, len) ->
         String.concat "," (Array.to_list (Array.map string_of_int len)))
       gen_queue)
    (fun (addr, len) ->
      let n = Array.length len in
      check_plan ~segment:true addr len n && check_plan ~segment:false addr len n)

(* Two sockets on loopback; [b] gets a large receive buffer so nothing a
   test flushes at it is lost. *)
let socket_pair () =
  let a = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let b = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  Unix.setsockopt_int (Rt.Udp.fd b) Unix.SO_RCVBUF (1 lsl 20);
  (a, b, Unix.ADDR_INET (Unix.inet_addr_loopback, Rt.Udp.port b))

let received sock =
  let got = ref [] in
  ignore (Unix.select [ Rt.Udp.fd sock ] [] [] 0.2);
  let rec more () =
    Rt.Udp.drain sock ~f:(fun data _ -> got := data :: !got);
    match Unix.select [ Rt.Udp.fd sock ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> more ()
  in
  more ();
  List.rev !got

(* Link protocols that never order by lseq wrap it at the wire's u32
   width, so a long-running daemon keeps transmitting: a Best Effort link
   whose counter stands at 2^32 - 2 sends 2^32 - 1, then 0, then 1 through
   the daemon's link path. A message whose lseq does not fit (where a
   Reliable link would be after 2^32 messages) is dropped and counted, and
   the daemon keeps sending. The far end is a bare socket on node 1's
   address, so the test sees exactly the link frames node 0 sent. *)
let lseq_wrap_keeps_daemon_up () =
  let p0, p1 =
    match free_ports 2 with [ a; b ] -> (a, b) | _ -> assert false
  in
  let topo =
    match
      Rt.Topofile.parse
        (Printf.sprintf "node 0 127.0.0.1:%d\nnode 1 127.0.0.1:%d\nlink 0 1 5"
           p0 p1)
    with
    | Ok topo -> topo
    | Error e -> Alcotest.failf "topofile: %s" e
  in
  let rt = Rt.Runtime.create () in
  let host = Rt.Host.create ~config:test_config ~rt ~topo ~id:0 () in
  Rt.Host.start host;
  let peer = Rt.Udp.bind ~host:"127.0.0.1" ~port:p1 in
  Unix.setsockopt_int (Rt.Udp.fd peer) Unix.SO_RCVBUF (1 lsl 20);
  let xmit = Rt.Host.link_xmit host ~link:0 in
  let be_sent = ref 0 in
  let be =
    Strovl.Best_effort.create ~lseq:(0xffff_ffff - 1)
      {
        Strovl.Lproto.engine = Rt.Runtime.engine rt;
        node = 0;
        link = 0;
        xmit =
          (fun msg ->
            incr be_sent;
            xmit msg);
        up = ignore;
        try_up = (fun _ -> true);
        bandwidth_bps = 10_000_000;
        rtt_hint = Time.ms 5;
      }
  in
  let pkt seq =
    Packet.make
      ~flow:{ Packet.f_src = 0; f_sport = 1; f_dest = Packet.To_node 1; f_dport = 2 }
      ~routing:Packet.Link_state ~service:Packet.Best_effort ~seq
      ~sent_at:(Rt.Runtime.now rt) ~bytes:100 ()
  in
  let unencodable () =
    Metrics.find_counter ~labels:[ ("node", "0") ] "strovl_rt_tx_unencodable_total"
  in
  let before = unencodable () in
  Strovl.Best_effort.send be (pkt 1);
  Strovl.Best_effort.send be (pkt 2);
  xmit
    (Strovl.Msg.Data
       {
         cls = Packet.service_class Packet.Reliable;
         lseq = 1 lsl 32;
         pkt = pkt 3;
         auth = None;
       });
  Strovl.Best_effort.send be (pkt 4);
  Rt.Runtime.run_for rt (Time.ms 20);
  let data =
    List.concat_map
      (fun d ->
        match Wire.decode_frame d with
        | Ok (Wire.Fr_link { msgs; _ }) ->
          List.filter_map
            (function
              | Strovl.Msg.Data { lseq; pkt; _ } -> Some (pkt.Packet.seq, lseq)
              | _ -> None)
            msgs
        | Ok (Wire.Fr_session _) | Error _ -> Alcotest.fail "not a link frame")
      (received peer)
  in
  Alcotest.(check (list (pair int int)))
    "(seq, lseq) sent" [ (1, 0xffff_ffff); (2, 0); (4, 1) ] data;
  check_int "the oversized lseq was dropped and counted" (before + 1)
    (unencodable ());
  check_int "sent by Best Effort" 3 !be_sent;
  Rt.Host.close host;
  Rt.Udp.close peer

(* Whatever is queued arrives as queued: one datagram each, with its own
   length and bytes, in order, across segmented runs, singles over the MTU
   and a second destination. A full queue flushes itself; a flush
   allocates nothing; a closed socket sends nothing. *)
let queue_and_flush () =
  let a, b, to_b = socket_pair () in
  let c = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let to_c = Unix.ADDR_INET (Unix.inet_addr_loopback, Rt.Udp.port c) in
  let datagram i len = String.init len (fun j -> Char.chr ((i + j) land 0xff)) in
  let plan = [ (90, 30, to_b); (1, 30, to_c); (2, 1500, to_b); (30, 40, to_b) ] in
  let expected = ref [] and i = ref 0 and calls = ref 0 in
  List.iter
    (fun (k, len, addr) ->
      for _ = 1 to k do
        let d = datagram !i len in
        incr i;
        calls := !calls + Rt.Udp.queue a addr (Bytes.of_string d) len;
        if addr == to_b then expected := d :: !expected
      done)
    plan;
  check_int "no flush while there is room" 0 !calls;
  check_int "one sendmmsg call" 1 (Rt.Udp.flush a);
  check_int "an empty queue makes no call" 0 (Rt.Udp.flush a);
  Alcotest.(check (list string))
    "every datagram on its own, in order" (List.rev !expected) (received b);
  Alcotest.(check (list string)) "the other address" [ datagram 90 30 ] (received c);
  (* One more than a queue holds: the last queue call flushes first. *)
  let buf = Bytes.make 20 'q' in
  for _ = 1 to Rt.Udp.max_queue do
    calls := !calls + Rt.Udp.queue a to_b buf 20
  done;
  check_int "a queue's worth fits" 0 !calls;
  check_int "full queue flushed" 1 (Rt.Udp.queue a to_b buf 20);
  check_int "the rest" 1 (Rt.Udp.flush a);
  check_int "all arrived" (Rt.Udp.max_queue + 1) (List.length (received b));
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    for _ = 1 to 10 do
      ignore (Rt.Udp.queue a to_b buf 20)
    done;
    ignore (Rt.Udp.flush a)
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "queue and flush allocate nothing (%.0f words)" words)
    true (words < 100.);
  ignore (received b);
  ignore (Rt.Udp.queue a to_b buf 20);
  Rt.Udp.close a;
  check_int "closed: queue is a no-op" 0 (Rt.Udp.queue a to_b buf 20);
  check_int "closed: flush is a no-op" 0 (Rt.Udp.flush a);
  check_int "the queued datagram was dropped" 0 (List.length (received b));
  Rt.Udp.close b;
  Rt.Udp.close c

external set_no_check : Unix.file_descr -> unit = "strovl_test_set_no_check"

(* A socket whose segmented sends the kernel refuses (SO_NO_CHECK): the
   refused flush still delivers every datagram, singly and in order, and
   the socket stops segmenting, so the next flush is one plain sendmmsg. *)
let segmentation_fallback () =
  let a, b, to_b = socket_pair () in
  set_no_check (Rt.Udp.fd a);
  let burst tag =
    let sent = List.init 100 (fun i -> Printf.sprintf "%s%04d" tag i) in
    List.iter
      (fun d -> ignore (Rt.Udp.queue a to_b (Bytes.of_string d) (String.length d)))
      sent;
    (sent, Rt.Udp.flush a)
  in
  let sent, calls = burst "x" in
  check_bool (Printf.sprintf "refused, then resent singly (%d calls)" calls) true
    (calls >= 2);
  Alcotest.(check (list string)) "every datagram arrived once, in order" sent
    (received b);
  let sent, calls = burst "y" in
  check_int "no longer segmenting: one call" 1 calls;
  Alcotest.(check (list string)) "and again" sent (received b);
  Rt.Udp.close a;
  Rt.Udp.close b

(* One daemon, no links, on a free loopback port. *)
let lone_host rt =
  match
    Rt.Topofile.parse
      (Printf.sprintf "node 0 127.0.0.1:%d" (List.hd (free_ports 1)))
  with
  | Ok topo -> (topo, Rt.Host.create ~config:test_config ~rt ~topo ~id:0 ())
  | Error e -> Alcotest.failf "topofile: %s" e

let stat host key =
  let j = Rt.Host.stats_json host in
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if String.sub j i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length j && j.[!stop] >= '0' && j.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub j start (!stop - start))

(* Best-effort Sends to port [dport] of the lone daemon (node 0), seqs
   [first .. first + n - 1]. *)
let send_to_0 c ~dport first n =
  Client.send_batch c ~dest:(Packet.To_node 0) ~dport ~service:Packet.Best_effort
    ~bytes:100 ~tag:"b" ~first n

(* A burst of Sends larger than one send queue and than one segmented
   run: every Sent reply comes back exactly once, as one frame per
   datagram, in seq order, and the daemon made fewer sendmmsg calls than
   it sent datagrams. The replies are read off the client's socket raw. *)
let session_replies_batched () =
  let rt = Rt.Runtime.create () in
  let topo, host = lone_host rt in
  Rt.Host.start host;
  let sock = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  Unix.setsockopt_int (Rt.Udp.fd sock) Unix.SO_RCVBUF (1 lsl 20);
  let c = Client.create sock ~daemon:(Rt.Topofile.addr topo 0) ~sport:8 in
  check_bool "session open" true (Client.open_session c ~wait:(step rt) <> None);
  let replies = ref [] in
  let collect () =
    Rt.Udp.drain sock ~f:(fun data _ -> replies := data :: !replies)
  in
  let tx0 = stat host "tx_datagrams" and batches0 = stat host "tx_batches" in
  let n = 250 in
  check_bool "more than one queue" true (n > Rt.Udp.max_queue);
  send_to_0 c ~dport:1 0 n;
  ignore
    (run_until rt ~budget_ms:3000 (fun () ->
         collect ();
         List.length !replies >= n));
  Rt.Runtime.run_for rt (Time.ms 50);
  collect ();
  let seqs =
    List.rev_map
      (fun data ->
        match Wire.decode_datagram data with
        | Ok (Wire.Dg_session (Wire.Session.Sent { sport = 8; seq; _ })) -> seq
        | _ -> Alcotest.failf "not one Sent frame: %S" data)
      !replies
  in
  Alcotest.(check (list int)) "every Sent once, in seq order" (List.init n Fun.id) seqs;
  let tx = stat host "tx_datagrams" - tx0
  and batches = stat host "tx_batches" - batches0 in
  check_int "tx_datagrams counts each reply" n tx;
  check_bool
    (Printf.sprintf "batched: %d sendmmsg calls for %d datagrams" batches tx)
    true
    (batches >= 2 && batches < tx);
  Rt.Host.close host;
  Client.close c

(* Host.close with replies still queued: the pending flush finds nothing,
   raises nothing, and no datagram leaves afterwards. *)
let close_drops_queue () =
  let rt = Rt.Runtime.create () in
  let topo, host = lone_host rt in
  Rt.Host.start host;
  let c =
    Client.create (Rt.Udp.bind ~host:"127.0.0.1" ~port:0)
      ~daemon:(Rt.Topofile.addr topo 0) ~sport:8
  in
  check_bool "session open" true (Client.open_session c ~wait:(step rt) <> None);
  let rx0 = stat host "rx_datagrams" in
  send_to_0 c ~dport:1 0 5;
  (* A turn reads the Sends and queues their replies; the flush would come
     at the start of the next turn. *)
  let deadline = Rt.Clock.now_us () + 2_000_000 in
  while stat host "rx_datagrams" = rx0 && Rt.Clock.now_us () < deadline do
    Rt.Runtime.step rt ~deadline:(Rt.Runtime.now rt + Time.ms 20)
  done;
  check_bool "the Sends were read" true (stat host "rx_datagrams" > rx0);
  Rt.Host.close host;
  Rt.Runtime.run_for rt (Time.ms 50);
  check_bool "nothing sent after close" true
    (match Unix.select [ Client.fd c ] [] [] 0.1 with
    | [], _, _ -> true
    | _ -> false);
  Client.close c

(* A session binds to its opener: a Close, Send, Join or Leave for sport 9
   from another socket is counted as misdirected and ignored — the session
   and its group memberships stay, nothing is sent or acknowledged — and
   the receiver keeps getting its packets. *)
let close_from_stranger_ignored () =
  let rt, topo, hosts, sender, receiver = square_overlay () in
  let send_batch = send_to_3 sender ~tag:"c" in
  send_batch 0 5;
  check_bool "first batch delivered" true
    (run_until rt ~budget_ms:3000 (fun () -> Client.delivered receiver >= 5));
  let misdirected () =
    Metrics.find_counter ~labels:[ ("node", "3") ] "strovl_rt_misdirected_total"
  in
  let before = misdirected () in
  let stranger = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let from_stranger frame =
    ignore
      (Rt.Udp.sendto stranger (Rt.Topofile.addr topo 3)
         (Wire.encode_datagram (Wire.Dg_session frame)))
  in
  from_stranger (Wire.Session.Close { sport = 9 });
  Rt.Runtime.run_for rt (Time.ms 50);
  check_int "the stranger's Close is misdirected" (before + 1) (misdirected ());
  check_int "the session survives" 1 (stat hosts.(3) "sessions");
  let ports group = Strovl.Group.local_ports (Node.group (Rt.Host.node hosts.(3))) ~group in
  Client.join receiver 5;
  check_bool "the opener joins" true
    (run_until rt ~budget_ms:500 (fun () -> ports 5 = [ 9 ]));
  let delivers = Client.delivered receiver in
  let delivered () = (Node.counters (Rt.Host.node hosts.(3))).Node.delivered in
  let delivered0 = delivered () in
  List.iter from_stranger
    [
      Wire.Session.Send
        {
          sport = 9;
          dest = Packet.To_node 3;
          dport = 9;
          service = Packet.Best_effort;
          seq = 777;
          bytes = 100;
          tag = "s";
        };
      Wire.Session.Join { group = 6; sport = 9 };
      Wire.Session.Leave { group = 5; sport = 9 };
    ];
  Rt.Runtime.run_for rt (Time.ms 50);
  check_int "the stranger's Send, Join and Leave are misdirected" (before + 4)
    (misdirected ());
  check_bool "still in group 5, not in group 6" true (ports 5 = [ 9 ] && ports 6 = []);
  check_int "nothing originated or delivered" delivered0 (delivered ());
  check_int "the receiver got nothing" delivers (Client.delivered receiver);
  check_bool "the stranger got no reply" true (Rt.Udp.recvfrom stranger = None);
  send_batch 100 5;
  check_bool "and keeps delivering" true
    (run_until rt ~budget_ms:3000 (fun () -> Client.delivered receiver >= 10));
  Client.leave receiver 5;
  check_bool "the opener leaves" true
    (run_until rt ~budget_ms:500 (fun () -> ports 5 = []));
  close_client rt receiver;
  check_bool "the opener's Close works" true
    (run_until rt ~budget_ms:500 (fun () -> stat hosts.(3) "sessions" = 0));
  check_int "and is not misdirected" (before + 4) (misdirected ());
  Array.iter Rt.Host.close hosts;
  Rt.Udp.close stranger;
  close_client rt sender

(* --------------------------- the session client --------------------------- *)

let address_of c =
  match Unix.getsockname (Client.fd c) with
  | Unix.ADDR_INET (_, port) -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  | Unix.ADDR_UNIX _ -> assert false

(* The client's half of the binding: Deliver, Sent and Open_ok frames from
   a socket other than its daemon's are dropped and counted, and reach
   neither the deliveries nor the acks. The same frames from the daemon
   do. *)
let client_bound_to_daemon () =
  let rt = Rt.Runtime.create () in
  let topo, host = lone_host rt in
  Rt.Host.start host;
  let c = client rt topo 0 ~sport:8 in
  let to_client = address_of c in
  let stranger = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let pkt =
    Packet.make
      ~flow:{ Packet.f_src = 0; f_sport = 1; f_dest = Packet.To_node 0; f_dport = 8 }
      ~routing:Packet.Link_state ~service:Packet.Best_effort ~seq:5
      ~sent_at:(Rt.Runtime.now rt) ~bytes:100 ()
  in
  let dropped0 = Client.dropped c and frames0 = Client.frames c in
  List.iter
    (fun frame ->
      ignore
        (Rt.Udp.sendto stranger to_client
           (Wire.encode_datagram (Wire.Dg_session frame))))
    [
      Wire.Session.Deliver { sport = 8; at = 0; pkt };
      Wire.Session.Sent { sport = 8; seq = 5; accepted = false };
      Wire.Session.Open_ok { node = 7; sport = 8 };
    ];
  check_bool "the stranger's frames are dropped" true
    (run_until rt ~budget_ms:1000 (fun () -> Client.dropped c >= dropped0 + 3));
  check_int "each counted once" (dropped0 + 3) (Client.dropped c);
  check_int "none dispatched" frames0 (Client.frames c);
  check_int "no delivery" 0 (Client.delivered c);
  Client.iter_deliveries c (fun _ _ -> Alcotest.fail "a stranger's Deliver was handed out");
  check_int "no ack" 0 (Client.acks c);
  check_int "no refusal" 0 (Client.refused c);
  (* A Send to the client's own port: the daemon's Sent and Deliver count. *)
  send_to_0 c ~dport:8 0 1;
  check_bool "the daemon's frames are dispatched" true
    (run_until rt ~budget_ms:1000 (fun () ->
         Client.acks c = 1 && Client.delivered c = 1));
  check_int "and nothing more dropped" (dropped0 + 3) (Client.dropped c);
  Rt.Host.close host;
  Rt.Udp.close stranger;
  close_client rt c

(* A stats query waits for the Stats frame itself: the Sent and Deliver
   replies to earlier Sends, already on their way when the query goes out,
   do not end the wait, and every one of them is counted. *)
let stats_waits_for_reply () =
  let rt = Rt.Runtime.create () in
  let topo, host = lone_host rt in
  Rt.Host.start host;
  let c =
    Client.create (Rt.Udp.bind ~host:"127.0.0.1" ~port:0)
      ~daemon:(Rt.Topofile.addr topo 0) ~sport:8
  in
  check_bool "session open" true (Client.open_session c ~wait:(step rt) <> None);
  let n = 20 in
  let tx0 = stat host "tx_datagrams" in
  send_to_0 c ~dport:8 0 n;
  check_bool "the daemon sent a Sent and a Deliver per Send" true
    (run_until rt ~budget_ms:2000 (fun () -> stat host "tx_datagrams" >= tx0 + (2 * n)));
  check_int "none of them read yet" 0 (Client.acks c + Client.delivered c);
  (match Client.stats c ~wait:(step rt) ~deadline:(Rt.Clock.now_us () + 2_000_000) with
  | Some json ->
    check_bool "the daemon's stats" true
      (String.length json > 9 && String.sub json 0 9 = {|{"node":0|})
  | None -> Alcotest.fail "no stats reply");
  check_int "the Sents that came first were counted" n (Client.acks c);
  check_int "and the Delivers" n (Client.delivered c);
  let seqs = ref [] in
  Client.iter_deliveries c (fun _ pkt -> seqs := pkt.Packet.seq :: !seqs);
  Alcotest.(check (list int)) "handed out in order" (List.init n Fun.id) (List.rev !seqs);
  Rt.Host.close host;
  Client.close c

(* ------------------------ the coalesced receive path ------------------------ *)

(* A link frame on link 0, which a lone daemon has not got: whole, it is
   well-formed but misdirected. The magic pair "So" occurs only at its
   start, so no segment that starts inside it can decode. *)
let probe_frame =
  Wire.encode_datagram
    (Wire.Dg_msg
       { src = 1; link = 0; msg = Strovl.Msg.Hello { hseq = 7; sent_at = 1234 } })

let segments_of buf n ~gso_size ~truncated =
  if truncated then []
  else if gso_size <= 0 || gso_size >= n then [ Bytes.sub_string buf 0 n ]
  else
    List.init
      ((n + gso_size - 1) / gso_size)
      (fun i -> Bytes.sub_string buf (i * gso_size) (min gso_size (n - (i * gso_size))))

(* Receives of [n] bytes of back-to-back probe frames (the last one cut
   when [n] is not a multiple of its length), split at random segment
   sizes: short last segments, 0, [n] and over, one over Wire.max_frame,
   the frame length and its multiples. *)
let gen_receive =
  QCheck.Gen.(
    let l = String.length probe_frame in
    oneof [ int_range 0 64; int_range 0 4000; int_range 60000 65535 ]
    >>= fun n ->
    oneof
      [
        return 0;
        return n;
        map (fun k -> n + k) (int_range 1 100);
        return (Wire.max_frame + 1);
        int_range 1 (max 1 n);
        map (fun k -> k * l) (int_range 1 4);
        map (fun k -> (k * l) + 1) (int_range 0 4);
      ]
    >>= fun gso_size -> map (fun truncated -> (n, gso_size, truncated)) bool)

(* Segments cover the receive in order and byte-exact, [ceil (n / g)] of
   them for [0 < g < n], one otherwise, none when truncated; each carries
   the receive's source. Fed to a daemon, each segment that is one whole
   probe frame is misdirected, and every other one (a frame cut short, a
   segment starting mid-frame, or more than one frame) is bad. *)
let receive_split () =
  let rt = Rt.Runtime.create () in
  let _, host = lone_host rt in
  let from = Unix.ADDR_INET (Unix.inet_addr_loopback, 4242) in
  let l = String.length probe_frame in
  let prop (n, gso_size, truncated) =
    let buf = Bytes.init n (fun i -> probe_frame.[i mod l]) in
    let got = ref [] in
    Rt.Udp.split buf n ~gso_size ~truncated from ~f:(fun d a ->
        got := (d, a) :: !got);
    let got = List.rev !got in
    let count = List.length got in
    let bad0 = stat host "bad_datagrams" and mis0 = stat host "misdirected" in
    List.iter (fun (d, a) -> Rt.Host.handle_datagram host d a) got;
    let whole = List.length (List.filter (fun (d, _) -> d = probe_frame) got) in
    List.map fst got = segments_of buf n ~gso_size ~truncated
    && List.for_all (fun (_, a) -> a == from) got
    && String.concat "" (List.map fst got) = (if truncated then "" else Bytes.to_string buf)
    && stat host "bad_datagrams" - bad0 = count - whole
    && stat host "misdirected" - mis0 = whole
  in
  let magic_at i = probe_frame.[i] = 'S' && probe_frame.[i + 1] = 'o' in
  check_bool "the magic pair only at the start" true
    (magic_at 0 && not (List.exists magic_at (List.init (l - 2) (fun i -> i + 1))));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"receive split"
       (QCheck.make
          ~print:(fun (n, g, t) -> Printf.sprintf "n=%d gso_size=%d truncated=%b" n g t)
          gen_receive)
       prop);
  Rt.Host.close host

(* [k] distinct datagrams of [len] bytes, numbered from [first]. *)
let numbered first k len =
  List.init k (fun i ->
      let tag = Printf.sprintf "%05d:" (first + i) in
      String.init len (fun j ->
          if j < String.length tag then tag.[j] else Char.chr ((first + i + j) land 0xff)))

(* Queues [dgs] on [a] for [addr] and flushes them: one segmented run. *)
let send_run a addr dgs =
  List.iter (fun d -> ignore (Rt.Udp.queue a addr (Bytes.of_string d) (String.length d))) dgs;
  ignore (Rt.Udp.flush a);
  dgs

let wait_readable sock =
  check_bool "readable" true
    (match Unix.select [ Rt.Udp.fd sock ] [] [] 1.0 with
    | [], _, _ -> false
    | _ -> true)

(* A 32- and a 64-segment run of 200-byte datagrams come out of one drain
   as 96 datagrams, byte-exact and in order, from 2 receives when the
   kernel took UDP_GRO. A run of the largest size a flush sends, 64
   segments of 1023 bytes (65472 bytes), fits the receive buffer whole. *)
let coalesced_drain () =
  let a, b, to_b = socket_pair () in
  let from_a = Unix.ADDR_INET (Unix.inet_addr_loopback, Rt.Udp.port a) in
  let sent = send_run a to_b (numbered 0 32 200) in
  let sent = sent @ send_run a to_b (numbered 32 64 200) in
  wait_readable b;
  let batches0 = Rt.Udp.rx_batches b in
  let got = ref [] in
  Rt.Udp.drain b ~f:(fun d src -> got := (d, src) :: !got);
  Alcotest.(check (list string)) "96 datagrams in order" sent (List.rev_map fst !got);
  check_bool "each from the sender" true (List.for_all (fun (_, src) -> src = from_a) !got);
  if Rt.Udp.gro b then check_int "two receives" 2 (Rt.Udp.rx_batches b - batches0);
  let big = send_run a to_b (numbered 96 Rt.Udp.max_segments 1023) in
  check_bool "the largest run a flush sends" true
    (Rt.Udp.max_segments * 1023 <= Rt.Udp.max_run_bytes
    && Rt.Udp.max_segments * 1023 > Rt.Udp.max_run_bytes - 1023);
  Alcotest.(check (list string)) "a maximal run, whole" big (received b);
  check_int "nothing truncated" 0 (Rt.Udp.truncated b);
  Rt.Udp.close a;
  Rt.Udp.close b

(* recvfrom returns the same 96 datagrams one per call, keeping the rest
   of each receive for the next calls; a drain after a partial recvfrom
   goes on where it stopped. *)
let coalesced_recvfrom () =
  let a, b, to_b = socket_pair () in
  let sent = send_run a to_b (numbered 0 32 200) in
  let sent = sent @ send_run a to_b (numbered 32 64 200) in
  wait_readable b;
  let rec take acc =
    match Rt.Udp.recvfrom b with Some (d, _) -> take (d :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string)) "96 datagrams, one per call" sent (take []);
  let sent = send_run a to_b (numbered 0 32 200) in
  wait_readable b;
  let first =
    match Rt.Udp.recvfrom b with Some (d, _) -> d | None -> Alcotest.fail "nothing"
  in
  let rest = ref [] in
  Rt.Udp.drain b ~f:(fun d _ -> rest := d :: !rest);
  Alcotest.(check (list string)) "drain goes on after recvfrom" sent (first :: List.rev !rest);
  Rt.Udp.close a;
  Rt.Udp.close b

(* A drain of another socket from inside [f], while the outer drain still
   has segments of its receive to hand on, corrupts neither. *)
let nested_drain () =
  let a, b, to_b = socket_pair () in
  let c = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let to_c = Unix.ADDR_INET (Unix.inet_addr_loopback, Rt.Udp.port c) in
  let outer_sent = send_run a to_b (numbered 0 64 200) in
  let inner_sent = send_run a to_c (numbered 1000 32 300) in
  wait_readable b;
  wait_readable c;
  let outer = ref [] and inner = ref [] in
  Rt.Udp.drain b ~f:(fun d _ ->
      outer := d :: !outer;
      if !inner = [] then Rt.Udp.drain c ~f:(fun d _ -> inner := d :: !inner));
  Alcotest.(check (list string)) "the inner drain" inner_sent (List.rev !inner);
  Alcotest.(check (list string)) "the outer drain" outer_sent (List.rev !outer);
  Rt.Udp.close a;
  Rt.Udp.close b;
  Rt.Udp.close c

(* Whatever comes from the daemon's address, the client never raises and
   accounts each datagram exactly once: a daemon-to-client frame is
   dispatched; a client-to-daemon frame, every strict prefix of an encoded
   frame and a link frame are dropped; random bytes go one way or the
   other. The "daemon" is a bare socket, and the client runs as a lone
   one: select on its socket, then poll. *)
let client_accounts_every_datagram () =
  let daemon = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let c =
    Client.create (Rt.Udp.bind ~host:"127.0.0.1" ~port:0)
      ~daemon:(Unix.ADDR_INET (Unix.inet_addr_loopback, Rt.Udp.port daemon))
      ~sport:8
  in
  let to_client = address_of c in
  (* [Some dispatched] when [d] was accounted exactly once. *)
  let feed d =
    let frames = Client.frames c and dropped = Client.dropped c in
    let counted () = Client.frames c - frames + Client.dropped c - dropped in
    ignore (Rt.Udp.sendto daemon to_client d);
    ignore
      (Client.until c ~wait:(Client.wait_readable c)
         ~deadline:(Rt.Clock.now_us () + 1_000_000)
         (fun () -> counted () > 0));
    Client.iter_deliveries c (fun _ _ -> ());
    if counted () = 1 then Some (Client.frames c > frames) else None
  in
  let prop (frame, junk) =
    let s = Wire.encode_datagram (Wire.Dg_session frame) in
    let for_client =
      match frame with
      | Wire.Session.Open_ok _ | Sent _ | Deliver _ | Stats _ -> true
      | Open _ | Join _ | Leave _ | Send _ | Stats_req _ | Close _ -> false
    in
    feed s = Some for_client
    && List.for_all
         (fun n -> feed (String.sub s 0 n) = Some false)
         (List.init (String.length s) Fun.id)
    && feed probe_frame = Some false
    && feed junk <> None
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"session client accounts every datagram"
       (QCheck.make
          ~print:(fun (_, junk) -> Printf.sprintf "junk %S" junk)
          QCheck.Gen.(pair Wire_gen.gen_frame (string_size (int_bound 100))))
       prop);
  Rt.Udp.close daemon;
  Client.close c

let topofile_parsing () =
  let ok text =
    match Rt.Topofile.parse text with
    | Ok t -> t
    | Error e -> Alcotest.failf "unexpected parse error: %s" e
  in
  let err text =
    match Rt.Topofile.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error e -> e
  in
  let t =
    ok
      "# comment\n\
       node 0 127.0.0.1:7000\n\
       node 1 127.0.0.1:7001  # trailing comment\n\
       link 0 1 5 1000\n"
  in
  check_int "nodes" 2 (Array.length t.Rt.Topofile.nodes);
  check_int "links" 1 (Array.length t.Rt.Topofile.links);
  check_int "metric us" 5000 (Rt.Topofile.metric t 0);
  check_int "bandwidth" 1_000_000_000 (Rt.Topofile.bandwidth_bps t 0);
  check_int "graph links" 1
    (Strovl_topo.Graph.link_count (Rt.Topofile.graph t));
  check_bool "no nodes" true (err "link 0 1" <> "");
  check_bool "gap in ids" true
    (err "node 0 a:1\nnode 2 b:2\nlink 0 2" <> "");
  check_bool "duplicate node" true (err "node 0 a:1\nnode 0 b:2" <> "");
  check_bool "self loop" true (err "node 0 a:1\nlink 0 0" <> "");
  check_bool "unknown endpoint" true (err "node 0 a:1\nlink 0 7" <> "");
  check_bool "duplicate link" true
    (err "node 0 a:1\nnode 1 b:2\nlink 0 1\nlink 1 0" <> "");
  check_bool "bad port" true (err "node 0 a:99999" <> "");
  check_bool "unknown directive" true (err "nodes 0 a:1" <> "")

let () =
  Alcotest.run "strovl_rt"
    [
      ( "rt",
        [
          Alcotest.test_case "topofile parsing" `Quick topofile_parsing;
          Alcotest.test_case "wall-clock scheduling" `Quick runtime_scheduling;
          Alcotest.test_case "loopback overlay survives relay death" `Quick
            overlay_survives_relay_death;
          Alcotest.test_case "reliable burst is coalesced" `Quick
            burst_is_coalesced;
          Alcotest.test_case "forged lseq is dropped" `Quick
            forged_lseq_is_dropped;
          Alcotest.test_case "lseq wrap keeps the daemon up" `Quick
            lseq_wrap_keeps_daemon_up;
          QCheck_alcotest.to_alcotest qcheck_plan;
          Alcotest.test_case "queue and flush" `Quick queue_and_flush;
          Alcotest.test_case "segmentation fallback" `Quick
            segmentation_fallback;
          Alcotest.test_case "session replies are batched" `Quick
            session_replies_batched;
          Alcotest.test_case "close drops the send queue" `Quick
            close_drops_queue;
          Alcotest.test_case "close from a stranger is ignored" `Quick
            close_from_stranger_ignored;
          Alcotest.test_case "client bound to its daemon" `Quick
            client_bound_to_daemon;
          Alcotest.test_case "stats waits for its reply" `Quick
            stats_waits_for_reply;
          Alcotest.test_case "client accounts every datagram" `Quick
            client_accounts_every_datagram;
          Alcotest.test_case "receive split" `Quick receive_split;
          Alcotest.test_case "coalesced drain" `Quick coalesced_drain;
          Alcotest.test_case "coalesced recvfrom" `Quick coalesced_recvfrom;
          Alcotest.test_case "nested drain" `Quick nested_drain;
          Alcotest.test_case "duplicate bind refused" `Quick
            duplicate_bind_refused;
          Alcotest.test_case "unwatched callback skipped" `Quick
            unwatched_callback_skipped;
          Alcotest.test_case "monotonic clock" `Quick monotonic_clock;
        ] );
    ]
