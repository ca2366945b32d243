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

(* An in-process session client: a plain UDP socket whose inbound session
   frames accumulate via the runtime's select loop. *)
type client = {
  sock : Rt.Udp.t;
  daemon : Unix.sockaddr;
  mutable frames : Wire.Session.frame list;  (** newest first *)
}

let client rt topo node =
  let sock = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  let c = { sock; daemon = Rt.Topofile.addr topo node; frames = [] } in
  Rt.Runtime.watch rt (Rt.Udp.fd sock) (fun () ->
      Rt.Udp.drain sock ~f:(fun data _ ->
          match Wire.decode_datagram data with
          | Ok (Wire.Dg_session f) -> c.frames <- f :: c.frames
          | Ok (Wire.Dg_msg _) | Error _ -> ()));
  c

let tell c frame =
  ignore
    (Rt.Udp.sendto c.sock c.daemon
       (Wire.encode_datagram (Wire.Dg_session frame)))

let count_delivers c =
  List.length
    (List.filter
       (function Wire.Session.Deliver _ -> true | _ -> false)
       c.frames)

let count_acks c =
  List.length
    (List.filter
       (function Wire.Session.Sent { accepted = true; _ } -> true | _ -> false)
       c.frames)

let opened c =
  List.exists (function Wire.Session.Open_ok _ -> true | _ -> false) c.frames

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

let overlay_survives_relay_death () =
  let topo = square_topo () in
  let rt = Rt.Runtime.create () in
  let hosts =
    Array.init 4 (fun id ->
        Rt.Host.create ~config:test_config ~rt ~topo ~id ())
  in
  Array.iter Rt.Host.start hosts;

  (* Phase 1: clients attach — sender at node 0, receiver at node 3. *)
  let sender = client rt topo 0 in
  let receiver = client rt topo 3 in
  tell sender (Wire.Session.Open { sport = 8 });
  tell receiver (Wire.Session.Open { sport = 9 });
  check_bool "sessions open" true
    (run_until rt ~budget_ms:2000 (fun () -> opened sender && opened receiver));

  let send_batch lo n =
    for seq = lo to lo + n - 1 do
      tell sender
        (Wire.Session.Send
           {
             sport = 8;
             dest = Packet.To_node 3;
             dport = 9;
             service = Packet.Reliable;
             seq;
             bytes = 1000;
             tag = "t";
           })
    done
  in
  let forwarded id = (Node.counters (Rt.Host.node hosts.(id))).Node.forwarded in

  (* Phase 2: the overlay converges (hellos, LSU floods) and
     delivers the flow end-to-end through one of the two relays. *)
  send_batch 0 5;
  check_bool "first batch delivered via overlay" true
    (run_until rt ~budget_ms:3000 (fun () ->
         count_delivers receiver >= 5 && count_acks sender >= 5));
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
    (run_until rt ~budget_ms:3000 (fun () -> count_delivers receiver >= 10));
  check_int "dead relay saw none of the second batch" victim_forwarded
    (forwarded victim);
  check_bool "surviving relay carried the second batch" true
    (forwarded survivor >= survivor_forwarded_before + 5);

  (* Deliver stamps ride the shared monotonic clock: one-way latencies are
     non-negative and sub-second on loopback. *)
  List.iter
    (function
      | Wire.Session.Deliver { pkt; at; _ } ->
        let one_way = at - pkt.Packet.sent_at in
        check_bool "sane one-way latency" true
          (one_way >= 0 && one_way < 1_000_000)
      | _ -> ())
    receiver.frames;

  tell sender (Wire.Session.Close { sport = 8 });
  tell receiver (Wire.Session.Close { sport = 9 });
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
  Array.iter Rt.Host.close hosts;
  Rt.Udp.close sender.sock;
  Rt.Udp.close receiver.sock

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
  let topo = square_topo () in
  let rt = Rt.Runtime.create () in
  let hosts =
    Array.init 4 (fun id -> Rt.Host.create ~config:test_config ~rt ~topo ~id ())
  in
  Array.iter Rt.Host.start hosts;
  let sender = client rt topo 0 in
  let receiver = client rt topo 3 in
  tell sender (Wire.Session.Open { sport = 8 });
  tell receiver (Wire.Session.Open { sport = 9 });
  check_bool "sessions open" true
    (run_until rt ~budget_ms:2000 (fun () -> opened sender && opened receiver));
  let send seq =
    tell sender
      (Wire.Session.Send
         {
           sport = 8;
           dest = Packet.To_node 3;
           dport = 9;
           service = Packet.Reliable;
           seq;
           bytes = 1000;
           tag = "burst";
         })
  in
  (* One packet first, so that routes have converged before the burst. *)
  send 0;
  check_bool "first packet delivered" true
    (run_until rt ~budget_ms:3000 (fun () -> count_delivers receiver >= 1));
  Metrics.reset ();
  (* 40 Sends per turn: node 0 drains them in one callback, so each turn's
     Data messages on the first hop overflow one frame's 1472 bytes. *)
  let bursts = 6 and per_burst = 40 in
  let total = 1 + (bursts * per_burst) in
  for b = 0 to bursts - 1 do
    for i = 1 to per_burst do
      send ((b * per_burst) + i)
    done;
    Rt.Runtime.run_for rt (Time.ms 5)
  done;
  check_bool "burst delivered" true
    (run_until rt ~budget_ms:5000 (fun () -> count_delivers receiver >= total));
  Rt.Runtime.run_for rt (Time.ms 50);
  let arrivals = Array.make total 0 and ordered = ref [] in
  let reorder =
    Strovl.Deliver.create (Rt.Runtime.engine rt) Strovl.Deliver.Ordered
      ~deliver:(fun pkt -> ordered := pkt.Packet.seq :: !ordered)
  in
  List.iter
    (function
      | Wire.Session.Deliver { pkt; _ } ->
        let seq = pkt.Packet.seq in
        if seq >= 0 && seq < total then
          arrivals.(seq) <- arrivals.(seq) + 1;
        Strovl.Deliver.push reorder pkt
      | _ -> ())
    (List.rev receiver.frames);
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
  Rt.Udp.close sender.sock;
  Rt.Udp.close receiver.sock

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
          Alcotest.test_case "duplicate bind refused" `Quick
            duplicate_bind_refused;
          Alcotest.test_case "unwatched callback skipped" `Quick
            unwatched_callback_skipped;
        ] );
    ]
