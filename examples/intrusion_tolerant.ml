(* Intrusion-tolerant monitoring and control (paper §IV-B): the overlay
   itself is under attack. A compromised overlay router blackholes data
   while keeping the topology looking healthy, and a compromised source
   floods the network to starve others. Authentication, source-routed
   redundant dissemination, and fair round-robin scheduling keep the
   correct traffic flowing.

   Run with: dune exec examples/intrusion_tolerant.exe *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module P = Strovl.Packet
module Dissem = Strovl_topo.Dissem

let () =
  let engine = Engine.create ~seed:23L () in
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.authenticate = true;
      link = { Strovl_net.Link.bandwidth_bps = 50_000_000 };
    }
  in
  (* A deliberately well-connected topology (vertex connectivity 4). *)
  let net = Strovl.Net.create ~config engine (Gen.circulant ~n:12 ~jumps:[ 1; 2 ] ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let rng = Rng.split_named (Engine.rng engine) "attack" in

  (* SCADA-style: the control center at node 6 watches a substation at 0.
     Each measurement opens a fresh flow (new virtual ports): a flow's
     sequence space is never reused. *)
  let next_port = ref 8000 in
  let measure route label =
    let sport = !next_port and dport = !next_port + 1 in
    next_port := !next_port + 2;
    let substation = Strovl.Client.attach (Strovl.Net.node net 0) ~port:sport in
    let control = Strovl.Client.attach (Strovl.Net.node net 6) ~port:dport in
    let stats = Strovl_apps.Collect.create engine () in
    Strovl_apps.Collect.attach stats control ();
    let sender =
      Strovl.Client.sender substation ~service:(P.It_priority 5) ~route
        ~dest:(P.To_node 6) ~dport ()
    in
    let src =
      Strovl_apps.Source.start ~engine ~sender ~interval:(Time.ms 20) ~bytes:400
        ~count:250 ()
    in
    Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 8)) engine;
    Printf.printf "  %-28s delivered=%.1f%%\n" label
      (100.
      *. Strovl_apps.Collect.delivery_rate stats ~sent:(Strovl_apps.Source.sent src));
    Strovl.Client.detach substation;
    Strovl.Client.detach control
  in

  print_endline "baseline (no compromise):";
  measure Strovl.Client.Table "link-state single path";

  (* Two overlay routers are compromised: they blackhole data but answer
     hellos, so the connectivity graph never notices. *)
  let victims = [ 2; 10 ] in
  List.iter
    (fun node ->
      Strovl_attack.Behavior.apply net ~rng ~node Strovl_attack.Behavior.Blackhole)
    victims;
  Printf.printf "routers %s compromised (blackholing, topology looks fine):\n"
    (String.concat "," (List.map string_of_int victims));
  measure Strovl.Client.Table "link-state single path";
  measure (Strovl.Client.Scheme (Dissem.K_disjoint 3)) "3 node-disjoint paths";
  measure (Strovl.Client.Scheme Dissem.Flooding) "constrained flooding";

  (* Resource-consumption attack: a compromised source floods the control
     center; fair per-source round robin keeps the substation's share. *)
  print_endline "plus a flooding compromised source at node 4:";
  ignore
    (Strovl_attack.Scenario.flooder ~net ~node:4 ~port:8002 ~dest:(P.To_node 6)
       ~dport:8999 ~service:(P.It_priority 9) ~rate_pps:20_000 ~bytes:1200);
  measure (Strovl.Client.Scheme (Dissem.K_disjoint 3)) "3 disjoint + fair scheduling";

  (* And a forgery attempt: node 4 injects an LSU in node 0's name claiming
     its links are dead. Signed link-state updates reject it. *)
  let before =
    Strovl.Conn_graph.usable (Strovl.Node.conn (Strovl.Net.node net 6)) 0
  in
  ignore (Strovl_attack.Scenario.forge_lsu ~net ~attacker:4 ~victim:0 ());
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 1)) engine;
  let after =
    Strovl.Conn_graph.usable (Strovl.Node.conn (Strovl.Net.node net 6)) 0
  in
  Printf.printf "forged 'node 0 is down' LSU rejected by signatures: %b\n"
    (before && after)
