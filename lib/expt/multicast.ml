(** multicast: §III-B.

    Overlay multicast "constructs the most efficient multicast tree" while
    only receivers join and each endpoint makes a single connection. The
    baseline is what an application must do on the multicast-less Internet:
    one unicast stream per destination. Measured: data transmissions placed
    on the wire per application packet (counted at the nodes), against the
    analytic tree/unicast link costs. *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Mcast = Strovl_topo.Mcast

let source = 0 (* SEA *)

(* Receivers in a deterministic spread order across the US topology. *)
let member_order = [ 8; 11; 2; 6; 9; 4; 3; 7; 10; 5; 1 ]

let run_size ~seed ~count size =
  let sim = Common.build ~seed (Gen.us_backbone ()) in
  let members = List.filteri (fun i _ -> i < size) member_order in
  let group = 42 in
  let rxs =
    List.map
      (fun m ->
        let c = Strovl.Client.attach (Strovl.Net.node sim.net m) ~port:300 in
        Strovl.Client.join c ~group;
        let got = ref 0 in
        Strovl.Client.set_receiver c (fun _ -> incr got);
        (c, got))
      members
  in
  Common.run_for sim (Time.sec 1);
  let tx = Strovl.Client.attach (Strovl.Net.node sim.net source) ~port:301 in
  let sender =
    Strovl.Client.sender tx ~dest:(Strovl.Packet.To_group group) ~dport:300 ()
  in
  let before = Common.total_forwarded sim in
  for _ = 1 to count do
    ignore (Strovl.Client.send sender ~bytes:1316 ());
    Common.run_for sim (Time.ms 2)
  done;
  Common.run_for sim (Time.sec 1);
  let tree_tx_per_pkt =
    float_of_int (Common.total_forwarded sim - before) /. float_of_int count
  in
  let delivered =
    List.fold_left (fun acc (_, got) -> acc + !got) 0 rxs
  in
  (* Analytic costs on the same (healthy) topology. *)
  let g = Strovl.Net.graph sim.net in
  let weight l = Strovl.Net.link_metric sim.net l in
  let tree = Mcast.shortest_path_tree ~weight g ~source ~members in
  let unicast = Mcast.unicast_link_cost ~weight g ~source ~members in
  [
    string_of_int size;
    Table.cell_f tree_tx_per_pkt;
    string_of_int (Mcast.link_cost tree);
    string_of_int unicast;
    Table.cell_f (float_of_int unicast /. float_of_int (max 1 (Mcast.link_cost tree)));
    Table.cell_pct (Stats.ratio delivered (count * size));
  ]

let run ?(quick = false) ~seed () =
  let count = if quick then 50 else 300 in
  let sizes = if quick then [ 4 ] else [ 2; 4; 6; 8; 11 ] in
  let rows = List.map (run_size ~seed ~count) sizes in
  Table.make ~id:"multicast"
    ~title:
      "Overlay multicast tree vs per-receiver unicast (SEA source, US \
       backbone)"
    ~header:
      [
        "receivers";
        "tx/pkt (measured)";
        "tree links";
        "unicast links";
        "savings x";
        "delivered";
      ]
    ~notes:
      [
        "paper: overlay builds the most efficient tree to nodes with \
         members (SIII-B)";
        "measured tx/pkt should match the analytic tree size";
      ]
    rows
