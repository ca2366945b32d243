(* Tests for the core overlay data structures and shared-state components:
   packets, wire messages, de-duplication, destination reordering, the
   connectivity graph, group state, and the routing level. *)

open Strovl_sim
module P = Strovl.Packet
module Msg = Strovl.Msg
module Wire = Strovl.Wire
module Dedup = Strovl.Dedup
module Deliver = Strovl.Deliver
module Conn_graph = Strovl.Conn_graph
module Group = Strovl.Group
module Route = Strovl.Route
module Graph = Strovl_topo.Graph
module Bitmask = Strovl_topo.Bitmask

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flow ?(src = 1) ?(sport = 10) ?(dest = P.To_node 2) ?(dport = 20) () =
  { P.f_src = src; f_sport = sport; f_dest = dest; f_dport = dport }

let packet ?(seq = 0) ?(service = P.Best_effort) ?(routing = P.Link_state)
    ?(sent_at = 0) ?(bytes = 100) ?flow:(f = flow ()) () =
  P.make ~flow:f ~routing ~service ~seq ~sent_at ~bytes ()

(* ------------------------------ Packet ------------------------------ *)

let packet_service_classes () =
  let classes =
    List.map P.service_class
      [
        P.Best_effort;
        P.Reliable;
        P.Realtime { deadline = 1 };
        P.It_priority 3;
        P.It_reliable;
        P.Fec;
      ]
  in
  check_int "distinct classes" P.class_count
    (List.length (List.sort_uniq compare classes));
  check_int "priority irrelevant to class" (P.service_class (P.It_priority 0))
    (P.service_class (P.It_priority 9))

let packet_flow_compare () =
  let a = flow ~src:1 () and b = flow ~src:2 () in
  check_bool "orders by src" true (P.flow_compare a b < 0);
  check_int "equal" 0 (P.flow_compare a (flow ~src:1 ()));
  let g1 = flow ~dest:(P.To_group 5) () and g2 = flow ~dest:(P.Any_of_group 5) () in
  check_bool "dest kinds distinct" true (P.flow_compare g1 g2 <> 0)

let packet_hops_and_ingress () =
  let p = packet () in
  check_int "hops start 0" 0 p.P.hops;
  check_int "next hop increments" 1 (P.next_hop_copy p).P.hops;
  check_int "ingress default" (-1) p.P.ingress;
  check_int "with_ingress" 7 (P.with_ingress p 7).P.ingress

(* The signed bytes of a packet are the end-to-end prefix of its wire
   encoding, and the hop-rewritten fields are not in them. *)
let packet_signable_distinct () =
  check_bool "seq matters" true
    (Wire.signable (packet ~seq:1 ()) <> Wire.signable (packet ~seq:2 ()));
  check_bool "src matters" true
    (Wire.signable (packet ~flow:(flow ~src:1 ()) ())
    <> Wire.signable (packet ~flow:(flow ~src:2 ()) ()));
  let p = packet ~routing:(P.Source_mask (Bitmask.of_links ~nlinks:70 [ 3; 66 ])) () in
  let signed = Wire.signable p in
  (* A Data message: tag, class, lseq (4) and an absent auth (1) precede
     the packet. *)
  let encoded = Wire.encode (Msg.Data { cls = 0; lseq = 1; pkt = p; auth = None }) in
  check_bool "a prefix of the packet's encoding" true
    (String.sub encoded 7 (String.length signed) = signed);
  let hop = P.as_replay (P.with_ingress (P.next_hop_copy { p with P.auth = Some 9L }) 4) in
  check_bool "hop fields not covered" true (Wire.signable hop = signed)

(* -------------------------------- Msg -------------------------------- *)

let msg_sizes () =
  let data = Msg.Data { cls = 0; lseq = 1; pkt = packet ~bytes:1000 (); auth = None } in
  check_bool "data includes payload" true (Wire.size data > 1000);
  let small = Msg.Data { cls = 0; lseq = 1; pkt = packet ~bytes:10 (); auth = None } in
  check_bool "payload monotone" true (Wire.size data > Wire.size small);
  check_bool "control small" true (Wire.size (Msg.Rt_request { lseq = 5 }) < 20);
  let lsu =
    Msg.Lsu { origin = 0; lsu_seq = 1; links = [ (0, { Msg.li_up = true; li_metric = 5; li_loss = 0 }) ]; auth = None }
  in
  let lsu2 =
    Msg.Lsu
      {
        origin = 0;
        lsu_seq = 1;
        links =
          [
            (0, { Msg.li_up = true; li_metric = 5; li_loss = 0 });
            (1, { Msg.li_up = false; li_metric = 9; li_loss = 0 });
          ];
        auth = None;
      }
  in
  check_bool "lsu grows with links" true (Wire.size lsu2 > Wire.size lsu)

let msg_signable () =
  let lsu ?auth links seq =
    Msg.Lsu { origin = 3; lsu_seq = seq; links; auth }
  in
  let l1 = [ (0, { Msg.li_up = true; li_metric = 5; li_loss = 0 }) ] in
  let l2 = [ (0, { Msg.li_up = false; li_metric = 5; li_loss = 0 }) ] in
  let signable = Wire.flood_signable in
  check_bool "state matters" true (signable (lsu l1 1) <> signable (lsu l2 1));
  check_bool "seq matters" true (signable (lsu l1 1) <> signable (lsu l1 2));
  check_bool "auth is not covered" true
    (signable (lsu ~auth:42L l1 1) = signable (lsu l1 1));
  List.iter
    (fun msg ->
      Alcotest.check_raises "hop-local not signable"
        (Invalid_argument "Wire.flood_signable: hop-local message") (fun () ->
          ignore (signable msg)))
    [
      Msg.Hello { hseq = 1; sent_at = 0 };
      Msg.Data { cls = 0; lseq = 1; pkt = packet (); auth = None };
    ]

(* ------------------------------- Dedup ------------------------------- *)

let dedup_basics () =
  let d = Dedup.create () in
  let f = flow () in
  check_bool "first fresh" false (Dedup.seen d f 0);
  check_bool "repeat seen" true (Dedup.seen d f 0);
  check_bool "next fresh" false (Dedup.seen d f 1);
  check_bool "peek does not record" false (Dedup.peek d f 2);
  check_bool "still fresh" false (Dedup.seen d f 2);
  check_int "one flow" 1 (Dedup.flows d)

let dedup_flows_independent () =
  let d = Dedup.create () in
  let f1 = flow ~src:1 () and f2 = flow ~src:2 () in
  check_bool "f1 seq0" false (Dedup.seen d f1 0);
  check_bool "f2 seq0 independent" false (Dedup.seen d f2 0);
  check_int "two flows" 2 (Dedup.flows d)

let dedup_window_slide () =
  (* The window is 4096 sequence numbers. *)
  let d = Dedup.create () in
  let f = flow () in
  ignore (Dedup.seen d f 0);
  ignore (Dedup.seen d f 6400);
  (* seq 0 fell out of the window: conservatively seen. *)
  check_bool "old treated seen" true (Dedup.seen d f 0);
  (* In-window slots not recorded are fresh. *)
  check_bool "recent unrecorded fresh" false (Dedup.seen d f 6395);
  (* And the slide must have cleared stale ring slots (6400-4096=2304..6399):
     4096 sits in seq 0's slot. *)
  check_bool "ring slot reused correctly" false (Dedup.seen d f 4096)

let qcheck_dedup_exactly_once =
  QCheck.Test.make ~name:"each in-window seq reported fresh exactly once" ~count:200
    (* Spread over the 4096-seq window, with repeats. *)
    QCheck.(map (List.map (fun s -> s * 65)) (list (int_bound 63)))
    (fun seqs ->
      let d = Dedup.create () in
      let f = flow () in
      let fresh = List.filter (fun s -> not (Dedup.seen d f s)) seqs in
      List.sort_uniq compare fresh = List.sort_uniq compare seqs
      && List.length fresh = List.length (List.sort_uniq compare seqs))

(* ------------------------------ Deliver ------------------------------ *)

let deliver_unordered () =
  let e = Engine.create () in
  let got = ref [] in
  let d = Deliver.create e Deliver.Unordered ~deliver:(fun p -> got := p.P.seq :: !got) in
  List.iter (fun s -> Deliver.push d (packet ~seq:s ())) [ 2; 0; 1 ];
  Alcotest.(check (list int)) "immediate" [ 2; 0; 1 ] (List.rev !got)

let deliver_ordered () =
  let e = Engine.create () in
  let got = ref [] in
  let d = Deliver.create e Deliver.Ordered ~deliver:(fun p -> got := p.P.seq :: !got) in
  List.iter (fun s -> Deliver.push d (packet ~seq:s ())) [ 0; 2; 3; 1; 1; 4 ];
  Alcotest.(check (list int)) "reordered, dup dropped" [ 0; 1; 2; 3; 4 ] (List.rev !got);
  check_int "pending" 0 (Deliver.pending d)

let deliver_ordered_stalls_on_gap () =
  let e = Engine.create () in
  let got = ref [] in
  let d = Deliver.create e Deliver.Ordered ~deliver:(fun p -> got := p.P.seq :: !got) in
  List.iter (fun s -> Deliver.push d (packet ~seq:s ())) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "held" [] !got;
  check_int "pending" 3 (Deliver.pending d);
  Deliver.push d (packet ~seq:0 ());
  Alcotest.(check (list int)) "drains" [ 0; 1; 2; 3 ] (List.rev !got)

let deliver_deadline_skips () =
  let e = Engine.create () in
  let got = ref [] in
  let d =
    Deliver.create e (Deliver.Deadline (Time.ms 100))
      ~deliver:(fun p -> got := p.P.seq :: !got)
  in
  Deliver.push d (packet ~seq:0 ~sent_at:0 ());
  (* seq 1 missing; seq 2 buffered with sent_at 10ms -> given up at 110ms. *)
  ignore (Engine.schedule e ~delay:(Time.ms 10) (fun () ->
      Deliver.push d (packet ~seq:2 ~sent_at:(Time.ms 10) ())));
  Engine.run e;
  Alcotest.(check (list int)) "gap skipped at deadline" [ 0; 2 ] (List.rev !got);
  check_int "clock advanced to give-up" (Time.ms 110) (Engine.now e);
  (* The straggler arrives after its slot was abandoned: discarded. *)
  Deliver.push d (packet ~seq:1 ~sent_at:0 ());
  Alcotest.(check (list int)) "late discarded" [ 0; 2 ] (List.rev !got)

let deliver_deadline_recovery_in_time () =
  let e = Engine.create () in
  let got = ref [] in
  let d =
    Deliver.create e (Deliver.Deadline (Time.ms 100))
      ~deliver:(fun p -> got := p.P.seq :: !got)
  in
  Deliver.push d (packet ~seq:1 ~sent_at:0 ());
  ignore (Engine.schedule e ~delay:(Time.ms 50) (fun () ->
      Deliver.push d (packet ~seq:0 ~sent_at:0 ())));
  Engine.run e;
  Alcotest.(check (list int)) "recovered in order" [ 0; 1 ] (List.rev !got)

(* ---------------------------- Conn_graph ----------------------------- *)

let triangle () =
  let g = Graph.create ~n:3 in
  let l01 = Graph.add_link g 0 1 in
  let l12 = Graph.add_link g 1 2 in
  let l02 = Graph.add_link g 0 2 in
  (g, l01, l12, l02)

let conn_initial_up () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  check_bool "usable" true (Conn_graph.usable c l01);
  check_int "metric" 10 (Conn_graph.metric c l01);
  check_int "version 0" 0 (Conn_graph.version c)

let conn_set_local () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  (match Conn_graph.set_local c ~link:l01 ~up:false with
  | Some (Msg.Lsu { origin = 0; links; _ }) ->
    check_bool "lsu lists the link down" true
      (List.exists (fun (l, i) -> l = l01 && not i.Msg.li_up) links)
  | _ -> Alcotest.fail "expected an LSU");
  check_bool "no longer usable" false (Conn_graph.usable c l01);
  check_bool "idempotent" true (Conn_graph.set_local c ~link:l01 ~up:false = None);
  check_bool "version bumped" true (Conn_graph.version c > 0)

let conn_apply_lsu_seq_filter () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  let info up = [ (l01, { Msg.li_up = up; li_metric = 10; li_loss = 0 }) ] in
  check_bool "new lsu accepted" true (Conn_graph.apply_lsu c ~origin:1 ~lsu_seq:5 (info false));
  check_bool "link down (peer side)" false (Conn_graph.usable c l01);
  check_bool "stale rejected" false (Conn_graph.apply_lsu c ~origin:1 ~lsu_seq:4 (info true));
  check_bool "still down" false (Conn_graph.usable c l01);
  check_bool "newer accepted" true (Conn_graph.apply_lsu c ~origin:1 ~lsu_seq:6 (info true));
  check_bool "back up" true (Conn_graph.usable c l01);
  check_int "highest seq tracked" 6 (Conn_graph.highest_seq c 1)

let conn_lying_about_remote_links () =
  let g, _, l12, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  (* Node 0 (a would-be liar's victim view): origin 1 may speak about l12
     (it is an endpoint) but a claim from origin 0 about l12 is ignored —
     and here, a forged claim naming an unrelated origin. *)
  ignore (Conn_graph.apply_lsu c ~origin:2 ~lsu_seq:1
            [ (l12, { Msg.li_up = false; li_metric = 1; li_loss = 0 }) ]);
  check_bool "endpoint may report" false (Conn_graph.usable c l12);
  let c2 = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  let g01 = Strovl_topo.Graph.find_link g 0 1 in
  ignore g01;
  ignore (Conn_graph.apply_lsu c2 ~origin:2 ~lsu_seq:1
            [ (Option.get (Graph.find_link g 0 1), { Msg.li_up = false; li_metric = 1; li_loss = 0 }) ]);
  check_bool "non-endpoint claim ignored" true
    (Conn_graph.usable c2 (Option.get (Graph.find_link g 0 1)))

let conn_metric_both_sides_max () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  ignore (Conn_graph.set_local_metric c ~link:l01 ~metric:30);
  check_int "max of sides" 30 (Conn_graph.metric c l01);
  ignore (Conn_graph.apply_lsu c ~origin:1 ~lsu_seq:1
            [ (l01, { Msg.li_up = true; li_metric = 50; li_loss = 0 }) ]);
  check_int "peer larger" 50 (Conn_graph.metric c l01)

let conn_metric_small_change_silent () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 1000) in
  check_bool "5% change silent" true
    (Conn_graph.set_local_metric c ~link:l01 ~metric:1050 = None);
  check_bool "20% change floods" true
    (Conn_graph.set_local_metric c ~link:l01 ~metric:1300 <> None)

let conn_loss_and_effective_metric () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 1000) in
  check_int "initial loss 0" 0 (Conn_graph.loss c l01);
  check_int "weight = metric by default" 1000 (Conn_graph.weight c l01);
  check_bool "small loss change silent" true
    (Conn_graph.set_local_loss c ~link:l01 ~loss:10 = None);
  check_bool "large loss change floods" true
    (Conn_graph.set_local_loss c ~link:l01 ~loss:200 <> None);
  check_int "loss recorded" 200 (Conn_graph.loss c l01);
  (* effective = metric / (1-0.2)^2 = 1000/0.64 = 1562 *)
  check_int "effective inflates" 1562 (Conn_graph.effective_metric c l01);
  Conn_graph.use_effective_metric c true;
  check_int "weight switches" 1562 (Conn_graph.weight c l01);
  (* peer reports worse loss: max wins *)
  ignore
    (Conn_graph.apply_lsu c ~origin:1 ~lsu_seq:1
       [ (l01, { Msg.li_up = true; li_metric = 1000; li_loss = 500 }) ]);
  check_int "max of sides" 500 (Conn_graph.loss c l01);
  (* near-dead link becomes effectively unusable *)
  ignore (Conn_graph.set_local_loss c ~link:l01 ~loss:900);
  check_bool "80%+ loss = effectively infinite" true
    (Conn_graph.effective_metric c l01 > 1_000_000_000);
  check_bool "clamped" true
    (Conn_graph.set_local_loss c ~link:l01 ~loss:5000 = None
    || Conn_graph.loss c l01 <= 1000)

let conn_own_lsu_echo_ignored () =
  let g, l01, _, _ = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun _ -> 10) in
  check_bool "own echo rejected" false
    (Conn_graph.apply_lsu c ~origin:0 ~lsu_seq:99
       [ (l01, { Msg.li_up = false; li_metric = 1; li_loss = 0 }) ])

(* ------------------------------- Group ------------------------------- *)

let group_join_leave () =
  let gr = Group.create ~self:0 ~nnodes:4 in
  check_bool "first join floods" true (Group.join_local gr ~group:7 ~port:1 <> None);
  check_bool "second port silent" true (Group.join_local gr ~group:7 ~port:2 = None);
  Alcotest.(check (list int)) "local ports" [ 1; 2 ] (Group.local_ports gr ~group:7);
  check_bool "leave one port silent" true (Group.leave_local gr ~group:7 ~port:1 = None);
  check_bool "last leave floods" true (Group.leave_local gr ~group:7 ~port:2 <> None);
  check_bool "no longer member" false (Group.has_local gr ~group:7)

let group_apply_update () =
  let gr = Group.create ~self:0 ~nnodes:4 in
  check_bool "accepted" true (Group.apply_update gr ~origin:2 ~gseq:1 [ (7, true) ]);
  Alcotest.(check (list int)) "members" [ 2 ] (Group.member_nodes gr ~group:7);
  check_bool "stale rejected" false (Group.apply_update gr ~origin:2 ~gseq:1 [ (7, false) ]);
  check_bool "newer accepted" true (Group.apply_update gr ~origin:2 ~gseq:2 [ (7, false) ]);
  Alcotest.(check (list int)) "gone" [] (Group.member_nodes gr ~group:7)

let group_snapshot_semantics () =
  let gr = Group.create ~self:0 ~nnodes:4 in
  ignore (Group.apply_update gr ~origin:2 ~gseq:1 [ (7, true); (8, true) ]);
  (* A later snapshot that only mentions 8 implies leaving 7. *)
  ignore (Group.apply_update gr ~origin:2 ~gseq:2 [ (8, true) ]);
  Alcotest.(check (list int)) "implicit leave" [] (Group.member_nodes gr ~group:7);
  Alcotest.(check (list int)) "kept" [ 2 ] (Group.member_nodes gr ~group:8);
  Alcotest.(check (list int)) "groups" [ 8 ] (Group.groups gr)

let group_version_bumps () =
  let gr = Group.create ~self:0 ~nnodes:4 in
  let v0 = Group.version gr in
  ignore (Group.join_local gr ~group:7 ~port:1);
  check_bool "join bumps" true (Group.version gr > v0);
  let v1 = Group.version gr in
  ignore (Group.apply_update gr ~origin:1 ~gseq:1 [ (7, true) ]);
  check_bool "remote join bumps" true (Group.version gr > v1)

(* ------------------------------- Route ------------------------------- *)

let route_fixture () =
  let g, l01, l12, l02 = triangle () in
  let c = Conn_graph.create ~self:0 g ~metric:(fun l -> if l = l02 then 30 else 10) in
  let gr = Group.create ~self:0 ~nnodes:3 in
  (Route.create c gr, c, gr, (l01, l12, l02))

let route_next_hop_and_reroute () =
  let r, c, _, (l01, l12, l02) = route_fixture () in
  ignore l12;
  (* 0->2: via 1 costs 20 < direct 30. *)
  Alcotest.(check (option (pair int int))) "via 1" (Some (1, l01)) (Route.next_hop r ~dst:2);
  Alcotest.(check (option int)) "distance" (Some 20) (Route.distance r ~dst:2);
  ignore (Conn_graph.set_local c ~link:l01 ~up:false);
  Alcotest.(check (option (pair int int))) "rerouted direct" (Some (2, l02))
    (Route.next_hop r ~dst:2);
  check_bool "reachable" true (Route.reachable r ~dst:2)

let route_unreachable () =
  let r, c, _, (l01, _, l02) = route_fixture () in
  ignore (Conn_graph.set_local c ~link:l01 ~up:false);
  ignore (Conn_graph.set_local c ~link:l02 ~up:false);
  Alcotest.(check (option (pair int int))) "no hop" None (Route.next_hop r ~dst:2);
  check_bool "unreachable" false (Route.reachable r ~dst:2)

let route_anycast_nearest () =
  let r, _, gr, _ = route_fixture () in
  ignore (Group.apply_update gr ~origin:1 ~gseq:1 [ (5, true) ]);
  ignore (Group.apply_update gr ~origin:2 ~gseq:1 [ (5, true) ]);
  Alcotest.(check (option int)) "nearest is 1" (Some 1) (Route.anycast_target r ~group:5);
  ignore (Group.join_local gr ~group:5 ~port:9);
  Alcotest.(check (option int)) "self wins" (Some 0) (Route.anycast_target r ~group:5)

let route_mcast_out_links () =
  let r, _, gr, (l01, l12, l02) = route_fixture () in
  ignore l02;
  ignore (Group.apply_update gr ~origin:1 ~gseq:1 [ (5, true) ]);
  ignore (Group.apply_update gr ~origin:2 ~gseq:1 [ (5, true) ]);
  (* Cheapest tree: 0 -10- 1 -10- 2 (the direct 0-2 link costs 30). *)
  Alcotest.(check (list int)) "root sends on l01" [ l01 ]
    (Route.mcast_out_links r ~source:0 ~group:5);
  check_int "tree links" 2 (List.length (Route.mcast_tree_links r ~source:0 ~group:5));
  check_bool "chain through node 1" true
    (List.mem l12 (Route.mcast_tree_links r ~source:0 ~group:5))

let route_usable_mask_tracks_state () =
  let r, c, _, (l01, _, _) = route_fixture () in
  check_int "all usable" 3 (Bitmask.count (Route.usable_mask r));
  ignore (Conn_graph.set_local c ~link:l01 ~up:false);
  check_int "one down" 2 (Bitmask.count (Route.usable_mask r));
  check_bool "down excluded" false (Bitmask.mem (Route.usable_mask r) l01)

let route_dissem_mask () =
  let r, _, _, (l01, l12, l02) = route_fixture () in
  let m = Route.dissem_mask r ~dst:2 Strovl_topo.Dissem.Two_disjoint in
  check_bool "uses both routes" true
    (Bitmask.mem m l02 && Bitmask.mem m l01 && Bitmask.mem m l12)

(* Writes to a connectivity graph, each drawn small and resolved against
   the graph when it runs, so every kind of write occurs: LSUs from other
   nodes, flips of one of self's links, metric and loss drifts of one of
   self's links (some too small to advertise), the metric switch, and a
   query of every mask toward one node. *)
type route_op =
  | R_lsu of int * int * bool * int * int (* origin, link pick, up, metric, loss *)
  | R_flip of int * bool
  | R_metric of int * int (* link pick, percent change *)
  | R_loss of int * int (* link pick, permille change *)
  | R_effective of bool
  | R_query of int

let pp_route_op ppf = function
  | R_lsu (o, l, up, m, p) -> Format.fprintf ppf "lsu %d #%d %b %d %d" o l up m p
  | R_flip (l, up) -> Format.fprintf ppf "flip #%d %b" l up
  | R_metric (l, pct) -> Format.fprintf ppf "metric #%d %+d%%" l pct
  | R_loss (l, d) -> Format.fprintf ppf "loss #%d %+d" l d
  | R_effective b -> Format.fprintf ppf "effective %b" b
  | R_query d -> Format.fprintf ppf "query %d" d

let gen_route_op =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map
            (fun (o, l, up, (m, p)) -> R_lsu (o, l, up, m, p))
            (quad (int_bound 11) (int_bound 7)
               (frequency [ (4, return true); (1, return false) ])
               (pair (int_range 9_000 11_000) (int_bound 40))) );
        (1, map2 (fun l up -> R_flip (l, up)) (int_bound 7) bool);
        (3, map2 (fun l pct -> R_metric (l, pct)) (int_bound 7) (int_range (-30) 30));
        (3, map2 (fun l d -> R_loss (l, d)) (int_bound 7) (int_range (-30) 30));
        (2, map (fun b -> R_effective b) bool);
        (6, map (fun d -> R_query d) (int_bound 11));
      ])

let print_route_case (self, ops) =
  Format.asprintf "self=%d@ %a" self
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_route_op)
    ops

let schemes =
  Strovl_topo.Dissem.
    [ Single_path; Two_disjoint; K_disjoint 3; Source_problem; Dest_problem;
      Robust_both; Flooding ]

let qcheck_route_masks_match_build =
  QCheck.Test.make ~name:"route: cached masks equal a fresh build" ~count:300
    (QCheck.make ~print:print_route_case
       QCheck.Gen.(pair (int_bound 11) (list_size (int_range 1 120) gen_route_op)))
    (fun (self, ops) ->
      let g = Strovl_topo.Gen.overlay_graph (Strovl_topo.Gen.us_backbone ()) in
      (* One metric for every link: equal-cost paths abound, so even a
         drift too small to advertise changes which one a mask takes. *)
      let c = Conn_graph.create ~self g ~metric:(fun _ -> 10_000) in
      let r = Route.create c (Group.create ~self ~nnodes:(Graph.n g)) in
      let pick node i =
        let ls = Graph.incident g node in
        List.nth ls (i mod List.length ls)
      in
      let seqs = Array.make (Graph.n g) 0 in
      let usable_ok () =
        let fresh = Bitmask.create ~nlinks:(Graph.link_count g) in
        Graph.iter_links g (fun l _ _ ->
            if Conn_graph.usable c l then Bitmask.set fresh l);
        Bitmask.equal fresh (Route.usable_mask r)
      in
      let dissem_ok dst =
        dst = self
        || List.for_all
             (fun scheme ->
               Bitmask.equal
                 (Strovl_topo.Dissem.build ~usable:(Conn_graph.usable c)
                    ~weight:(Conn_graph.weight c) g ~src:self ~dst scheme)
                 (Route.dissem_mask r ~dst scheme))
             schemes
      in
      List.for_all
        (fun op ->
          match op with
          | R_lsu (origin, i, up, metric, loss) ->
            seqs.(origin) <- seqs.(origin) + 1;
            ignore
              (Conn_graph.apply_lsu c ~origin ~lsu_seq:seqs.(origin)
                 [
                   ( pick origin i,
                     { Msg.li_up = up; li_metric = metric; li_loss = loss } );
                 ]);
            true
          | R_flip (i, up) ->
            ignore (Conn_graph.set_local c ~link:(pick self i) ~up);
            true
          | R_metric (i, pct) ->
            let link = pick self i in
            let metric = max 1 (Conn_graph.metric c link * (100 + pct) / 100) in
            ignore (Conn_graph.set_local_metric c ~link ~metric);
            true
          | R_loss (i, d) ->
            let link = pick self i in
            ignore
              (Conn_graph.set_local_loss c ~link ~loss:(Conn_graph.loss c link + d));
            true
          | R_effective b ->
            Conn_graph.use_effective_metric c b;
            true
          | R_query dst -> usable_ok () && dissem_ok dst)
        (ops @ List.init (Graph.n g) (fun d -> R_query d)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "strovl_core"
    [
      ( "packet",
        [
          Alcotest.test_case "service classes" `Quick packet_service_classes;
          Alcotest.test_case "flow compare" `Quick packet_flow_compare;
          Alcotest.test_case "hops/ingress" `Quick packet_hops_and_ingress;
          Alcotest.test_case "signable" `Quick packet_signable_distinct;
        ] );
      ( "msg",
        [
          Alcotest.test_case "sizes" `Quick msg_sizes;
          Alcotest.test_case "signable" `Quick msg_signable;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "basics" `Quick dedup_basics;
          Alcotest.test_case "flows independent" `Quick dedup_flows_independent;
          Alcotest.test_case "window slide" `Quick dedup_window_slide;
          q qcheck_dedup_exactly_once;
        ] );
      ( "deliver",
        [
          Alcotest.test_case "unordered" `Quick deliver_unordered;
          Alcotest.test_case "ordered" `Quick deliver_ordered;
          Alcotest.test_case "stalls on gap" `Quick deliver_ordered_stalls_on_gap;
          Alcotest.test_case "deadline skips" `Quick deliver_deadline_skips;
          Alcotest.test_case "deadline recovery" `Quick deliver_deadline_recovery_in_time;
        ] );
      ( "conn_graph",
        [
          Alcotest.test_case "initial up" `Quick conn_initial_up;
          Alcotest.test_case "set local" `Quick conn_set_local;
          Alcotest.test_case "lsu seq filter" `Quick conn_apply_lsu_seq_filter;
          Alcotest.test_case "remote-link lies ignored" `Quick conn_lying_about_remote_links;
          Alcotest.test_case "metric both sides" `Quick conn_metric_both_sides_max;
          Alcotest.test_case "metric threshold" `Quick conn_metric_small_change_silent;
          Alcotest.test_case "loss + effective metric" `Quick conn_loss_and_effective_metric;
          Alcotest.test_case "own echo ignored" `Quick conn_own_lsu_echo_ignored;
        ] );
      ( "group",
        [
          Alcotest.test_case "join/leave" `Quick group_join_leave;
          Alcotest.test_case "apply update" `Quick group_apply_update;
          Alcotest.test_case "snapshot semantics" `Quick group_snapshot_semantics;
          Alcotest.test_case "version bumps" `Quick group_version_bumps;
        ] );
      ( "route",
        [
          Alcotest.test_case "next hop + reroute" `Quick route_next_hop_and_reroute;
          Alcotest.test_case "unreachable" `Quick route_unreachable;
          Alcotest.test_case "anycast nearest" `Quick route_anycast_nearest;
          Alcotest.test_case "mcast out links" `Quick route_mcast_out_links;
          Alcotest.test_case "usable mask" `Quick route_usable_mask_tracks_state;
          Alcotest.test_case "dissem mask" `Quick route_dissem_mask;
          q qcheck_route_masks_match_build;
        ] );
    ]
