(* Tests for graphs, shortest paths, flows, disjoint paths, bitmasks,
   multicast trees, dissemination graphs, and topology generators. *)

open Strovl_topo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small diamond with a long chord:
     0 --1-- 1 --1-- 3
     0 --2-- 2 --2-- 3
     1 --5-- 2                       *)
let diamond () =
  let g = Graph.create ~n:4 in
  let l01 = Graph.add_link g 0 1 in
  let l13 = Graph.add_link g 1 3 in
  let l02 = Graph.add_link g 0 2 in
  let l23 = Graph.add_link g 2 3 in
  let l12 = Graph.add_link g 1 2 in
  let w = [| 1; 1; 2; 2; 5 |] in
  (g, (fun l -> w.(l)), (l01, l13, l02, l23, l12))

(* ------------------------------- Graph ------------------------------ *)

let graph_basics () =
  let g, _, (l01, l13, l02, _, _) = diamond () in
  check_int "n" 4 (Graph.n g);
  check_int "links" 5 (Graph.link_count g);
  Alcotest.(check (pair int int)) "endpoints" (0, 1) (Graph.endpoints g l01);
  check_int "other_end" 0 (Graph.other_end g l01 1);
  check_int "degree 0" 2 (Graph.degree g 0);
  check_int "degree 1" 3 (Graph.degree g 1);
  Alcotest.(check (list int)) "incident 0" [ l01; l02 ] (Graph.incident g 0);
  Alcotest.(check (option int)) "find_link" (Some l13) (Graph.find_link g 3 1);
  Alcotest.(check (option int)) "find_link absent" None (Graph.find_link g 0 3);
  check_bool "connected" true (Graph.connected g)

let graph_errors () =
  let g = Graph.create ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_link: self-loop")
    (fun () -> ignore (Graph.add_link g 1 1));
  Alcotest.check_raises "node range" (Invalid_argument "Graph: node out of range")
    (fun () -> ignore (Graph.add_link g 0 3));
  let l = Graph.add_link g 0 1 in
  Alcotest.check_raises "other_end wrong node"
    (Invalid_argument "Graph.other_end: node not an endpoint") (fun () ->
      ignore (Graph.other_end g l 2))

let graph_usable_reachability () =
  let g, _, (l01, l13, l02, l23, _) = diamond () in
  ignore (l01, l13);
  let usable l = l <> l02 && l <> l23 in
  let seen = Graph.reachable ~usable g 2 in
  check_bool "2 reaches 1 via chord" true seen.(1);
  let usable l = l = l02 in
  check_bool "partitioned" false (Graph.connected ~usable g);
  let seen = Graph.reachable ~usable g 0 in
  check_bool "0 reaches 2" true seen.(2);
  check_bool "0 cannot reach 3" false seen.(3)

(* ------------------------------ Dijkstra ----------------------------- *)

let dijkstra_distances () =
  let g, w, (l01, l13, _, _, _) = diamond () in
  let r = Dijkstra.run ~weight:w g 0 in
  Alcotest.(check (array int)) "dist" [| 0; 1; 2; 2 |] r.Dijkstra.dist;
  Alcotest.(check (option (list int))) "path 0->3" (Some [ l01; l13 ])
    (Dijkstra.path_to r 3);
  Alcotest.(check (option (list int))) "node path" (Some [ 0; 1; 3 ])
    (Dijkstra.node_path_to r 3)

let dijkstra_next_hops () =
  let g, w, (l01, _, l02, _, _) = diamond () in
  let r = Dijkstra.run ~weight:w g 0 in
  let hops = Dijkstra.next_hops g r in
  Alcotest.(check (option (pair int int))) "to 3 via 1" (Some (1, l01)) hops.(3);
  Alcotest.(check (option (pair int int))) "to 2 direct" (Some (2, l02)) hops.(2);
  Alcotest.(check (option (pair int int))) "self" None hops.(0)

let dijkstra_unreachable () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_link g 0 1);
  let r = Dijkstra.run ~weight:(fun _ -> 1) g 0 in
  check_int "unreachable dist" max_int r.Dijkstra.dist.(2);
  Alcotest.(check (option (list int))) "no path" None (Dijkstra.path_to r 2);
  Alcotest.(check (option int)) "distance none" None
    (Dijkstra.distance ~weight:(fun _ -> 1) g 0 2)

let dijkstra_usable_reroute () =
  let g, w, (l01, l13, _, _, _) = diamond () in
  ignore l13;
  let usable l = l <> l01 in
  let r = Dijkstra.run ~usable ~weight:w g 0 in
  check_int "rerouted via 2" 4 r.Dijkstra.dist.(3)

let dijkstra_diameter () =
  let g, w, _ = diamond () in
  check_int "diameter" 3 (Dijkstra.diameter ~weight:w g);
  check_int "ecc of 0" 2 (Dijkstra.eccentricity ~weight:w g 0)

(* Minor words per [Dijkstra.run] from SEA on the us-backbone overlay,
   weighted by designed link latency (perfbench's topo.dijkstra_ns set-up).
   Words are deterministic: 387 when this bound was set, 459 while every
   pop allocated an option tuple, so one more allocation per settled node
   (12 nodes) fails it. *)
let dijkstra_words () =
  let spec = Gen.us_backbone () in
  let g = Gen.overlay_graph spec in
  let w =
    Array.init (Graph.link_count g) (fun l ->
        let a, b = Graph.endpoints g l in
        Option.value ~default:(Strovl_sim.Time.ms 10)
          (Gen.overlay_link_delay spec ~isp:0 a b))
  in
  let weight l = w.(l) in
  ignore (Dijkstra.run ~weight g 0);
  let runs = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Dijkstra.run ~weight g 0)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int runs in
  if words > 400. then
    Alcotest.failf "Dijkstra.run: %.1f minor words per run (bound 400)" words

let qcheck_dijkstra_next_hop_consistent =
  QCheck.Test.make ~name:"following next hops decreases distance" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Strovl_sim.Rng.create (Int64.of_int seed) in
      let spec = Gen.random_geometric rng ~n:14 ~radius:0.45 ~nisps:1 in
      let g = Gen.overlay_graph spec in
      let w l = max 1 l in
      let r = Dijkstra.run ~weight:w g 0 in
      let hops = Dijkstra.next_hops g r in
      let ok = ref true in
      for v = 1 to Graph.n g - 1 do
        match hops.(v) with
        | None -> if r.Dijkstra.dist.(v) <> max_int then ok := false
        | Some (nbr, l) ->
          let a, b = Graph.endpoints g l in
          if not ((a = 0 && b = nbr) || (b = 0 && a = nbr)) then ok := false;
          if r.Dijkstra.dist.(nbr) >= r.Dijkstra.dist.(v) && v <> nbr then
            if r.Dijkstra.dist.(v) <> max_int then ok := false
      done;
      !ok)

(* ------------------------------ Disjoint ----------------------------- *)

let disjoint_diamond () =
  let g, w, _ = diamond () in
  check_int "two disjoint paths" 2 (Disjoint.max_disjoint g 0 3);
  let ps = Disjoint.paths ~weight:w ~k:2 g 0 3 in
  check_int "got 2" 2 (List.length ps);
  check_bool "verified" true (Disjoint.verify_disjoint g 0 3 ps);
  let ps3 = Disjoint.paths ~weight:w ~k:3 g 0 3 in
  check_int "only 2 exist" 2 (List.length ps3)

let disjoint_chain () =
  let spec = Gen.chain ~n:5 ~hop_delay:10 in
  let g = Gen.overlay_graph spec in
  check_int "chain has 1" 1 (Disjoint.max_disjoint g 0 4);
  let ps = Disjoint.paths ~weight:(fun _ -> 1) ~k:2 g 0 4 in
  check_int "one path" 1 (List.length ps);
  Alcotest.(check (list int)) "path nodes" [ 0; 1; 2; 3; 4 ]
    (Disjoint.path_nodes g 0 (List.hd ps))

let disjoint_circulant () =
  let spec = Gen.circulant ~n:8 ~jumps:[ 1; 2 ] ~hop_delay:10 in
  let g = Gen.overlay_graph spec in
  check_int "C8(1,2) connectivity 4" 4 (Disjoint.max_disjoint g 0 4);
  let ps = Disjoint.paths ~weight:(fun _ -> 10) ~k:4 g 0 4 in
  check_int "4 paths" 4 (List.length ps);
  check_bool "disjoint" true (Disjoint.verify_disjoint g 0 4 ps)

let disjoint_min_total_weight () =
  let g, w, (l01, l13, l02, l23, l12) = diamond () in
  ignore l12;
  let ps = Disjoint.paths ~weight:w ~k:2 g 0 3 in
  let total =
    List.fold_left
      (fun acc p -> acc + List.fold_left (fun a l -> a + w l) 0 p)
      0 ps
  in
  (* Optimal pair: (0-1-3)=2 and (0-2-3)=4, total 6. *)
  check_int "min total weight" 6 total;
  check_bool "uses both sides" true
    (List.exists (fun p -> List.mem l01 p && List.mem l13 p) ps
    && List.exists (fun p -> List.mem l02 p && List.mem l23 p) ps)

let qcheck_disjoint_valid =
  QCheck.Test.make ~name:"disjoint paths are valid and disjoint" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Strovl_sim.Rng.create (Int64.of_int seed) in
      let spec = Gen.random_geometric rng ~n:12 ~radius:0.5 ~nisps:1 in
      let g = Gen.overlay_graph spec in
      let src = 0 and dst = Graph.n g - 1 in
      let ps = Disjoint.paths ~weight:(fun _ -> 1) ~k:3 g src dst in
      ps = [] || Disjoint.verify_disjoint g src dst ps)

let qcheck_disjoint_count_matches_mincut =
  QCheck.Test.make ~name:"paths count = max_disjoint when k large" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Strovl_sim.Rng.create (Int64.of_int seed) in
      let spec = Gen.random_geometric rng ~n:10 ~radius:0.5 ~nisps:1 in
      let g = Gen.overlay_graph spec in
      let src = 0 and dst = Graph.n g - 1 in
      let k = Disjoint.max_disjoint g src dst in
      let ps = Disjoint.paths ~weight:(fun _ -> 1) ~k:99 g src dst in
      List.length ps = k)

(* ------------------------------ Bitmask ------------------------------ *)

let bitmask_basics () =
  let m = Bitmask.create ~nlinks:130 in
  check_bool "empty" true (Bitmask.is_empty m);
  Bitmask.set m 0;
  Bitmask.set m 64;
  Bitmask.set m 129;
  check_int "count" 3 (Bitmask.count m);
  check_bool "mem 64" true (Bitmask.mem m 64);
  check_bool "not mem 1" false (Bitmask.mem m 1);
  Bitmask.clear m 64;
  check_bool "cleared" false (Bitmask.mem m 64);
  Alcotest.(check (list int)) "to_links" [ 0; 129 ] (Bitmask.to_links m);
  check_int "bytes (3 words)" 24 (Bitmask.byte_size m)

let bitmask_setops () =
  let a = Bitmask.of_links ~nlinks:70 [ 1; 2; 3 ] in
  let b = Bitmask.of_links ~nlinks:70 [ 3; 4; 69 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 69 ]
    (Bitmask.to_links (Bitmask.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitmask.to_links (Bitmask.inter a b));
  check_bool "equal copy" true (Bitmask.equal a (Bitmask.copy a));
  let f = Bitmask.full ~nlinks:70 in
  check_int "full count" 70 (Bitmask.count f);
  Alcotest.check_raises "range" (Invalid_argument "Bitmask: link out of range")
    (fun () -> ignore (Bitmask.mem a 70))

let qcheck_bitmask_roundtrip =
  QCheck.Test.make ~name:"of_links/to_links roundtrip" ~count:300
    QCheck.(list (int_bound 199))
    (fun links ->
      let m = Bitmask.of_links ~nlinks:200 links in
      Bitmask.to_links m = List.sort_uniq compare links)

(* ------------------------------- Mcast ------------------------------- *)

let mcast_tree_covers () =
  let spec = Gen.us_backbone () in
  let g = Gen.overlay_graph spec in
  let w _ = 1 in
  let members = [ 8; 11; 2 ] in
  let tree = Mcast.shortest_path_tree ~weight:w g ~source:0 ~members in
  List.iter (fun m -> check_bool "covers member" true (Mcast.covers tree m)) members;
  check_bool "tree smaller than unicast" true
    (Mcast.link_cost tree <= Mcast.unicast_link_cost ~weight:w g ~source:0 ~members);
  (* out_links partition the tree links *)
  let out_total = Array.fold_left (fun acc l -> acc + List.length l) 0 tree.Mcast.out_links in
  check_int "out links = tree links" (Mcast.link_cost tree) out_total

let mcast_unreachable_member () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_link g 0 1);
  let tree = Mcast.shortest_path_tree ~weight:(fun _ -> 1) g ~source:0 ~members:[ 1; 2 ] in
  check_bool "reachable covered" true (Mcast.covers tree 1);
  check_bool "unreachable dropped" false (Mcast.covers tree 2)

let qcheck_mcast_tree_size =
  QCheck.Test.make ~name:"tree links <= unicast links" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Strovl_sim.Rng.create (Int64.of_int seed) in
      let spec = Gen.random_geometric rng ~n:12 ~radius:0.5 ~nisps:1 in
      let g = Gen.overlay_graph spec in
      let members = [ Graph.n g - 1; Graph.n g / 2 ] in
      let w _ = 1 in
      let tree = Mcast.shortest_path_tree ~weight:w g ~source:0 ~members in
      Mcast.link_cost tree <= Mcast.unicast_link_cost ~weight:w g ~source:0 ~members)

(* ------------------------------- Dissem ------------------------------ *)

let dissem_single_is_shortest () =
  let g, w, (l01, l13, _, _, _) = diamond () in
  let m = Dissem.build ~weight:w g ~src:0 ~dst:3 Dissem.Single_path in
  Alcotest.(check (list int)) "shortest path links" [ l01; l13 ] (Bitmask.to_links m)

let dissem_flooding_all () =
  let g, w, _ = diamond () in
  let m = Dissem.build ~weight:w g ~src:0 ~dst:3 Dissem.Flooding in
  check_int "all links" 5 (Bitmask.count m)

let dissem_two_disjoint_survives () =
  let g, w, _ = diamond () in
  let m = Dissem.build ~weight:w g ~src:0 ~dst:3 Dissem.Two_disjoint in
  check_bool "connects" true (Dissem.connects g m ~src:0 ~dst:3);
  (* Removing any single interior node leaves a path. *)
  List.iter
    (fun victim ->
      let down l =
        let a, b = Graph.endpoints g l in
        a = victim || b = victim
      in
      check_bool "survives one node" true (Dissem.connects ~down g m ~src:0 ~dst:3))
    [ 1; 2 ]

let dissem_cost_ordering () =
  let spec = Gen.us_backbone () in
  let g = Gen.overlay_graph spec in
  let w _ = 1 in
  let c s = Dissem.cost (Dissem.build ~weight:w g ~src:5 ~dst:11 s) in
  check_bool "single <= 2disjoint" true (c Dissem.Single_path <= c Dissem.Two_disjoint);
  check_bool "2disjoint <= src-problem" true (c Dissem.Two_disjoint <= c Dissem.Source_problem);
  check_bool "src-problem <= flooding" true (c Dissem.Source_problem <= c Dissem.Flooding);
  check_bool "robust >= src-problem" true (c Dissem.Robust_both >= c Dissem.Source_problem)

let dissem_scheme_names () =
  Alcotest.(check string) "name" "3-disjoint" (Dissem.scheme_name (Dissem.K_disjoint 3));
  Alcotest.(check string) "name" "flooding" (Dissem.scheme_name Dissem.Flooding)

(* -------------------------------- Gen -------------------------------- *)

let gen_us_backbone () =
  let spec = Gen.us_backbone () in
  let g = Gen.overlay_graph spec in
  check_int "12 sites" 12 (Graph.n g);
  check_bool "connected" true (Graph.connected g);
  check_int "3 isps" 3 spec.Gen.nisps;
  (* Overlay links should be shortish: most under ~15ms. *)
  let delays =
    Array.to_list
      (Array.map
         (fun (a, b) -> Gen.geo_delay_us spec.Gen.sites.(a) spec.Gen.sites.(b))
         spec.Gen.overlay_links)
  in
  let sorted = List.sort compare delays in
  let median = List.nth sorted (List.length sorted / 2) in
  check_bool "median link ~<=10ms" true (median <= Strovl_sim.Time.ms 11)

let gen_isp_paths () =
  let spec = Gen.us_backbone () in
  (* ISP 0 covers everything directly. *)
  Alcotest.(check bool) "isp0 SEA-SFO" true
    (Gen.overlay_link_delay spec ~isp:0 0 1 <> None);
  (* ISP 1 has no Phoenix fiber at all: PHX (site 3) is unreachable there. *)
  Alcotest.(check (option int)) "phx off-net on isp1" None
    (Gen.overlay_link_delay spec ~isp:1 2 3);
  (* ISP 2 lacks MIA-WAS fiber but detours via Atlanta. *)
  (match Gen.overlay_link_delay spec ~isp:2 8 9 with
  | Some d ->
    check_bool "mia-was on isp2 is indirect" true
      (d > Gen.geo_delay_us spec.Gen.sites.(8) spec.Gen.sites.(9))
  | None -> Alcotest.fail "isp2 should connect MIA-WAS via detour")

let gen_global_coverage () =
  let spec = Gen.global_backbone () in
  let g = Gen.overlay_graph spec in
  check_bool "a few tens of nodes" true (Graph.n g >= 20 && Graph.n g <= 40);
  check_bool "connected" true (Graph.connected g)

let gen_chain_ring_circulant () =
  let c = Gen.chain ~n:6 ~hop_delay:10_000 in
  check_int "chain links" 5 (Array.length c.Gen.overlay_links);
  let r = Gen.ring ~n:6 ~hop_delay:10_000 in
  check_int "ring links" 6 (Array.length r.Gen.overlay_links);
  let g = Gen.overlay_graph (Gen.circulant ~n:8 ~jumps:[ 1; 2 ] ~hop_delay:10_000) in
  for v = 0 to 7 do
    check_int "4-regular" 4 (Graph.degree g v)
  done

let gen_geo_delay_sane () =
  let ny = { Gen.name = "NYC"; lat = 40.71; lon = -74.01 } in
  let la = { Gen.name = "LAX"; lat = 34.05; lon = -118.25 } in
  let d = Gen.geo_delay_us ny la in
  (* ~3940 km great circle -> ~25.6ms with the 1.3 factor. *)
  check_bool "NYC-LAX ~25ms" true (d > 20_000 && d < 32_000);
  check_int "zero distance" 0 (Gen.geo_delay_us ny ny)

let qcheck_random_geometric_connected =
  QCheck.Test.make ~name:"random_geometric always connected" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Strovl_sim.Rng.create (Int64.of_int seed) in
      let spec = Gen.random_geometric rng ~n:15 ~radius:0.3 ~nisps:2 in
      Graph.connected (Gen.overlay_graph spec))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "strovl_topo"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick graph_basics;
          Alcotest.test_case "errors" `Quick graph_errors;
          Alcotest.test_case "usable reachability" `Quick graph_usable_reachability;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "distances" `Quick dijkstra_distances;
          Alcotest.test_case "next hops" `Quick dijkstra_next_hops;
          Alcotest.test_case "unreachable" `Quick dijkstra_unreachable;
          Alcotest.test_case "usable reroute" `Quick dijkstra_usable_reroute;
          Alcotest.test_case "diameter" `Quick dijkstra_diameter;
          Alcotest.test_case "minor words per run" `Quick dijkstra_words;
          q qcheck_dijkstra_next_hop_consistent;
        ] );
      ( "disjoint",
        [
          Alcotest.test_case "diamond" `Quick disjoint_diamond;
          Alcotest.test_case "chain" `Quick disjoint_chain;
          Alcotest.test_case "circulant" `Quick disjoint_circulant;
          Alcotest.test_case "min total weight" `Quick disjoint_min_total_weight;
          q qcheck_disjoint_valid;
          q qcheck_disjoint_count_matches_mincut;
        ] );
      ( "bitmask",
        [
          Alcotest.test_case "basics" `Quick bitmask_basics;
          Alcotest.test_case "set ops" `Quick bitmask_setops;
          q qcheck_bitmask_roundtrip;
        ] );
      ( "mcast",
        [
          Alcotest.test_case "tree covers" `Quick mcast_tree_covers;
          Alcotest.test_case "unreachable member" `Quick mcast_unreachable_member;
          q qcheck_mcast_tree_size;
        ] );
      ( "dissem",
        [
          Alcotest.test_case "single is shortest" `Quick dissem_single_is_shortest;
          Alcotest.test_case "flooding all" `Quick dissem_flooding_all;
          Alcotest.test_case "2-disjoint survives" `Quick dissem_two_disjoint_survives;
          Alcotest.test_case "cost ordering" `Quick dissem_cost_ordering;
          Alcotest.test_case "scheme names" `Quick dissem_scheme_names;
        ] );
      ( "gen",
        [
          Alcotest.test_case "us backbone" `Quick gen_us_backbone;
          Alcotest.test_case "isp paths" `Quick gen_isp_paths;
          Alcotest.test_case "global coverage" `Quick gen_global_coverage;
          Alcotest.test_case "chain/ring/circulant" `Quick gen_chain_ring_circulant;
          Alcotest.test_case "geo delay" `Quick gen_geo_delay_sane;
          q qcheck_random_geometric_connected;
        ] );
    ]
