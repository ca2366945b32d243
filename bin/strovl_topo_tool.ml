(* Topology inspection tool: stats, Graphviz export, and per-pair routing /
   dissemination analysis for the built-in resilient topologies (§II-A). *)

open Cmdliner
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Dijkstra = Strovl_topo.Dijkstra
module Disjoint = Strovl_topo.Disjoint
module Dissem = Strovl_topo.Dissem

(* Synthetic topologies take N sites within [lo, max_sites]: [Gen] rejects
   fewer, and the all-pairs [info] diameter grows as N^2 log N. *)
let max_sites = 1024

let parse_spec name =
  let hop_delay = Strovl_sim.Time.ms 10 in
  let sized n ~lo make =
    match int_of_string_opt n with
    | Some n when n >= lo && n <= max_sites -> Ok (make n)
    | _ ->
      Error
        (`Msg
          (Printf.sprintf "%s: N must be an integer in [%d, %d]" name lo
             max_sites))
  in
  match String.split_on_char ':' name with
  | [ "us" ] -> Ok (Gen.us_backbone ())
  | [ "global" ] -> Ok (Gen.global_backbone ())
  | [ "chain"; n ] -> sized n ~lo:2 (fun n -> Gen.chain ~n ~hop_delay)
  | [ "ring"; n ] -> sized n ~lo:3 (fun n -> Gen.ring ~n ~hop_delay)
  | [ "circulant"; n ] ->
    sized n ~lo:3 (fun n -> Gen.circulant ~n ~jumps:[ 1; 2 ] ~hop_delay)
  | _ -> Error (`Msg (name ^ ": expected us | global | chain:N | ring:N | circulant:N"))

let spec_conv = Arg.conv ((fun s -> parse_spec s), fun ppf _ -> Format.fprintf ppf "<topology>")

let weight_of spec g =
  let w = Array.make (Graph.link_count g) 0 in
  Graph.iter_links g (fun l a b ->
      w.(l) <-
        (match Gen.overlay_link_delay spec ~isp:0 a b with
        | Some d -> d
        | None -> Gen.geo_delay_us spec.Gen.sites.(a) spec.Gen.sites.(b)));
  fun l -> w.(l)

let show_info spec =
  let g = Gen.overlay_graph spec in
  let weight = weight_of spec g in
  Printf.printf "sites: %d   overlay links: %d   ISPs: %d   fiber segments: %d\n"
    (Graph.n g) (Graph.link_count g) spec.Gen.nisps
    (Array.length spec.Gen.segments);
  Printf.printf "diameter: %.1fms\n"
    (Strovl_sim.Time.to_ms_float (Dijkstra.diameter ~weight g));
  Printf.printf "%-6s %-5s %s\n" "site" "deg" "links (latency)";
  for v = 0 to Graph.n g - 1 do
    let nbrs =
      String.concat " "
        (List.map
           (fun (u, l) ->
             Printf.sprintf "%s(%.1fms)" spec.Gen.sites.(u).Gen.name
               (Strovl_sim.Time.to_ms_float (weight l)))
           (Graph.neighbors g v))
    in
    Printf.printf "%-6s %-5d %s\n" spec.Gen.sites.(v).Gen.name (Graph.degree g v) nbrs
  done;
  0

let dot spec =
  let g = Gen.overlay_graph spec in
  let weight = weight_of spec g in
  print_endline "graph overlay {";
  print_endline "  layout=neato; node [shape=circle, fontsize=10];";
  for v = 0 to Graph.n g - 1 do
    let s = spec.Gen.sites.(v) in
    Printf.printf "  %d [label=\"%s\", pos=\"%f,%f!\"];\n" v s.Gen.name
      (s.Gen.lon /. 10.) (s.Gen.lat /. 10.)
  done;
  Graph.iter_links g (fun l a b ->
      Printf.printf "  %d -- %d [label=\"%.0fms\"];\n" a b
        (Strovl_sim.Time.to_ms_float (weight l)));
  print_endline "}";
  0

let site_index spec name =
  let found = ref None in
  Array.iteri
    (fun i s -> if s.Gen.name = name then found := Some i)
    spec.Gen.sites;
  match !found with
  | Some i -> Ok i
  | None -> (
    match int_of_string_opt name with
    | Some i when i >= 0 && i < Array.length spec.Gen.sites -> Ok i
    | _ -> Error (name ^ ": unknown site"))

let paths spec src dst =
  let g = Gen.overlay_graph spec in
  let weight = weight_of spec g in
  match (site_index spec src, site_index spec dst) with
  | Error e, _ | _, Error e ->
    prerr_endline e;
    1
  | Ok s, Ok d ->
    let name v = spec.Gen.sites.(v).Gen.name in
    Printf.printf "max node-disjoint paths: %d\n" (Disjoint.max_disjoint g s d);
    List.iteri
      (fun i p ->
        let nodes = Disjoint.path_nodes g s p in
        let cost = List.fold_left (fun acc l -> acc + weight l) 0 p in
        Printf.printf "  path %d (%.1fms): %s\n" (i + 1)
          (Strovl_sim.Time.to_ms_float cost)
          (String.concat " -> " (List.map name nodes)))
      (Disjoint.paths ~weight ~k:4 g s d);
    Printf.printf "dissemination-graph costs (links):\n";
    List.iter
      (fun scheme ->
        let mask = Dissem.build ~weight g ~src:s ~dst:d scheme in
        Printf.printf "  %-12s %d\n" (Dissem.scheme_name scheme) (Dissem.cost mask))
      [
        Dissem.Single_path;
        Dissem.Two_disjoint;
        Dissem.Source_problem;
        Dissem.Robust_both;
        Dissem.Flooding;
      ];
    0

let spec_arg =
  Arg.(required & pos 0 (some spec_conv) None & info [] ~docv:"TOPOLOGY")

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"print topology statistics") Term.(const show_info $ spec_arg)

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"export Graphviz (neato)") Term.(const dot $ spec_arg)

let paths_cmd =
  let src = Arg.(required & pos 1 (some string) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 2 (some string) None & info [] ~docv:"DST") in
  Cmd.v
    (Cmd.info "paths" ~doc:"disjoint paths and dissemination costs between two sites")
    Term.(const paths $ spec_arg $ src $ dst)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "strovl_topo_tool"
             ~doc:"inspect the resilient overlay topologies")
          [ info_cmd; dot_cmd; paths_cmd ]))
