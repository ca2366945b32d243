open Strovl_sim
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Underlay = Strovl_net.Underlay

type sim = { engine : Engine.t; net : Strovl.Net.t; rng : Rng.t }

let build ?config ?(settle = Time.sec 2) ~seed spec =
  let engine = Engine.create ~seed () in
  let net = Strovl.Net.create ?config engine spec in
  Strovl.Net.start net;
  Strovl.Net.settle ~duration:settle net;
  { engine; net; rng = Rng.split_named (Engine.rng engine) "expt" }

let bernoulli_loss sim ~p =
  Underlay.set_all_segment_loss (Strovl.Net.underlay sim.net) (fun si _ ->
      Loss.bernoulli
        (Rng.split_named sim.rng (Printf.sprintf "loss/%d" si))
        ~p)

let gilbert_loss sim ~mean_loss ~burst =
  (* Bad state drops everything for ~[burst]; good-state duration chosen so
     that burst/(burst+good) = mean_loss. *)
  if mean_loss <= 0. || mean_loss >= 1. then invalid_arg "gilbert_loss";
  let bad = float_of_int burst in
  let good = bad *. ((1. /. mean_loss) -. 1.) in
  Underlay.set_all_segment_loss (Strovl.Net.underlay sim.net) (fun si _ ->
      Loss.gilbert_elliott
        (Rng.split_named sim.rng (Printf.sprintf "ge/%d" si))
        ~p_good_loss:0. ~p_bad_loss:1. ~mean_good:(int_of_float good)
        ~mean_bad:(int_of_float bad))

let run_for sim d = Engine.run ~until:(Time.add (Engine.now sim.engine) d) sim.engine

let link_health sim =
  let graph = Strovl.Net.graph sim.net in
  List.concat_map
    (fun link ->
      let a, b = Graph.endpoints graph link in
      List.filter_map
        (fun n -> Strovl.Node.link_health (Strovl.Net.node sim.net n) ~link)
        [ min a b; max a b ])
    (List.init (Graph.link_count graph) Fun.id)

let flow_stats sim ~src ~dst ~service ?(route = Strovl.Client.Table) ?deadline
    ?(interval = Time.ms 10) ?(bytes = 1200) ?(count = 500)
    ?(warmup = Time.zero) ?(drain = Time.sec 2) () =
  let sport = 4000 + src and dport = 5000 + dst in
  let tx = Strovl.Client.attach (Strovl.Net.node sim.net src) ~port:sport in
  let rx = Strovl.Client.attach (Strovl.Net.node sim.net dst) ~port:dport in
  let collect = Strovl_apps.Collect.create ?deadline sim.engine () in
  Strovl_apps.Collect.attach collect rx ();
  let sender =
    Strovl.Client.sender tx ~service ~route ~dest:(Strovl.Packet.To_node dst)
      ~dport ()
  in
  let warmup_count =
    if warmup = Time.zero then 0 else max 0 (warmup / interval)
  in
  (* Note: the source emits its first packet synchronously inside [start],
     so the pre-window count must be snapshot via the warmup branch only. *)
  let source =
    Strovl_apps.Source.start ~engine:sim.engine ~sender ~interval ~bytes
      ~count:(count + warmup_count) ()
  in
  let sent_before =
    if warmup_count > 0 then begin
      run_for sim warmup;
      Strovl_apps.Collect.reset_window collect;
      Strovl_apps.Source.sent source
    end
    else 0
  in
  run_for sim (interval * count);
  run_for sim drain;
  let sent = Strovl_apps.Source.sent source - sent_before in
  Strovl.Client.detach tx;
  Strovl.Client.detach rx;
  (collect, sent)

let fail_link_on_isp sim ~link ~isp =
  let underlay = Strovl.Net.underlay sim.net in
  let spec = Strovl.Net.spec sim.net in
  let a, b = Graph.endpoints (Strovl.Net.graph sim.net) link in
  List.iter
    (fun si ->
      if spec.Gen.segments.(si).Gen.seg_isp = isp then
        Underlay.fail_segment underlay si)
    (Underlay.segments_between underlay a b)

let fail_link_everywhere sim ~link =
  let underlay = Strovl.Net.underlay sim.net in
  let a, b = Graph.endpoints (Strovl.Net.graph sim.net) link in
  List.iter
    (fun si -> Underlay.fail_segment underlay si)
    (Underlay.segments_between underlay a b)

let current_path_links sim ~src ~dst =
  let node = Strovl.Net.node sim.net src in
  Option.value ~default:[] (Strovl.Route.path (Strovl.Node.route node) ~dst)
