open Strovl_sim
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Underlay = Strovl_net.Underlay

type sim = { engine : Engine.t; net : Strovl.Net.t; rng : Rng.t }

(* One engine per domain, reset for every row: each row is a run of its
   own from time 0, and the pool and grown timer wheel of the rows before
   it are reused instead of allocated again. *)
let domain_engine : Engine.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let engine ~seed =
  let cell = Domain.DLS.get domain_engine in
  match !cell with
  | Some e ->
    Engine.reset e ~seed;
    e
  | None ->
    let e = Engine.create ~seed () in
    cell := Some e;
    e

let release () = Domain.DLS.get domain_engine := None

let build ?config ~seed spec =
  let engine = engine ~seed in
  let net = Strovl.Net.create ?config engine spec in
  Strovl.Net.start net;
  Strovl.Net.settle ~duration:(Time.sec 2) net;
  { engine; net; rng = Rng.split_named (Engine.rng engine) "expt" }

let bernoulli_loss sim ~p =
  Underlay.set_all_segment_loss (Strovl.Net.underlay sim.net) (fun si _ ->
      Loss.bernoulli
        (Rng.split_named sim.rng (Printf.sprintf "loss/%d" si))
        ~p)

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

let start_flow sim ~src ~sport ~dst ~dport ?service ?route ?deadline ?count
    ~interval ~bytes () =
  let tx = Strovl.Client.attach (Strovl.Net.node sim.net src) ~port:sport in
  let rx = Strovl.Client.attach (Strovl.Net.node sim.net dst) ~port:dport in
  let collect = Strovl_apps.Collect.create ?deadline sim.engine () in
  Strovl_apps.Collect.attach collect rx ();
  let sender =
    Strovl.Client.sender tx ?service ?route ~dest:(Strovl.Packet.To_node dst)
      ~dport ()
  in
  ( collect,
    Strovl_apps.Source.start ?count ~engine:sim.engine ~sender ~interval ~bytes
      () )

let flow_stats sim ~src ~dst ~service ?route ?deadline ?(interval = Time.ms 10)
    ?(bytes = 1200) ?(count = 500) ?(drain = Time.sec 2) () =
  let collect, source =
    start_flow sim ~src ~sport:(4000 + src) ~dst ~dport:(5000 + dst) ~service
      ?route ?deadline ~count ~interval ~bytes ()
  in
  run_for sim (interval * count);
  run_for sim drain;
  (collect, Strovl_apps.Source.sent source)

let total_forwarded sim =
  let acc = ref 0 in
  for i = 0 to Strovl.Net.nnodes sim.net - 1 do
    let c = Strovl.Node.counters (Strovl.Net.node sim.net i) in
    acc := !acc + c.Strovl.Node.forwarded
  done;
  !acc

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
