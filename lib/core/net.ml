open Strovl_sim
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Underlay = Strovl_net.Underlay
module Link = Strovl_net.Link
module Auth = Strovl_crypto.Auth

type config = {
  node : Node.config;
  link : Link.config;
  authenticate : bool;
}

let default_config =
  {
    node = Node.default_config;
    link = Link.default_config;
    authenticate = false;
  }

(* Key material of the registry when [authenticate]. *)
let master_secret = "strovl-master-secret"

type tamper = Pass | Drop | Replace of Msg.t | Delay of Time.t

type tap = dir:[ `Out | `In ] -> link:int -> Msg.t -> tamper

type t = {
  engine : Engine.t;
  underlay : Underlay.t;
  spec : Gen.spec;
  graph : Graph.t;
  nodes : Node.t array;
  links : Link.t array;
  metrics : int array;
  last_rotation : Time.t array;
  taps : tap option array;
  cfg : config;
  m_isp_rotations : Strovl_obs.Metrics.Counter.t;
}

let pick_isp spec underlay ~a ~b =
  (* Prefer the lowest-numbered ISP that can connect the endpoints. *)
  let rec go isp =
    if isp >= spec.Gen.nisps then 0
    else begin
      match Underlay.path_delay underlay ~isp ~src:a ~dst:b with
      | Some _ -> isp
      | None -> go (isp + 1)
    end
  in
  go 0

let create ?(config = default_config) ?underlay engine spec =
  let underlay =
    match underlay with
    | Some u -> u
    | None -> Underlay.create engine spec
  in
  let graph = Gen.overlay_graph spec in
  let nlinks = Graph.link_count graph in
  let links =
    Array.init nlinks (fun l ->
        let a, b = Graph.endpoints graph l in
        let isp = pick_isp spec underlay ~a ~b in
        Link.create ~config:config.link underlay ~a ~b ~isp)
  in
  let metrics =
    Array.init nlinks (fun l ->
        match Link.probe_delay links.(l) with
        | Some d -> d
        | None -> Time.ms 10 (* disconnected at build time; nominal *))
  in
  let registry =
    if config.authenticate then
      Some (Auth.create_registry ~master:master_secret ~nodes:(Graph.n graph))
    else None
  in
  let nodes =
    Array.init (Graph.n graph) (fun id ->
        Node.create ~config:config.node ?registry ~engine ~graph ~id
          ~metric:(fun l -> metrics.(l))
          ())
  in
  let t =
    {
      engine;
      underlay;
      spec;
      graph;
      nodes;
      links;
      metrics;
      last_rotation = Array.make nlinks Time.zero;
      taps = Array.make (Graph.n graph) None;
      cfg = config;
      m_isp_rotations = Strovl_obs.Metrics.counter "strovl_isp_rotations_total";
    }
  in
  (* Wire each endpoint of each overlay link to its node, routing every
     message through the endpoint nodes' wire taps. A tap is looked up when
     the message reaches it (sender at xmit, receiver at delivery), and the
     continuations after each tap are built once per endpoint, so an
     untapped message allocates only its delivery closure. *)
  Array.iteri
    (fun l link ->
      let a, b = Graph.endpoints graph l in
      let tapped node dir msg k =
        match t.taps.(node) with
        | None -> k msg
        | Some tap -> begin
          match tap ~dir ~link:l msg with
          | Pass -> k msg
          | Drop -> ()
          | Replace msg' -> k msg'
          | Delay d -> ignore (Engine.schedule engine ~delay:d (fun () -> k msg))
        end
      in
      let wire src dst =
        let receive msg = Node.receive t.nodes.(dst) ~link:l msg in
        let send msg =
          Link.send link ~src ~bytes:(Wire.size msg) ~deliver:(fun () ->
              tapped dst `In msg receive)
        in
        Transport.attach t.nodes.(src)
          {
            Transport.ep_link = l;
            ep_peer = dst;
            ep_bandwidth_bps = config.link.Link.bandwidth_bps;
            ep_xmit = (fun msg -> tapped src `Out msg send);
          }
      in
      wire a b;
      wire b a)
    links;
  (* Multihoming: on hello-timeout suspicion, rotate the link to another
     ISP (§II-A). Rate-limited so the endpoints don't rotate twice for one
     failure. *)
  Array.iter
    (fun node ->
      Node.set_link_suspect_hook node (fun l ->
          let now = Engine.now engine in
          let min_gap = config.node.Node.hello_timeout in
          if
            t.last_rotation.(l) = Time.zero
            || Time.sub now t.last_rotation.(l) >= min_gap
          then begin
            t.last_rotation.(l) <- now;
            let link = t.links.(l) in
            let cur = Link.current_isp link in
            let nisps = spec.Gen.nisps in
            if nisps > 1 then begin
              Strovl_obs.Metrics.Counter.incr t.m_isp_rotations;
              Link.set_isp link ((cur + 1) mod nisps)
            end
          end))
    nodes;
  t

let engine t = t.engine
let underlay t = t.underlay
let spec t = t.spec
let graph t = t.graph
let nnodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let net_link t l = t.links.(l)

let start t = Array.iter Node.start t.nodes

let settle ?(duration = Time.sec 2) t =
  Engine.run ~until:(Time.add (Engine.now t.engine) duration) t.engine

let link_metric t l = t.metrics.(l)

let set_wire_tap t ~node tap =
  if node < 0 || node >= Array.length t.taps then invalid_arg "Net.set_wire_tap";
  t.taps.(node) <- Some tap

let clear_wire_tap t ~node = t.taps.(node) <- None

let inject t ~node ~link msg =
  let a, b = Graph.endpoints t.graph link in
  if node <> a && node <> b then invalid_arg "Net.inject: node not an endpoint";
  let dst = if node = a then b else a in
  Link.send t.links.(link) ~src:node ~bytes:(Wire.size msg) ~deliver:(fun () ->
      Node.receive t.nodes.(dst) ~link msg)
