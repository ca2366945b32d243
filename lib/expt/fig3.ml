(** fig3-recovery: Figure 3 / §III-A.

    A 50 ms continental path as five 10 ms overlay links. The same ARQ
    machinery runs (a) end-to-end across the whole path, (b) hop-by-hop on
    each overlay link with out-of-order forwarding, and (c) hop-by-hop with
    the out-of-order ablation disabled. The paper's claim: a recovered
    packet costs ≥100 ms extra end-to-end (total ≥150 ms) but only ~20 ms
    extra hop-by-hop (total ~70 ms), and hop-by-hop delivery is smoother. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let hop = Time.ms 10
let hops = 5

let spec () = Gen.chain ~n:(hops + 1) ~hop_delay:hop

let interval = Time.ms 5

(* End-to-end baseline: the direct Internet path (all five segments) with
   the identical reliable protocol spanning it once. *)
let run_e2e ~seed ~p ~count =
  let engine = Common.engine ~seed in
  let underlay = Strovl_net.Underlay.create engine (spec ()) in
  let rng = Rng.split_named (Engine.rng engine) "e2e" in
  Strovl_net.Underlay.set_all_segment_loss underlay (fun si _ ->
      Loss.bernoulli (Rng.split_named rng (Printf.sprintf "loss/%d" si)) ~p);
  let link = Strovl_net.Link.create underlay ~a:0 ~b:hops ~isp:0 in
  let collect = Strovl_apps.Collect.create engine () in
  let e2e =
    Strovl.E2e.create engine link
      ~service:Strovl.E2e.Reliable
      ~deliver:(Strovl_apps.Collect.receiver collect)
  in
  Strovl.E2e.stream e2e ~interval ~count;
  Engine.run ~until:(interval * count + Time.sec 5) engine;
  (collect, count)

let run_overlay ~in_order ~seed ~p ~count =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        {
          Strovl.Node.default_config with
          Strovl.Node.in_order_forwarding = in_order;
        };
    }
  in
  let sim = Common.build ~config ~seed (spec ()) in
  Common.bernoulli_loss sim ~p;
  Common.flow_stats sim ~src:0 ~dst:hops ~service:Strovl.Packet.Reliable
    ~interval ~count ~drain:(Time.sec 5) ()

let schemes =
  [
    ("e2e-arq", run_e2e);
    ("hop-by-hop", run_overlay ~in_order:false);
    ("hbh-in-order", run_overlay ~in_order:true);
  ]

let row ~seed ~count p (name, scheme) =
  let collect, sent = scheme ~seed ~p ~count in
  [
    Printf.sprintf "%.1f%%" (100. *. p);
    name;
    Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
    Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
    Table.cell_ms (Strovl_apps.Collect.p99_ms collect);
    Table.cell_ms (Strovl_apps.Collect.max_ms collect);
    Table.cell_ms (Strovl_apps.Collect.jitter_ms collect);
  ]

let run ?(quick = false) ~seed () =
  let count = if quick then 400 else 4000 in
  let losses = if quick then [ 0.01 ] else [ 0.001; 0.01; 0.02; 0.05 ] in
  let rows =
    List.concat_map (fun p -> List.map (row ~seed ~count p) schemes) losses
  in
  Table.make ~id:"fig3-recovery"
    ~title:
      "50ms path: end-to-end ARQ vs five 10ms overlay links with hop-by-hop \
       recovery (per-segment Bernoulli loss)"
    ~header:[ "seg-loss"; "scheme"; "delivered"; "mean"; "p99"; "max"; "jitter" ]
    ~notes:
      [
        "paper: e2e recovery >= 150ms total; hop-by-hop ~70ms (Figure 3)";
        "p99/max capture recovered packets once loss*count >= ~100";
        "hbh-in-order ablates out-of-order forwarding (SIII-A smoothing)";
        "mean exceeds the propagation floor because in-order delivery \
         head-of-line-blocks packets behind a recovery; hop-by-hop's \
         faster recovery shrinks exactly that";
      ]
    rows
