(** remote-manip: §V-A real-time remote manipulation.

    One-way budget 65 ms (130 ms round trip for natural interaction) —
    only ~20-25 ms of slack over continental propagation, too tight for
    multi-strike recovery. The paper's direction: a single-strike recovery
    protocol [6,7] combined with *dissemination graphs* [2] that add
    targeted redundancy where the trouble is.

    Scenario: a "problem area" around the source (every fiber segment
    incident to DFW suffers bursty loss); haptic traffic DFW→BOS. Compared:
    link-state single path, uniform 2-disjoint, the source-problem
    dissemination graph (fans out over all source-adjacent links), and
    constrained flooding — by on-time fraction and by edge cost (copies on
    the wire per packet). *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module Dissem = Strovl_topo.Dissem

let src = 5 (* DFW: degree 5, a fan-out-capable source *)
let dst = 11 (* BOS *)
let deadline = Time.ms 65

let single_strike =
  {
    Strovl.Realtime_link.n_requests = 1;
    m_retrans = 1;
    budget = Time.ms 20;
    history = 8192;
    request_spacing = None;
    retrans_spacing = None;
  }

let schemes =
  [
    ("single-path", Strovl.Client.Table);
    ("2-disjoint", Strovl.Client.Scheme Dissem.Two_disjoint);
    ("src-problem", Strovl.Client.Scheme Dissem.Source_problem);
    ("flooding", Strovl.Client.Scheme Dissem.Flooding);
  ]

let run_scheme ~seed ~count (name, route) =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        { Strovl.Node.default_config with Strovl.Node.realtime = single_strike };
    }
  in
  let sim = Common.build ~config ~seed (Gen.us_backbone ()) in
  (* Problem area: bursty loss on every segment touching the source. *)
  let rng = sim.rng in
  Strovl_net.Underlay.set_all_segment_loss (Strovl.Net.underlay sim.net)
    (fun si s ->
      if s.Gen.seg_a = src || s.Gen.seg_b = src then
        (* A severe problem area: each source-adjacent segment spends ~20%
           of the time in a total-loss burst of ~40ms — longer than the
           single-strike recovery can bridge on its own. *)
        Loss.gilbert_elliott
          (Rng.split_named rng (Printf.sprintf "pa/%d" si))
          ~p_good_loss:0. ~p_bad_loss:1. ~mean_good:(Time.ms 160)
          ~mean_bad:(Time.ms 40)
      else Loss.perfect);
  let before = Common.total_forwarded sim in
  let collect, sent =
    Common.flow_stats sim ~src ~dst
      ~service:(Strovl.Packet.Realtime { deadline })
      ~route ~deadline ~interval:(Time.ms 2) ~bytes:64 ~count ()
  in
  let copies =
    float_of_int (Common.total_forwarded sim - before) /. float_of_int (max 1 sent)
  in
  [
    name;
    Table.cell_pct (Strovl_apps.Collect.on_time_fraction collect ~sent);
    Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
    Table.cell_ms (Strovl_apps.Collect.p99_ms collect);
    Table.cell_f copies;
  ]

let run ?(quick = false) ~seed () =
  let count = if quick then 500 else 5000 in
  let rows = List.map (run_scheme ~seed ~count) schemes in
  Table.make ~id:"remote-manip"
    ~title:
      "65ms one-way haptic flow with a bursty problem area around the \
       source (DFW->BOS, single-strike recovery)"
    ~header:[ "scheme"; "on-time(65ms)"; "delivered"; "p99"; "copies/pkt" ]
    ~notes:
      [
        "paper: dissemination graphs add targeted redundancy in \
         problematic areas at a fraction of flooding's cost (SV-A)";
        "expected ordering: single < 2-disjoint < src-problem ~ flooding \
         on-time, with src-problem far cheaper than flooding";
      ]
    rows
