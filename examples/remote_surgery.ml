(* Real-time remote manipulation (paper §V-A): robotic surgery across the
   country. The 130ms round-trip budget leaves ~20-25ms of slack over
   propagation — too tight for multi-round recovery — so the haptic flow
   combines single-strike recovery with a *dissemination graph* that adds
   targeted redundancy around the troubled area of the network.

   Run with: dune exec examples/remote_surgery.exe *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module P = Strovl.Packet
module Dissem = Strovl_topo.Dissem

let one_way_deadline = Time.ms 65 (* 130ms round trip / 2 *)

let () =
  let surgeon = 5 (* DFW *) and patient = 11 (* BOS *) in
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        {
          Strovl.Node.default_config with
          Strovl.Node.realtime =
            {
              Strovl.Realtime_link.n_requests = 1;
              m_retrans = 1;
              budget = Time.ms 20;
              history = 8192;
              request_spacing = None;
              retrans_spacing = None;
            };
        };
    }
  in
  let engine = Engine.create ~seed:31L () in
  let net = Strovl.Net.create ~config engine (Gen.us_backbone ()) in
  Strovl.Net.start net;
  Strovl.Net.settle net;

  (* A thunderstorm over Texas: every fiber touching DFW suffers bursty
     loss (total outage bursts of ~40ms, ~20% of the time). *)
  let rng = Rng.split_named (Engine.rng engine) "storm" in
  Strovl_net.Underlay.set_all_segment_loss (Strovl.Net.underlay net)
    (fun si s ->
      if s.Gen.seg_a = surgeon || s.Gen.seg_b = surgeon then
        Loss.gilbert_elliott
          (Rng.split_named rng (string_of_int si))
          ~p_good_loss:0. ~p_bad_loss:1. ~mean_good:(Time.ms 160)
          ~mean_bad:(Time.ms 40)
      else Loss.perfect);

  (* Each attempt is a fresh flow (new virtual ports): a flow's sequence
     space is never reused. *)
  let next_port = ref 9000 in
  let attempt label route =
    let sport = !next_port and dport = !next_port + 1 in
    next_port := !next_port + 2;
    let console = Strovl.Client.attach (Strovl.Net.node net surgeon) ~port:sport in
    let robot = Strovl.Client.attach (Strovl.Net.node net patient) ~port:dport in
    let stats = Strovl_apps.Collect.create ~deadline:one_way_deadline engine () in
    Strovl_apps.Collect.attach stats robot ();
    let sender =
      Strovl.Client.sender console
        ~service:
          (P.Realtime { deadline = one_way_deadline })
        ~route ~dest:(P.To_node patient) ~dport ()
    in
    let src =
      Strovl_apps.Source.haptic ~engine ~sender ~rate_hz:500 ~count:5000 ()
    in
    Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 12)) engine;
    let sent = Strovl_apps.Source.sent src in
    Printf.printf "  %-26s on-time(65ms)=%.2f%%  p99=%.1fms\n" label
      (100. *. Strovl_apps.Collect.on_time_fraction stats ~sent)
      (Strovl_apps.Collect.p99_ms stats);
    Strovl.Client.detach console;
    Strovl.Client.detach robot
  in
  Printf.printf "haptic control DFW->BOS through the storm (500Hz, 10s each):\n";
  attempt "single path" Strovl.Client.Table;
  attempt "2 disjoint paths" (Strovl.Client.Scheme Dissem.Two_disjoint);
  attempt "dissemination graph" (Strovl.Client.Scheme Dissem.Source_problem);
  attempt "constrained flooding" (Strovl.Client.Scheme Dissem.Flooding);
  print_endline
    "the source-problem dissemination graph matches flooding's timeliness \
     at a fraction of its bandwidth (paper SV-A)"
