(* Live broadcast-quality TV (paper §IV-A): a cross-country interview link
   must deliver every frame within ~200ms one-way so the conversation feels
   natural. Internet loss is bursty, so the NM-Strikes real-time protocol
   spaces its N retransmission requests (and the M responses) across the
   recovery budget to escape the correlation window.

   Run with: dune exec examples/live_tv.exe *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let deadline = Time.ms 200

let run_protocol name service =
  let engine = Engine.create ~seed:17L () in
  (* A 40ms studio-to-studio path with bursty loss (1.5% long-run, ~80ms
     bursts dropping half the packets). *)
  let underlay = Strovl_net.Underlay.create engine (Gen.chain ~n:2 ~hop_delay:(Time.ms 40)) in
  let rng = Rng.split_named (Engine.rng engine) "bursts" in
  Strovl_net.Underlay.set_all_segment_loss underlay (fun si _ ->
      Loss.gilbert_elliott
        (Rng.split_named rng (string_of_int si))
        ~p_good_loss:0. ~p_bad_loss:0.5 ~mean_good:(Time.of_ms_float 2586.7)
        ~mean_bad:(Time.ms 80));
  let link = Strovl_net.Link.create underlay ~a:0 ~b:1 ~isp:0 in
  let collect = Strovl_apps.Collect.create ~deadline engine () in
  let e2e =
    Strovl.E2e.create engine link ~service
      ~deliver:(Strovl_apps.Collect.receiver collect)
  in
  (* 30 seconds of 8 Mbit/s video in 1316-byte TS bundles. *)
  let count = 25_000 in
  Strovl.E2e.stream e2e ~interval:(Time.us 1316) ~count;
  Engine.run engine;
  Printf.printf "%-18s on-time(200ms)=%.3f%%  late/lost=%d  wire overhead=%.3f\n"
    name
    (100. *. Strovl_apps.Collect.on_time_fraction collect ~sent:count)
    (count - Strovl_apps.Collect.on_time collect)
    (1.
    +. float_of_int (Strovl.E2e.retransmissions e2e) /. float_of_int count)

let rt n m =
  Strovl.E2e.Realtime
    {
      Strovl.Realtime_link.n_requests = n;
      m_retrans = m;
      budget = Time.ms 160;
      history = 65536;
      request_spacing = None;
      retrans_spacing = None;
    }

let () =
  print_endline "live interview, 40ms path, 200ms one-way budget, bursty loss:";
  run_protocol "raw (best effort)" Strovl.E2e.Best_effort;
  run_protocol "FEC (8,2)" Strovl.E2e.Fec;
  run_protocol "single strike" (rt 1 1);
  run_protocol "NM-strikes (3,3)" (rt 3 3);
  print_endline
    "NM-Strikes trades ~1+Mp bandwidth for near-complete timeliness \
     (paper SIV-A)"
