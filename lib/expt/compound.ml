(** compound-flow: §V-C in-network transformation.

    A live video feed from SEA is sent to a transcoding *anycast* group;
    facilities at CHI and ATL join it. The chosen facility transcodes
    (5 ms, halving the bitrate) and re-originates into the delivery
    multicast group that NYC and MIA have joined. Mid-run the active
    facility fails — gracefully (leaves the group) or by crashing — and
    the flow must re-select a facility: "network conditions and failures
    may lead to rerouting that can include the selection of a transcoding
    facility at a different location".

    Measured at the receivers: delivery rate, mean glass-to-glass latency
    (source timestamp through transcoding), and the failover gap. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let source = 0 (* SEA *)
let facilities = [ 6; 7 ] (* CHI, ATL *)
let receivers = [ 10; 8 ] (* NYC, MIA *)
let ingest_group = 50
let out_group = 51

let run_case ~seed ~duration ~crash =
  let sim = Common.build ~seed (Gen.us_backbone ()) in
  let trans =
    List.map
      (fun node ->
        Strovl_apps.Transcode.create ~net:sim.net ~node ~port:70 ~ingest_group
          ~out_group)
      facilities
  in
  let rxs =
    List.map
      (fun node ->
        let c = Strovl.Client.attach (Strovl.Net.node sim.net node) ~port:71 in
        Strovl.Client.join c ~group:out_group;
        let collect = Strovl_apps.Collect.create sim.engine () in
        Strovl_apps.Collect.attach collect c ();
        (node, collect))
      receivers
  in
  Common.run_for sim (Time.sec 1);
  let tx = Strovl.Client.attach (Strovl.Net.node sim.net source) ~port:72 in
  let sender =
    Strovl.Client.sender tx ~dest:(Strovl.Packet.Any_of_group ingest_group)
      ~dport:70 ()
  in
  let src =
    Strovl_apps.Source.video ~engine:sim.engine ~sender ~mbps:4.0 ()
  in
  Common.run_for sim (duration / 2);
  (* Fail whichever facility has been doing the work. *)
  let active =
    List.fold_left
      (fun best f ->
        match best with
        | Some b
          when Strovl_apps.Transcode.processed b
               >= Strovl_apps.Transcode.processed f ->
          best
        | _ -> Some f)
      None trans
  in
  (match active with
  | Some f ->
    if crash then
      Strovl_attack.Behavior.apply sim.net ~rng:sim.rng
        ~node:(Strovl_apps.Transcode.node_id f)
        Strovl_attack.Behavior.Crash
    else Strovl_apps.Transcode.shutdown f
  | None -> ());
  Common.run_for sim (duration / 2);
  Strovl_apps.Source.stop src;
  Common.run_for sim (Time.sec 1);
  let sent = Strovl_apps.Source.sent src in
  let processed = List.map Strovl_apps.Transcode.processed trans in
  List.map
    (fun (node, collect) ->
      [
        (if crash then "facility crash" else "graceful shutdown");
        Printf.sprintf "rx@%d" node;
        Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
        Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
        Table.cell_ms (Strovl_apps.Collect.max_gap_ms collect);
        String.concat "/" (List.map string_of_int processed);
      ])
    rxs

let run ?(quick = false) ~seed () =
  let duration = if quick then Time.sec 4 else Time.sec 10 in
  let rows =
    List.concat_map (fun crash -> run_case ~seed ~duration ~crash) [ false; true ]
  in
  Table.make ~id:"compound-flow"
    ~title:
      "Compound flow: SEA video -> anycast transcoder (CHI/ATL) -> multicast \
       delivery (NYC, MIA) with mid-run facility failover"
    ~header:
      [ "scenario"; "receiver"; "delivered"; "mean g2g"; "max gap"; "processed" ]
    ~notes:
      [
        "paper: failures may reroute the flow to a transcoding facility at \
         a different location (SV-C)";
        "graceful failover = membership flood (~10s of ms gap); crash \
         failover = hello timeout (~400ms gap)";
        "latency includes the 5ms transcode; 'processed' = packets per \
         facility, showing the switch";
      ]
    rows
