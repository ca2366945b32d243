(* Session client for a live overlay daemon. Opens a virtual port on the
   daemon at --node (Strovl_rt.Session_client), optionally joins a
   multicast group, injects a flow, and/or waits for deliveries, reporting
   one-way latency (valid on one host: daemons stamp packets with the
   shared CLOCK_MONOTONIC epoch — see EXPERIMENTS.md on sim-vs-real
   parity). Exits non-zero if any send is refused or fewer than --expect
   packets arrive before --timeout-sec. *)

open Cmdliner
module Packet = Strovl.Packet
module Client = Strovl_rt.Session_client
module Clock = Strovl_rt.Clock

let ( let* ) = Result.bind

let parse_service s =
  match String.lowercase_ascii s with
  | "best-effort" | "be" -> Ok Packet.Best_effort
  | "reliable" -> Ok Packet.Reliable
  | "realtime" ->
    Ok (Packet.Realtime { deadline = Strovl_sim.Time.ms 200 })
  | "it-priority" -> Ok (Packet.It_priority 1)
  | "it-reliable" -> Ok Packet.It_reliable
  | "fec" -> Ok Packet.Fec
  | _ ->
    Error (Printf.sprintf "unknown service %S (%s)" s
        "best-effort|reliable|realtime|it-priority|it-reliable|fec")

let main topo_path node_id sport dest_node group group_send anycast dport
    service_name count bytes interval_ms expect timeout_sec tag stats =
  let result =
    let* topo = Strovl_rt.Topofile.load topo_path in
    let* () =
      if node_id >= 0 && node_id < Array.length topo.Strovl_rt.Topofile.nodes
      then Ok ()
      else Error (Printf.sprintf "no node %d in %s" node_id topo_path)
    in
    let* service = parse_service service_name in
    let* dest =
      match (dest_node, group_send, anycast) with
      | Some n, None, None -> Ok (Some (Packet.To_node n))
      | None, Some g, None -> Ok (Some (Packet.To_group g))
      | None, None, Some g -> Ok (Some (Packet.Any_of_group g))
      | None, None, None -> Ok None
      | _ -> Error "--dest, --group-send and --anycast are mutually exclusive"
    in
    let daemon = Strovl_rt.Topofile.addr topo node_id in
    let c = Client.create (Strovl_rt.Udp.bind ~host:"" ~port:0) ~daemon ~sport in
    let wait = Client.wait_readable c in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        let* daemon_node =
          Option.to_result (Client.open_session c ~wait)
            ~none:"no Open_ok from daemon (is strovl_node running?)"
        in
        Printf.printf "opened session: daemon node %d, sport %d\n%!"
          daemon_node sport;
        Option.iter
          (fun g ->
            Client.join c g;
            Printf.printf "joined group %d\n%!" g)
          group;
        let deadline = Clock.now_us () + (timeout_sec * 1_000_000) in
        let lat_min = ref max_int and lat_max = ref 0 and lat_sum = ref 0 in
        let note _at pkt =
          let lat = Clock.now_us () - pkt.Packet.sent_at in
          if lat >= 0 then begin
            lat_min := min !lat_min lat;
            lat_max := max !lat_max lat;
            lat_sum := !lat_sum + lat
          end
        in
        Option.iter
          (fun dest ->
            for seq = 0 to count - 1 do
              Client.send_batch c ~dest ~dport ~service ~bytes ~tag ~first:seq 1;
              if interval_ms > 0 && seq < count - 1 then
                Unix.sleepf (float_of_int interval_ms /. 1e3);
              (* keep taking acks and deliveries while pacing the flow *)
              Client.poll c;
              Client.iter_deliveries c note
            done)
          dest;
        ignore
          (Client.until c ~wait ~deadline (fun () ->
               Client.iter_deliveries c note;
               Client.delivered c >= expect && Client.acks c >= Client.sends c));
        let delivers = Client.delivered c and refused = Client.refused c in
        if dest <> None then
          Printf.printf "sent %d: %d acknowledged, %d refused\n%!" count
            (Client.acks c) refused;
        if expect > 0 || delivers > 0 then
          if delivers > 0 then
            Printf.printf
              "delivered %d: one-way latency ms min/mean/max = \
               %.3f/%.3f/%.3f\n\
               %!"
              delivers
              (float_of_int !lat_min /. 1e3)
              (float_of_int !lat_sum /. float_of_int delivers /. 1e3)
              (float_of_int !lat_max /. 1e3)
          else Printf.printf "delivered 0\n%!";
        if stats then begin
          match Client.stats c ~wait ~deadline:(Clock.now_us () + 1_000_000) with
          | Some json -> print_endline json
          | None -> prerr_endline "no stats reply"
        end;
        if refused > 0 then Error (Printf.sprintf "%d sends refused" refused)
        else if delivers < expect then
          Error
            (Printf.sprintf "expected %d deliveries, got %d before timeout"
               expect delivers)
        else Ok ())
  in
  match result with
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "strovl_send: %s\n" e;
    1

let flag_arg kind default names docv doc =
  Arg.(value & opt kind default & info names ~docv ~doc)

let some_int names docv doc = flag_arg Arg.(some int) None names docv doc

let required_arg kind names docv doc =
  Arg.(required & opt (some kind) None & info names ~docv ~doc)

let topo_arg =
  required_arg Arg.string [ "topo" ] "FILE" "Topology file (to find the daemon)."

let node_arg = required_arg Arg.int [ "node" ] "N" "Overlay node id of the local daemon."
let sport_arg = flag_arg Arg.int 1 [ "sport" ] "PORT" "Virtual source port to claim."
let dest_arg = some_int [ "dest" ] "N" "Unicast destination overlay node."

let group_arg = some_int [ "group" ] "G" "Join this multicast group (to receive it)."
let group_send_arg = some_int [ "group-send" ] "G" "Multicast destination group."
let anycast_arg = some_int [ "anycast" ] "G" "Anycast destination group."
let dport_arg = flag_arg Arg.int 1 [ "dport" ] "PORT" "Destination virtual port."

let service_arg =
  flag_arg Arg.string "reliable" [ "service" ] "SVC"
    "Overlay service class: best-effort, reliable, realtime, it-priority, \
     it-reliable or fec."

let count_arg = flag_arg Arg.int 10 [ "count" ] "K" "Packets to send (default 10)."
let bytes_arg = flag_arg Arg.int 1200 [ "bytes" ] "B" "Payload size per packet."

let interval_arg =
  flag_arg Arg.int 10 [ "interval-ms" ] "MS" "Pacing between sends (default 10)."

let expect_arg =
  flag_arg Arg.int 0 [ "expect" ] "K"
    "Wait for this many deliveries to the claimed sport; exit non-zero if \
     they don't arrive before the timeout."

let timeout_arg =
  flag_arg Arg.int 10 [ "timeout-sec" ] "SEC" "Overall wait budget (default 10)."

let tag_arg = flag_arg Arg.string "cli" [ "tag" ] "TAG" "Flow label echoed in traces."

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Fetch and print the daemon's stats JSON before exiting.")

let cmd =
  Cmd.v
    (Cmd.info "strovl_send"
       ~doc:"Open a client session on a live overlay daemon: send and receive flows")
    Term.(
      const main $ topo_arg $ node_arg $ sport_arg $ dest_arg $ group_arg
      $ group_send_arg $ anycast_arg $ dport_arg $ service_arg $ count_arg
      $ bytes_arg $ interval_arg $ expect_arg $ timeout_arg $ tag_arg
      $ stats_arg)

let () = exit (Cmd.eval' cmd)
