(* Session client for a live overlay daemon. Opens a virtual port on the
   daemon at --node over the Wire.Session protocol, optionally joins a
   multicast group, injects a flow, and/or waits for deliveries, reporting
   one-way latency (valid on one host: daemons stamp packets with the
   shared CLOCK_MONOTONIC epoch — see EXPERIMENTS.md on sim-vs-real
   parity). Exits non-zero if any send is refused or fewer than --expect
   packets arrive before --timeout-sec. *)

open Cmdliner
module Wire = Strovl.Wire
module Packet = Strovl.Packet
module Udp = Strovl_rt.Udp
module Clock = Strovl_rt.Clock

let ( let* ) = Result.bind

(* Waits for one session frame until [deadline] (monotonic µs). *)
let rec recv_frame sock ~deadline =
  let now = Clock.now_us () in
  if now >= deadline then None
  else
    match
      Unix.select [ Udp.fd sock ] [] [] (float_of_int (deadline - now) /. 1e6)
    with
    | [], _, _ -> None
    | _, _, _ -> (
      match Udp.recvfrom sock with
      | Some (data, _) -> (
        match Wire.decode_datagram data with
        | Ok (Wire.Dg_session f) -> Some f
        | Ok (Wire.Dg_msg _) | Error _ -> recv_frame sock ~deadline)
      | None -> recv_frame sock ~deadline)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv_frame sock ~deadline

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
    Error
      (Printf.sprintf
         "unknown service %S (best-effort|reliable|realtime|it-priority|it-reliable|fec)"
         s)

let open_session sock daemon sport =
  (* The daemon may still be booting; retry the handshake briefly. *)
  let rec attempt n =
    if n = 0 then Error "no Open_ok from daemon (is strovl_node running?)"
    else begin
      ignore
        (Udp.sendto sock daemon
           (Wire.encode_datagram (Wire.Dg_session (Wire.Session.Open { sport }))));
      match recv_frame sock ~deadline:(Clock.now_us () + 200_000) with
      | Some (Wire.Session.Open_ok { node; sport = sp }) when sp = sport ->
        Ok node
      | _ -> attempt (n - 1)
    end
  in
  attempt 25

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
    let sock = Udp.bind ~host:"" ~port:0 in
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Udp.sendto sock daemon
             (Wire.encode_datagram
                (Wire.Dg_session (Wire.Session.Close { sport }))));
        Udp.close sock)
      (fun () ->
        let* daemon_node = open_session sock daemon sport in
        Printf.printf "opened session: daemon node %d, sport %d\n%!"
          daemon_node sport;
        (match group with
        | Some g ->
          ignore
            (Udp.sendto sock daemon
               (Wire.encode_datagram
                  (Wire.Dg_session (Wire.Session.Join { group = g; sport }))));
          Printf.printf "joined group %d\n%!" g
        | None -> ());
        let deadline = Clock.now_us () + (timeout_sec * 1_000_000) in
        let acks = ref 0 and refused = ref 0 and delivers = ref 0 in
        let lat_min = ref max_int and lat_max = ref 0 and lat_sum = ref 0 in
        let note_frame = function
          | Wire.Session.Sent { accepted; _ } ->
            incr acks;
            if not accepted then incr refused
          | Wire.Session.Deliver { pkt; _ } ->
            incr delivers;
            let lat = Clock.now_us () - pkt.Packet.sent_at in
            if lat >= 0 then begin
              lat_min := min !lat_min lat;
              lat_max := max !lat_max lat;
              lat_sum := !lat_sum + lat
            end
          | _ -> ()
        in
        (match dest with
        | Some dest ->
          for seq = 0 to count - 1 do
            ignore
              (Udp.sendto sock daemon
                 (Wire.encode_datagram
                    (Wire.Dg_session
                       (Wire.Session.Send
                          { sport; dest; dport; service; seq; bytes; tag }))));
            if interval_ms > 0 && seq < count - 1 then
              Unix.sleepf (float_of_int interval_ms /. 1e3);
            (* keep draining acks/deliveries while pacing the flow *)
            Udp.drain sock ~f:(fun data _ ->
                match Wire.decode_datagram data with
                | Ok (Wire.Dg_session f) -> note_frame f
                | _ -> ())
          done
        | None -> ());
        let want_delivers = expect in
        let rec collect () =
          if
            (!delivers < want_delivers
            || (dest <> None && !acks < count))
            && Clock.now_us () < deadline
          then (
            (match recv_frame sock ~deadline with
            | Some f -> note_frame f
            | None -> ());
            collect ())
        in
        collect ();
        if dest <> None then
          Printf.printf "sent %d: %d acknowledged, %d refused\n%!" count !acks
            !refused;
        if want_delivers > 0 || !delivers > 0 then
          if !delivers > 0 then
            Printf.printf
              "delivered %d: one-way latency ms min/mean/max = \
               %.3f/%.3f/%.3f\n\
               %!"
              !delivers
              (float_of_int !lat_min /. 1e3)
              (float_of_int !lat_sum /. float_of_int !delivers /. 1e3)
              (float_of_int !lat_max /. 1e3)
          else Printf.printf "delivered 0\n%!";
        if stats then begin
          ignore
            (Udp.sendto sock daemon
               (Wire.encode_datagram
                  (Wire.Dg_session (Wire.Session.Stats_req { what = 0 }))));
          match recv_frame sock ~deadline:(Clock.now_us () + 1_000_000) with
          | Some (Wire.Session.Stats { json }) -> print_endline json
          | _ -> prerr_endline "no stats reply"
        end;
        if !refused > 0 then Error (Printf.sprintf "%d sends refused" !refused)
        else if !delivers < want_delivers then
          Error
            (Printf.sprintf "expected %d deliveries, got %d before timeout"
               want_delivers !delivers)
        else Ok ())
  in
  match result with
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "strovl_send: %s\n" e;
    1

let topo_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "topo" ] ~docv:"FILE" ~doc:"Topology file (to find the daemon).")

let node_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "node" ] ~docv:"N" ~doc:"Overlay node id of the local daemon.")

let sport_arg =
  Arg.(
    value & opt int 1
    & info [ "sport" ] ~docv:"PORT" ~doc:"Virtual source port to claim.")

let dest_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "dest" ] ~docv:"N" ~doc:"Unicast destination overlay node.")

let group_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "group" ] ~docv:"G"
        ~doc:"Join this multicast group (to receive it).")

let group_send_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "group-send" ] ~docv:"G" ~doc:"Multicast destination group.")

let anycast_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "anycast" ] ~docv:"G" ~doc:"Anycast destination group.")

let dport_arg =
  Arg.(
    value & opt int 1
    & info [ "dport" ] ~docv:"PORT" ~doc:"Destination virtual port.")

let service_arg =
  Arg.(
    value & opt string "reliable"
    & info [ "service" ] ~docv:"SVC"
        ~doc:
          "Overlay service class: best-effort, reliable, realtime, \
           it-priority, it-reliable or fec.")

let count_arg =
  Arg.(
    value & opt int 10
    & info [ "count" ] ~docv:"K" ~doc:"Packets to send (default 10).")

let bytes_arg =
  Arg.(
    value & opt int 1200
    & info [ "bytes" ] ~docv:"B" ~doc:"Payload size per packet.")

let interval_arg =
  Arg.(
    value & opt int 10
    & info [ "interval-ms" ] ~docv:"MS"
        ~doc:"Pacing between sends (default 10).")

let expect_arg =
  Arg.(
    value & opt int 0
    & info [ "expect" ] ~docv:"K"
        ~doc:
          "Wait for this many deliveries to the claimed sport; exit \
           non-zero if they don't arrive before the timeout.")

let timeout_arg =
  Arg.(
    value & opt int 10
    & info [ "timeout-sec" ] ~docv:"SEC"
        ~doc:"Overall wait budget (default 10).")

let tag_arg =
  Arg.(
    value & opt string "cli"
    & info [ "tag" ] ~docv:"TAG" ~doc:"Flow label echoed in traces.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Fetch and print the daemon's stats JSON before exiting.")

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
