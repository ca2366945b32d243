(* Cross-cutting edge cases that don't belong to one component suite:
   table rendering and assorted boundary conditions. *)

open Strovl_sim
module P = Strovl.Packet
module Gen = Strovl_topo.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let table_renders_ragged_rows () =
  let t =
    Strovl_expt.Table.make ~id:"x" ~title:"t" ~header:[ "a"; "b"; "c" ]
      ~notes:[ "n" ]
      [ [ "1" ]; [ "22"; "333" ]; [ "4"; "5"; "6" ] ]
  in
  let s = Format.asprintf "%a" Strovl_expt.Table.print t in
  check_bool "renders without raising" true (String.length s > 0);
  check_bool "contains note" true (contains s "note: n");
  check_bool "contains title" true (contains s "== x: t ==")

let cells () =
  Alcotest.(check string) "pct" "12.5%" (Strovl_expt.Table.cell_pct 0.125);
  Alcotest.(check string) "ms" "3.14ms" (Strovl_expt.Table.cell_ms 3.141);
  Alcotest.(check string) "f" "2.72" (Strovl_expt.Table.cell_f 2.718)

let transmit_pair_disconnected () =
  let engine = Engine.create () in
  let u = Strovl_net.Underlay.create engine (Gen.us_backbone ()) in
  (* ISP1 has no Phoenix presence: an off-net path terminating at PHX (3)
     on ISP1 cannot exist, and transmit on it loses the packet. *)
  Alcotest.(check (option int)) "no off-net path to PHX on isp1" None
    (Strovl_net.Underlay.path_delay_pair u ~isp_src:0 ~isp_dst:1 ~src:0 ~dst:3);
  check_bool "transmit is Lost" true
    (Strovl_net.Underlay.transmit_result_pair u ~isp_src:0 ~isp_dst:1 ~src:0
       ~dst:3
    = `Lost);
  (* Same providers degenerate to the on-net path. *)
  Alcotest.(check (option int)) "pair (0,0) = on-net"
    (Strovl_net.Underlay.path_delay u ~isp:0 ~src:0 ~dst:3)
    (Strovl_net.Underlay.path_delay_pair u ~isp_src:0 ~isp_dst:0 ~src:0 ~dst:3)

let it_priority_queue_len () =
  let engine = Engine.create () in
  let ctx =
    {
      Strovl.Lproto.engine;
      node = -1;
      link = -1;
      xmit = ignore;
      up = ignore;
      try_up = (fun _ -> true);
      bandwidth_bps = 1_000_000;
      rtt_hint = Time.ms 10;
    }
  in
  let sched = Strovl.It_priority.create ~mode:Strovl.It_priority.Round_robin ctx in
  let mk seq =
    P.make
      ~flow:{ P.f_src = 4; f_sport = 1; f_dest = P.To_node 9; f_dport = 2 }
      ~routing:P.Link_state ~service:(P.It_priority 1) ~seq ~sent_at:0
      ~bytes:1000 ()
  in
  for s = 0 to 9 do
    Strovl.It_priority.send sched (mk s)
  done;
  (* One is in service; the rest queue. *)
  check_int "queue length visible" 9 (Strovl.It_priority.queue_len sched ~source:4);
  Engine.run engine;
  check_int "drained" 0 (Strovl.It_priority.queue_len sched ~source:4)

let global_backbone_isp_reach () =
  let spec = Gen.global_backbone () in
  let engine = Engine.create () in
  let u = Strovl_net.Underlay.create engine spec in
  (* ISP0 covers everything; ISP1 misses SYD-LAX and MAD-JNB fiber but both
     sites remain reachable via detours. *)
  Alcotest.(check bool) "isp1 SYD still reachable" true
    (Strovl_net.Underlay.path_delay u ~isp:1 ~src:25 ~dst:2 <> None)

let time_negative_pp () =
  check_bool "negative time prints" true (String.length (Time.to_string (-5)) > 0)

let () =
  Alcotest.run "strovl_misc"
    [
      ( "table",
        [
          Alcotest.test_case "ragged rows" `Quick table_renders_ragged_rows;
          Alcotest.test_case "cells" `Quick cells;
        ] );
      ( "edges",
        [
          Alcotest.test_case "pair disconnected" `Quick transmit_pair_disconnected;
          Alcotest.test_case "it-priority queue len" `Quick it_priority_queue_len;
          Alcotest.test_case "global isp reach" `Quick global_backbone_isp_reach;
          Alcotest.test_case "negative time pp" `Quick time_negative_pp;
        ] );
    ]
