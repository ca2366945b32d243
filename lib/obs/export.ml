(* JSON is hand-rolled: the container has no JSON library and the shapes
   here are flat. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""

(* ------------------------------ records ------------------------------ *)

let event_fields ev =
  match (ev : Trace.event) with
  | Trace.Enqueue -> [ ("ev", json_str "enqueue") ]
  | Trace.Forward l -> [ ("ev", json_str "forward"); ("link", string_of_int l) ]
  | Trace.Drop r ->
    [ ("ev", json_str "drop"); ("reason", json_str (Trace.reason_to_string r)) ]
  | Trace.Retransmit l ->
    [ ("ev", json_str "retransmit"); ("link", string_of_int l) ]
  | Trace.Nack (l, n) ->
    [ ("ev", json_str "nack"); ("link", string_of_int l); ("lseq", string_of_int n) ]
  | Trace.Reroute (l, up) ->
    [
      ("ev", json_str "reroute");
      ("link", string_of_int l);
      ("up", if up then "true" else "false");
    ]
  | Trace.Lsu_flood -> [ ("ev", json_str "lsu_flood") ]
  | Trace.Deliver -> [ ("ev", json_str "deliver") ]
  | Trace.Fec_recover l ->
    [ ("ev", json_str "fec_recover"); ("link", string_of_int l) ]
  | Trace.Lsu_apply origin ->
    [ ("ev", json_str "lsu_apply"); ("origin", string_of_int origin) ]
  | Trace.Forward_replay l ->
    [ ("ev", json_str "forward_replay"); ("link", string_of_int l) ]
  | Trace.Deliver_replay -> [ ("ev", json_str "deliver_replay") ]
  | Trace.Strike (l, n) ->
    [ ("ev", json_str "strike"); ("link", string_of_int l); ("lseq", string_of_int n) ]

let record_json (r : Trace.record) =
  let fields =
    [
      ("run", string_of_int r.Trace.run);
      ("ts", string_of_int r.Trace.ts);
      ("node", string_of_int r.Trace.node);
    ]
    @ (if r.Trace.flow.Trace.fi_src < 0 then []
       else
         [
           ( "flow",
             Printf.sprintf "{\"src\":%d,\"sport\":%d,\"dst\":%d,\"dport\":%d}"
               r.Trace.flow.Trace.fi_src r.Trace.flow.Trace.fi_sport
               r.Trace.flow.Trace.fi_dst r.Trace.flow.Trace.fi_dport );
           ("seq", string_of_int r.Trace.seq);
         ])
    @ event_fields r.Trace.ev
  in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}"

let jsonl oc =
  Trace.iter (fun r ->
      output_string oc (record_json r);
      output_char oc '\n')

(* ------------------------------ analysis ----------------------------- *)

let drop_counts () =
  let tbl = Hashtbl.create 16 in
  Trace.iter (fun r ->
      match r.Trace.ev with
      | Trace.Drop reason ->
        let k = Trace.reason_to_string reason in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | _ -> ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let retransmit_count () =
  let n = ref 0 in
  Trace.iter (fun r ->
      match r.Trace.ev with Trace.Retransmit _ -> incr n | _ -> ());
  !n

(* A record of packet (flow, seq)'s path: its own events and the flow's
   flow-level ones; every record of the flow when [seq] is negative. *)
let on_path ~flow ~seq (r : Trace.record) =
  r.Trace.flow = flow && (seq < 0 || r.Trace.seq = seq || r.Trace.seq = -1)

let path_of ~run ~flow ~seq =
  let acc = ref [] in
  Trace.iter (fun r ->
      if r.Trace.run = run && on_path ~flow ~seq r then acc := r :: !acc);
  List.rev !acc

let runs_with ~flow ~seq =
  let runs = ref [] in
  Trace.iter (fun r ->
      if on_path ~flow ~seq r && not (List.mem r.Trace.run !runs) then
        runs := r.Trace.run :: !runs);
  List.rev !runs

let sample_packet () =
  (* One pass: remember per (run, flow, seq) whether it was delivered
     and/or retransmitted; prefer a packet whose whole story is in the
     window. *)
  let tbl :
      (int * Trace.flow_id * int, bool ref * bool ref * bool ref) Hashtbl.t =
    Hashtbl.create 256
  in
  Trace.iter (fun r ->
      if r.Trace.flow.Trace.fi_src >= 0 && r.Trace.seq >= 0 then begin
        let key = (r.Trace.run, r.Trace.flow, r.Trace.seq) in
        let enq, dlv, rtx =
          match Hashtbl.find_opt tbl key with
          | Some e -> e
          | None ->
            let e = (ref false, ref false, ref false) in
            Hashtbl.replace tbl key e;
            e
        in
        match r.Trace.ev with
        | Trace.Enqueue -> enq := true
        | Trace.Deliver -> dlv := true
        | Trace.Retransmit _ -> rtx := true
        | _ -> ()
      end);
  let best = ref None and best_score = ref (-1) in
  Hashtbl.iter
    (fun key (enq, dlv, rtx) ->
      let score =
        (if !rtx then 4 else 0) + (if !dlv then 2 else 0) + if !enq then 1 else 0
      in
      if score > !best_score || (score = !best_score && Some key < !best) then begin
        best_score := score;
        best := Some key
      end)
    tbl;
  !best

let flow_summaries () =
  let tbl : (Trace.flow_id, int ref * int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  (* First and last hop timestamp and hop count per (flow, seq): the
     consecutive deltas of a packet's sorted timestamps sum to last - first. *)
  let hops : (Trace.flow_id * int, int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 256
  in
  Trace.iter (fun r ->
      if r.Trace.flow.Trace.fi_src >= 0 then begin
        let enq, fwd, dlv, rtx =
          match Hashtbl.find_opt tbl r.Trace.flow with
          | Some e -> e
          | None ->
            let e = (ref 0, ref 0, ref 0, ref 0) in
            Hashtbl.replace tbl r.Trace.flow e;
            e
        in
        let note_hop () =
          if r.Trace.seq >= 0 then begin
            let key = (r.Trace.flow, r.Trace.seq) and ts = r.Trace.ts in
            match Hashtbl.find_opt hops key with
            | Some (first, last, n) ->
              first := min !first ts;
              last := max !last ts;
              incr n
            | None -> Hashtbl.replace hops key (ref ts, ref ts, ref 1)
          end
        in
        match r.Trace.ev with
        | Trace.Enqueue ->
          incr enq;
          note_hop ()
        | Trace.Forward _ | Trace.Forward_replay _ ->
          incr fwd;
          note_hop ()
        | Trace.Deliver | Trace.Deliver_replay ->
          incr dlv;
          note_hop ()
        | Trace.Retransmit _ -> incr rtx
        | _ -> ()
      end);
  let hop_sum : (Trace.flow_id, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (flow, _) (first, last, n) ->
      match Hashtbl.find_opt hop_sum flow with
      | Some (sum, deltas) ->
        sum := !sum + (!last - !first);
        deltas := !deltas + (!n - 1)
      | None -> Hashtbl.replace hop_sum flow (ref (!last - !first), ref (!n - 1)))
    hops;
  Hashtbl.fold
    (fun flow (enq, fwd, dlv, rtx) acc ->
      let mean_hop =
        match Hashtbl.find_opt hop_sum flow with
        | Some (sum, n) when !n > 0 -> float_of_int !sum /. float_of_int !n
        | _ -> 0.
      in
      (flow, (!enq, !fwd, !dlv, !rtx, mean_hop)) :: acc)
    tbl []
  |> List.sort compare

let links_table () =
  let tbl : (string, int ref * int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (name, labels, v) ->
      match (List.assoc_opt "link" labels, v) with
      | Some lbl, Metrics.Counter_v n ->
        let pkts, bytes, drops =
          match Hashtbl.find_opt tbl lbl with
          | Some e -> e
          | None ->
            let e = (ref 0, ref 0, ref 0) in
            Hashtbl.replace tbl lbl e;
            e
        in
        if name = "strovl_link_tx_packets_total" then pkts := !pkts + n
        else if name = "strovl_link_tx_bytes_total" then bytes := !bytes + n
        else if name = "strovl_link_queue_drops_total" then drops := !drops + n
      | _ -> ())
    (Metrics.dump ());
  Hashtbl.fold (fun lbl (p, b, d) acc -> (lbl, !p, !b, !d) :: acc) tbl []
  |> List.sort (fun (_, _, b1, _) (_, _, b2, _) -> compare b2 b1)

(* ------------------------------- output ------------------------------ *)

let point_json name labels (p : Metrics.point) =
  Printf.sprintf
    "{\"series\":%s,\"labels\":{%s},\"run\":%d,\"t0\":%d,\"n\":%d,\"sum\":%d,\"max\":%d,\"mean\":%.3f}"
    (json_str name)
    (String.concat ","
       (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) labels))
    p.Metrics.p_run p.Metrics.p_t0 p.Metrics.p_n p.Metrics.p_sum
    p.Metrics.p_max
    (if p.Metrics.p_n = 0 then 0.
     else float_of_int p.Metrics.p_sum /. float_of_int p.Metrics.p_n)

let value_json = function
  | Metrics.Counter_v n -> string_of_int n
  | Metrics.Histogram_v { count; sum; p50; p99; max } ->
    Printf.sprintf "{\"count\":%d,\"sum\":%d,\"p50\":%.1f,\"p99\":%.1f,\"max\":%d}"
      count sum p50 p99 max

let summary_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"trace\":";
  Buffer.add_string b
    (Printf.sprintf "{\"total\":%d,\"retained\":%d}" (Trace.total ())
       (Trace.length ()));
  Buffer.add_string b ",\"drops\":{";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun (k, v) -> json_str k ^ ":" ^ string_of_int v)
          (drop_counts ())));
  Buffer.add_string b "},\"retransmits\":";
  Buffer.add_string b (string_of_int (retransmit_count ()));
  Buffer.add_string b ",\"metrics\":[";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun (name, labels, v) ->
            Printf.sprintf "{\"name\":%s,\"labels\":{%s},\"value\":%s}"
              (json_str name)
              (String.concat ","
                 (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) labels))
              (value_json v))
          (Metrics.dump ())))
  ;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_flow ppf (f : Trace.flow_id) =
  Format.fprintf ppf "%d:%d->%d:%d" f.Trace.fi_src f.Trace.fi_sport
    f.Trace.fi_dst f.Trace.fi_dport

let print_path ppf ~run ~flow ~seq =
  let path = path_of ~run ~flow ~seq in
  Format.fprintf ppf "causal path for run %d flow %a seq %d (%d events)@." run
    pp_flow flow seq (List.length path);
  List.iter (fun r -> Format.fprintf ppf "  %a@." Trace.pp_record r) path

let print_summary ppf =
  Format.fprintf ppf "== trace: %d events retained (%d emitted) ==@."
    (Trace.length ()) (Trace.total ());
  let drops = drop_counts () in
  if drops <> [] then begin
    Format.fprintf ppf "@.top drop reasons:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-16s %d@." k v) drops
  end;
  Format.fprintf ppf "@.retransmits in window: %d@." (retransmit_count ());
  let links = links_table () in
  if links <> [] then begin
    Format.fprintf ppf "@.per-link utilization:@.";
    Format.fprintf ppf "  %-10s %10s %14s %8s@." "link" "packets" "bytes" "drops";
    List.iter
      (fun (lbl, p, b, d) -> Format.fprintf ppf "  %-10s %10d %14d %8d@." lbl p b d)
      links
  end;
  let flows = flow_summaries () in
  if flows <> [] then begin
    Format.fprintf ppf "@.per-flow (from trace window):@.";
    Format.fprintf ppf "  %-22s %8s %8s %8s %8s %12s@." "flow" "enq" "fwd"
      "deliver" "rtx" "mean-hop-us";
    List.iter
      (fun (flow, (enq, fwd, dlv, rtx, mean_hop)) ->
        Format.fprintf ppf "  %-22s %8d %8d %8d %8d %12.1f@."
          (Format.asprintf "%a" pp_flow flow)
          enq fwd dlv rtx mean_hop)
      flows
  end
