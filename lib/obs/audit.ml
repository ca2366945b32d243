(* Online invariant auditor: a streaming consumer of trace records
   (installed as the Trace sink) that checks the overlay's own legal-state
   predicates as the simulation runs.

   Rules and their deliberate exemptions:

   - dup-deliver: a unicast (flow, seq) must reach a session exactly once.
     Replayed copies (stranded packets re-injected after a reroute) carry
     the [Deliver_replay] event and are exempt — the session layer, not the
     overlay, dedupes those by design. Group destinations deliver at many
     members and are exempt.
   - fwd-loop: no node forwards the same non-replay (flow, seq) twice on
     the same link. Retransmissions are separate [Retransmit] events, and
     multicast fan-out uses distinct links, so a repeat means the packet
     revisited the node: a routing loop.
   - recovery-budget: every reliable-link [Nack] must be answered by a
     [Retransmit] on that link within the budget. Links that ever flapped
     ([Reroute] observed) are exempt: link death legitimately strands
     gaps, which rerouting — not hop-by-hop recovery — then covers.
     NM-Strikes requests are [Strike] events, not [Nack]s, and are not
     held to the budget (semi-reliable: the protocol may give up). A
     pending nack whose budget lapses is only flagged when the link saw no
     retransmission at all since the nack was issued: nack/retransmit
     pairing is not observable from the trace (link sequence numbers are
     per-direction, and a nack can cross its answer in flight), so an
     actively retransmitting sender is given the benefit of the doubt.
   - reroute-budget: after a node reports a link down ([Reroute l false]),
     every other node must accept a fresher LSU from that origin
     ([Lsu_apply]) within the budget — the paper's sub-second reroute
     claim as a checkable predicate. The node population is inferred from
     the stream (any node that ever emitted an event) unless configured.
     At budget expiry only nodes that demonstrably kept receiving floods
     (applied some LSU after the down report) are required to have heard
     this origin — a crashed or partitioned node keeps its local timers
     (and trace presence) but cannot apply anything; and an origin heard
     by nobody is treated as partitioned itself, not as a violation.
   - fec-ghost: FEC must never "recover" a (flow, seq) the node already
     processed (forwarded, delivered, or previously recovered).

   State is bounded: per-packet tables are pruned by age once they exceed
   [max_tracked] keys, so the auditor can ride along in soaks.

   All auditor state lives in one domain-local record: each parallel run
   audits its own trace stream (the Trace sink it installs is domain-local
   too), so concurrent runs neither share packet-identity tables nor each
   other's violations. *)

type violation = {
  v_ts : int;
  v_rule : string;
  v_node : int;
  v_flow : Trace.flow_id;
  v_seq : int;
  v_detail : string;
}

type config = {
  nnodes : int option;
  recovery_budget_us : int;
  reroute_budget_us : int;
  max_tracked : int;
}

let default_config =
  {
    nnodes = None;
    recovery_budget_us = 2_000_000;
    reroute_budget_us = 1_000_000;
    max_tracked = 1 lsl 16;
  }

(* ----------------------------- state --------------------------------- *)

type st = {
  mutable armed_flag : bool;
  mutable cfg : config;
  mutable viols : violation list;
  mutable nviols : int;
  (* (flow, seq) -> first delivery (ts, node); unicast only *)
  delivered : (Trace.flow_id * int, int * int) Hashtbl.t;
  (* (flow, seq, node) -> ts the node last processed the packet *)
  seen_at : (Trace.flow_id * int * int, int) Hashtbl.t;
  (* (flow, seq, node, link) -> ts of the non-replay forward *)
  fwd : (Trace.flow_id * int * int * int, int) Hashtbl.t;
  (* (node, link, lseq) -> ts of the first nack for that gap *)
  nack_pending : (int * int * int, int) Hashtbl.t;
  nack_exempt : (int, unit) Hashtbl.t;
  (* link -> ts of the most recent retransmission on it *)
  last_retx : (int, int) Hashtbl.t;
  (* node -> ts of the most recent LSU (from any origin) it applied *)
  lsu_active : (int, int) Hashtbl.t;
  (* origin -> (down ts, nodes that applied a fresher LSU since) *)
  reroute_pending : (int, int * (int, unit) Hashtbl.t) Hashtbl.t;
  seen_nodes : (int, unit) Hashtbl.t;
  mutable reroute_lat : int list;
  mutable next_sweep : int;
  mutable last_ts : int;
}

let dls : st Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        armed_flag = false;
        cfg = default_config;
        viols = [];
        nviols = 0;
        delivered = Hashtbl.create 256;
        seen_at = Hashtbl.create 256;
        fwd = Hashtbl.create 256;
        nack_pending = Hashtbl.create 64;
        nack_exempt = Hashtbl.create 16;
        last_retx = Hashtbl.create 16;
        lsu_active = Hashtbl.create 64;
        reroute_pending = Hashtbl.create 16;
        seen_nodes = Hashtbl.create 64;
        reroute_lat = [];
        next_sweep = min_int;
        last_ts = min_int;
      })

let state () = Domain.DLS.get dls

(* A sim-time regression means a new simulation run started inside one
   audited span (experiments build a fresh engine per scenario, and each
   engine's clock restarts at zero). Packet identities and budgets do not
   carry across runs, so the packet-scoped state is dropped; accumulated
   violations and reroute latencies are kept. *)
let epoch_reset st =
  Hashtbl.reset st.delivered;
  Hashtbl.reset st.seen_at;
  Hashtbl.reset st.fwd;
  Hashtbl.reset st.nack_pending;
  Hashtbl.reset st.nack_exempt;
  Hashtbl.reset st.last_retx;
  Hashtbl.reset st.lsu_active;
  Hashtbl.reset st.reroute_pending;
  Hashtbl.reset st.seen_nodes;
  st.next_sweep <- min_int

let reset_state st =
  st.viols <- [];
  st.nviols <- 0;
  epoch_reset st;
  st.reroute_lat <- [];
  st.last_ts <- min_int

let violate st ~ts ~rule ~node ?(flow = Trace.no_flow) ?(seq = -1) detail =
  st.viols <-
    { v_ts = ts; v_rule = rule; v_node = node; v_flow = flow; v_seq = seq;
      v_detail = detail }
    :: st.viols;
  st.nviols <- st.nviols + 1;
  (* Violations are rare; the registry lookup keeps the counter handle in
     this domain's registry rather than pinning one shared handle across
     domains. *)
  Metrics.Counter.incr (Metrics.counter "strovl_audit_violations_total")

(* ----------------------------- rules --------------------------------- *)

let unicast (flow : Trace.flow_id) =
  flow.Trace.fi_src >= 0 && flow.Trace.fi_dst >= 0
  && flow.Trace.fi_dst < 1_000_000

let packet_ctx (r : Trace.record) =
  r.Trace.flow.Trace.fi_src >= 0 && r.Trace.seq >= 0

let note_seen st (r : Trace.record) =
  if packet_ctx r then
    Hashtbl.replace st.seen_at (r.Trace.flow, r.Trace.seq, r.Trace.node)
      r.Trace.ts

let on_deliver st (r : Trace.record) =
  if packet_ctx r && unicast r.Trace.flow then begin
    match Hashtbl.find_opt st.delivered (r.Trace.flow, r.Trace.seq) with
    | Some (ts0, node0) ->
      violate st ~ts:r.Trace.ts ~rule:"dup-deliver" ~node:r.Trace.node
        ~flow:r.Trace.flow ~seq:r.Trace.seq
        (Printf.sprintf "delivered again at node %d; first at node %d t=%dus"
           r.Trace.node node0 ts0)
    | None ->
      Hashtbl.replace st.delivered (r.Trace.flow, r.Trace.seq)
        (r.Trace.ts, r.Trace.node)
  end;
  note_seen st r

let on_forward st (r : Trace.record) link =
  if packet_ctx r then begin
    let key = (r.Trace.flow, r.Trace.seq, r.Trace.node, link) in
    (match Hashtbl.find_opt st.fwd key with
    | Some ts0 ->
      violate st ~ts:r.Trace.ts ~rule:"fwd-loop" ~node:r.Trace.node
        ~flow:r.Trace.flow ~seq:r.Trace.seq
        (Printf.sprintf "re-forwarded on link %d (first at t=%dus)" link ts0)
    | None -> Hashtbl.replace st.fwd key r.Trace.ts)
  end;
  note_seen st r

let on_fec_recover st (r : Trace.record) link =
  if packet_ctx r then begin
    match
      Hashtbl.find_opt st.seen_at (r.Trace.flow, r.Trace.seq, r.Trace.node)
    with
    | Some ts0 ->
      violate st ~ts:r.Trace.ts ~rule:"fec-ghost" ~node:r.Trace.node
        ~flow:r.Trace.flow ~seq:r.Trace.seq
        (Printf.sprintf
           "FEC on link %d recovered a packet this node already processed \
            (t=%dus)"
           link ts0)
    | None -> note_seen st r
  end

let on_nack st (r : Trace.record) link lseq =
  if not (Hashtbl.mem st.nack_exempt link) then begin
    let key = (r.Trace.node, link, lseq) in
    if not (Hashtbl.mem st.nack_pending key) then
      Hashtbl.replace st.nack_pending key r.Trace.ts
  end

let on_retransmit st ts link =
  (* A retransmission on [link] answers the oldest outstanding nack there.
     We cannot match lseqs across sides (lseq numbering is per-direction),
     so clearing the oldest is the sound lenient choice. *)
  Hashtbl.replace st.last_retx link ts;
  let oldest = ref None in
  Hashtbl.iter
    (fun ((_, l, _) as key) ts ->
      if l = link then
        match !oldest with
        | Some (_, ts0) when ts0 <= ts -> ()
        | _ -> oldest := Some (key, ts))
    st.nack_pending;
  match !oldest with
  | Some (key, _) -> Hashtbl.remove st.nack_pending key
  | None -> ()

let on_reroute st (r : Trace.record) link up =
  Hashtbl.replace st.nack_exempt link ();
  let stranded = ref [] in
  Hashtbl.iter
    (fun ((_, l, _) as key) _ -> if l = link then stranded := key :: !stranded)
    st.nack_pending;
  List.iter (Hashtbl.remove st.nack_pending) !stranded;
  if not up then
    if not (Hashtbl.mem st.reroute_pending r.Trace.node) then
      Hashtbl.replace st.reroute_pending r.Trace.node
        (r.Trace.ts, Hashtbl.create 16)

let population_covered st ~origin heard =
  let missing = ref 0 in
  Hashtbl.iter
    (fun id () ->
      if id <> origin && not (Hashtbl.mem heard id) then incr missing)
    st.seen_nodes;
  !missing = 0

let on_lsu_apply st (r : Trace.record) origin =
  Hashtbl.replace st.lsu_active r.Trace.node r.Trace.ts;
  match Hashtbl.find_opt st.reroute_pending origin with
  | None -> ()
  | Some (ts0, heard) ->
    if r.Trace.node <> origin then Hashtbl.replace heard r.Trace.node ();
    let full_population =
      match st.cfg.nnodes with
      | Some n -> Hashtbl.length heard >= n - 1
      | None -> population_covered st ~origin heard
    in
    if full_population then begin
      Hashtbl.remove st.reroute_pending origin;
      st.reroute_lat <- (r.Trace.ts - ts0) :: st.reroute_lat
    end

(* ----------------------------- sweeping ------------------------------ *)

let prune_packet_tables st now =
  let horizon = 8 * st.cfg.recovery_budget_us in
  let cutoff = now - horizon in
  if Hashtbl.length st.seen_at > st.cfg.max_tracked then begin
    let old = ref [] in
    Hashtbl.iter (fun k ts -> if ts < cutoff then old := k :: !old) st.seen_at;
    List.iter (Hashtbl.remove st.seen_at) !old
  end;
  if Hashtbl.length st.fwd > st.cfg.max_tracked then begin
    let old = ref [] in
    Hashtbl.iter (fun k ts -> if ts < cutoff then old := k :: !old) st.fwd;
    List.iter (Hashtbl.remove st.fwd) !old
  end;
  if Hashtbl.length st.delivered > st.cfg.max_tracked then begin
    let old = ref [] in
    Hashtbl.iter
      (fun k (ts, _) -> if ts < cutoff then old := k :: !old)
      st.delivered;
    List.iter (Hashtbl.remove st.delivered) !old
  end

let sweep st now =
  let expired = ref [] in
  Hashtbl.iter
    (fun key ts ->
      if now - ts > st.cfg.recovery_budget_us then
        expired := (key, ts) :: !expired)
    st.nack_pending;
  List.iter
    (fun (((node, link, lseq) as key), ts) ->
      Hashtbl.remove st.nack_pending key;
      (* Only a fully silent sender is a violation: if the link saw any
         retransmission since the nack, the pairing was merely ambiguous
         (the answer can cross the nack, or clear a different slot). *)
      let sender_active =
        match Hashtbl.find_opt st.last_retx link with
        | Some t -> t >= ts
        | None -> false
      in
      if not sender_active then
        violate st ~ts:now ~rule:"recovery-budget" ~node ~seq:lseq
          (Printf.sprintf
             "nack on link %d (lseq %d, t=%dus) unanswered after %dus" link
             lseq ts (now - ts)))
    !expired;
  let expired = ref [] in
  Hashtbl.iter
    (fun origin (ts, heard) ->
      if now - ts > st.cfg.reroute_budget_us then
        expired := (origin, ts, heard) :: !expired)
    st.reroute_pending;
  List.iter
    (fun (origin, ts, heard) ->
      Hashtbl.remove st.reroute_pending origin;
      (* Nobody heard the origin at all: it is partitioned (e.g. a crashed
         node still running local timers), not late. Otherwise, only nodes
         that kept applying floods after the down report are required —
         a node that applied nothing since then was itself unreachable. *)
      if Hashtbl.length heard > 0 then begin
        let laggards = ref [] in
        Hashtbl.iter
          (fun id () ->
            if id <> origin && not (Hashtbl.mem heard id) then
              match Hashtbl.find_opt st.lsu_active id with
              | Some t when t > ts -> laggards := id :: !laggards
              | _ -> ())
          st.seen_nodes;
        if !laggards <> [] then
          violate st ~ts:now ~rule:"reroute-budget" ~node:origin
            (Printf.sprintf
               "link-down LSU from node %d (t=%dus) not applied overlay-wide \
                within %dus (%d nodes heard it; flood-active nodes %s did \
                not)"
               origin ts (now - ts) (Hashtbl.length heard)
               (String.concat ","
                  (List.map string_of_int (List.sort compare !laggards))))
      end)
    !expired;
  prune_packet_tables st now;
  st.next_sweep <-
    now + (min st.cfg.recovery_budget_us st.cfg.reroute_budget_us / 4)

(* ------------------------------ feed --------------------------------- *)

let feed (r : Trace.record) =
  let st = state () in
  if r.Trace.ts < st.last_ts then epoch_reset st;
  st.last_ts <- r.Trace.ts;
  if r.Trace.node >= 0 then Hashtbl.replace st.seen_nodes r.Trace.node ();
  (match r.Trace.ev with
  | Trace.Deliver -> on_deliver st r
  | Trace.Deliver_replay -> note_seen st r
  | Trace.Forward link -> on_forward st r link
  | Trace.Forward_replay _ -> note_seen st r
  | Trace.Fec_recover link -> on_fec_recover st r link
  | Trace.Nack (link, lseq) -> on_nack st r link lseq
  | Trace.Retransmit link -> on_retransmit st r.Trace.ts link
  | Trace.Reroute (link, up) -> on_reroute st r link up
  | Trace.Lsu_apply origin -> on_lsu_apply st r origin
  | Trace.Enqueue | Trace.Drop _ | Trace.Lsu_flood | Trace.Strike _ ->
    ());
  if r.Trace.ts >= st.next_sweep then sweep st r.Trace.ts

(* ----------------------------- control ------------------------------- *)

let arm ?(config = default_config) () =
  let st = state () in
  st.cfg <- config;
  reset_state st;
  Trace.set_sink feed;
  st.armed_flag <- true

let disarm () =
  let st = state () in
  if st.armed_flag then begin
    Trace.clear_sink ();
    st.armed_flag <- false
  end

let armed () = (state ()).armed_flag

let reset () =
  disarm ();
  reset_state (state ())
let violations () = List.rev (state ()).viols
let count () = (state ()).nviols

let distinct_rules () =
  List.sort_uniq compare (List.map (fun v -> v.v_rule) (state ()).viols)

let reroute_latencies () = List.rev (state ()).reroute_lat

let finish () =
  sweep (state ()) (Trace.now ());
  violations ()

let pp_violation ppf v =
  if v.v_flow == Trace.no_flow || v.v_flow.Trace.fi_src < 0 then
    Format.fprintf ppf "%8dus [%s] node %-3d %s" v.v_ts v.v_rule v.v_node
      v.v_detail
  else
    Format.fprintf ppf "%8dus [%s] node %-3d flow %d:%d->%d:%d seq %d %s"
      v.v_ts v.v_rule v.v_node v.v_flow.Trace.fi_src v.v_flow.Trace.fi_sport
      v.v_flow.Trace.fi_dst v.v_flow.Trace.fi_dport v.v_seq v.v_detail

let violation_json v =
  let flow =
    if v.v_flow.Trace.fi_src < 0 then ""
    else
      Printf.sprintf
        ",\"flow\":{\"src\":%d,\"sport\":%d,\"dst\":%d,\"dport\":%d},\"seq\":%d"
        v.v_flow.Trace.fi_src v.v_flow.Trace.fi_sport v.v_flow.Trace.fi_dst
        v.v_flow.Trace.fi_dport v.v_seq
  in
  Printf.sprintf "{\"ts\":%d,\"rule\":%s,\"node\":%d%s,\"detail\":%s}" v.v_ts
    (Export.json_str v.v_rule) v.v_node flow
    (Export.json_str v.v_detail)

(* Run [f] with the auditor riding along. If an outer auditor is already
   armed (e.g. `strovl_mon audit`), [f] just runs — the outer collection
   sees everything. Otherwise arm (enabling tracing for the duration if it
   was off), run, and report any violations on stderr; the registry's
   [strovl_audit_violations_total] counter records the tally either way. *)
let checked ?config ~label f =
  if (state ()).armed_flag then f ()
  else begin
    let trace_was_on = Trace.armed () in
    if not trace_was_on then Trace.enable ~capacity:(1 lsl 16) ();
    arm ?config ();
    let finally () =
      let vs = finish () in
      disarm ();
      if not trace_was_on then Trace.disable ();
      if vs <> [] then begin
        Printf.eprintf "strovl audit (%s): %d invariant violation(s)\n" label
          (List.length vs);
        List.iter (fun v -> Format.eprintf "  %a@." pp_violation v) vs
      end
    in
    match f () with
    | x ->
      finally ();
      x
    | exception e ->
      finally ();
      raise e
  end
