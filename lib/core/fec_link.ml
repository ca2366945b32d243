open Strovl_sim

let k = 8
let r = 2

(* Parity for a partial block goes out after this idle time. *)
let flush = Time.ms 20

(* Receiver-side per-block decode state. [block] ids are the first data
   lseq of the block, so the block's lseqs are [block .. block+count-1]. *)
type block_state = {
  bs_pkts : Packet.t array;
  bs_have : bool array; (* data symbols present *)
  mutable bs_parities : int; (* parity symbols received *)
  mutable bs_done : bool;
}

type t = {
  ctx : Lproto.ctx;
  cls : int;
  (* sender *)
  mutable next_lseq : int;
  mutable cur : (int * Packet.t) list; (* current block, newest first *)
  mutable flush_timer : Engine.handle option;
  (* receiver: lseqs at or below the window's floor are old news *)
  win : Rx_window.t;
  blocks : (int, block_state) Hashtbl.t;
  m_recovered : Strovl_obs.Metrics.Counter.t;
}

let create ctx =
  {
    ctx;
    cls = Packet.service_class Packet.Fec;
    next_lseq = 0;
    cur = [];
    flush_timer = None;
    win = Rx_window.create ~proto:"fec";
    blocks = Hashtbl.create 8;
    m_recovered =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "fec") ]
        "strovl_fec_recovered_total";
  }

(* ------------------------------ sender ------------------------------- *)

let cancel_flush t =
  match t.flush_timer with
  | Some h ->
    Engine.cancel t.ctx.Lproto.engine h;
    t.flush_timer <- None
  | None -> ()

let emit_parity t =
  cancel_flush t;
  match List.rev t.cur with
  | [] -> ()
  | ((base, _) :: _ as items) ->
    let pkts = List.map snd items in
    let symbol_bytes =
      List.fold_left (fun acc p -> max acc p.Packet.bytes) 0 pkts
    in
    for idx = 0 to r - 1 do
      t.ctx.Lproto.xmit
        (Msg.Fec_parity
           { block = base; idx; k = List.length pkts; bytes = symbol_bytes; blk_pkts = pkts })
    done;
    t.cur <- []

let send t pkt =
  t.next_lseq <- t.next_lseq + 1;
  let lseq = t.next_lseq in
  t.ctx.Lproto.xmit (Msg.Data { cls = t.cls; lseq; pkt; auth = None });
  t.cur <- (lseq, pkt) :: t.cur;
  if List.length t.cur >= k then emit_parity t
  else begin
    cancel_flush t;
    t.flush_timer <-
      Some
        (Engine.schedule t.ctx.Lproto.engine ~delay:flush (fun () ->
             t.flush_timer <- None;
             emit_parity t))
  end

(* ------------------------------ receiver ----------------------------- *)

(* Bound receiver state: the floor trails the highest lseq received (or
   named by a parity) by 64 blocks, and blocks below it slide out,
   unrecoverable or not. *)
let compact t high =
  let new_floor = high - (64 * k) in
  if new_floor > Rx_window.floor t.win then begin
    Rx_window.slide t.win new_floor;
    Hashtbl.filter_map_inplace
      (fun base bs ->
        if bs.bs_done || base + Array.length bs.bs_pkts <= new_floor then None
        else Some bs)
      t.blocks
  end

(* If enough symbols of the block are present, reconstruct and deliver the
   missing data packets (any k of k+r symbols suffice: MDS model). *)
let try_decode t base bs =
  if not bs.bs_done then begin
    let missing = ref [] in
    Array.iteri
      (fun i have -> if not have then missing := i :: !missing)
      bs.bs_have;
    let nmiss = List.length !missing in
    if nmiss = 0 then bs.bs_done <- true
    else if nmiss <= bs.bs_parities then begin
      bs.bs_done <- true;
      List.iter
        (fun i ->
          let lseq = base + i in
          if not (Rx_window.seen t.win lseq) then begin
            Rx_window.set t.win lseq;
            Strovl_obs.Metrics.Counter.incr t.m_recovered;
            if Strovl_obs.Trace.armed () then
              Lproto.trace_pkt t.ctx bs.bs_pkts.(i)
                (Strovl_obs.Trace.Fec_recover t.ctx.Lproto.link);
            t.ctx.Lproto.up bs.bs_pkts.(i)
          end)
        (List.rev !missing)
    end
  end

let block_for t base pkts =
  match Hashtbl.find_opt t.blocks base with
  | Some bs -> bs
  | None ->
    let arr = Array.of_list pkts in
    let bs =
      {
        bs_pkts = arr;
        bs_have = Array.init (Array.length arr) (fun i -> Rx_window.seen t.win (base + i));
        bs_parities = 0;
        bs_done = false;
      }
    in
    Hashtbl.replace t.blocks base bs;
    bs

let handle_data t lseq pkt =
  if Rx_window.beyond t.win lseq then () (* counted *)
  else if not (Rx_window.seen t.win lseq) then begin
    Rx_window.set t.win lseq;
    (* If this block is already being tracked (parity arrived first or
       out-of-order data), update it. *)
    Hashtbl.iter
      (fun base bs ->
        if lseq >= base && lseq < base + Array.length bs.bs_pkts then begin
          bs.bs_have.(lseq - base) <- true;
          try_decode t base bs
        end)
      t.blocks;
    compact t lseq;
    t.ctx.Lproto.up pkt
  end

let handle_parity t ~block ~k ~blk_pkts =
  if Rx_window.beyond t.win (block + k - 1) then () (* counted *)
  else if List.length blk_pkts = k && k > 0 && block > Rx_window.floor t.win then begin
    let bs = block_for t block blk_pkts in
    bs.bs_parities <- bs.bs_parities + 1;
    try_decode t block bs;
    compact t (block + k - 1)
  end

let recv t = function
  | Msg.Data { lseq; pkt; _ } -> handle_data t lseq pkt
  | Msg.Fec_parity { block; k; blk_pkts; _ } -> handle_parity t ~block ~k ~blk_pkts
  | Msg.Link_ack _ | Msg.Link_nack _ | Msg.Rt_request _ | Msg.It_ack _
  | Msg.Hello _ | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _
  | Msg.Lsu _ | Msg.Group_update _ ->
    ()
