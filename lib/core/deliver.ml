open Strovl_sim

type mode = Unordered | Ordered | Deadline of Time.t

module IntMap = Map.Make (Int)

type t = {
  engine : Engine.t;
  mode : mode;
  deliver : Packet.t -> unit;
  mutable next : int; (* next expected sequence number *)
  mutable buf : Packet.t IntMap.t;
  mutable timer : Engine.handle option;
}

let create engine mode ~deliver =
  { engine; mode; deliver; next = 0; buf = IntMap.empty; timer = None }

(* Deliver the contiguous run starting at [t.next] out of the buffer. *)
let rec drain t =
  match IntMap.find_opt t.next t.buf with
  | None -> ()
  | Some pkt ->
    t.buf <- IntMap.remove t.next t.buf;
    t.next <- t.next + 1;
    t.deliver pkt;
    drain t

let cancel_timer t =
  match t.timer with
  | None -> ()
  | Some h ->
    Engine.cancel t.engine h;
    t.timer <- None

(* In Deadline mode: (re)arm the give-up timer for the earliest buffered
   packet. When it fires, every sequence slot before that packet is
   abandoned and the contiguous run delivered. *)
let rec rearm t deadline =
  cancel_timer t;
  match IntMap.min_binding_opt t.buf with
  | None -> ()
  | Some (seq, pkt) ->
    let expire = Time.add pkt.Packet.sent_at deadline in
    let now = Engine.now t.engine in
    let fire () =
      t.timer <- None;
      t.next <- seq;
      drain t;
      rearm t deadline
    in
    if expire <= now then fire ()
    else
      t.timer <- Some (Engine.schedule t.engine ~delay:(Time.sub expire now) fire)

let push t pkt =
  let seq = pkt.Packet.seq in
  match t.mode with
  | Unordered -> t.deliver pkt
  | Ordered ->
    if seq < t.next || IntMap.mem seq t.buf then () (* duplicate *)
    else if seq = t.next then begin
      t.next <- t.next + 1;
      t.deliver pkt;
      drain t
    end
    else t.buf <- IntMap.add seq pkt t.buf
  | Deadline deadline ->
    if seq < t.next || IntMap.mem seq t.buf then () (* late or duplicate *)
    else if seq = t.next then begin
      t.next <- t.next + 1;
      t.deliver pkt;
      drain t;
      rearm t deadline
    end
    else begin
      t.buf <- IntMap.add seq pkt t.buf;
      rearm t deadline
    end

let pending t = IntMap.cardinal t.buf
