(** Node-to-node wire messages.

    Everything overlay daemons exchange on overlay links: data packets
    wrapped with link-protocol state (class + link sequence number),
    link-protocol control traffic (acks, nacks, retransmission requests),
    the hello protocol, and the flooded shared-state updates (link-state
    updates and group-membership updates, §II-B).

    {!Wire.size} gives each message's on-wire size, which the
    bandwidth/queueing model charges. *)

type node = int

type link_info = { li_up : bool; li_metric : int; li_loss : int }
(** One incident link as reported by its endpoint in an LSU: [li_metric] is
    the measured one-way latency (µs) and [li_loss] the measured loss rate
    in permille — §II-B: the shared state includes "the current loss and
    latency characteristics of the overlay links". *)

type t =
  | Data of {
      cls : int;  (** service class (Packet.service_class) *)
      lseq : int;  (** per-(link, class) sequence number *)
      pkt : Packet.t;
      auth : int64 option;  (** origin signature for intrusion-tolerant classes *)
    }
  | Link_ack of { cls : int; cum : int }
      (** cumulative: everything ≤ [cum] received for the class *)
  | Link_nack of { cls : int; missing : int list }
  | Rt_request of { lseq : int }  (** NM-Strikes retransmission request *)
  | It_ack of { lseq : int }
      (** per-packet acceptance ack for IT-Reliable: sent only once the
          packet is accepted into the next hop's buffers, so a missing ack
          is backpressure (§IV-B) *)
  | Fec_parity of {
      block : int;  (** the block's first data lseq: [block .. block+k-1] *)
      idx : int;  (** parity symbol index within the block *)
      k : int;
      bytes : int;  (** parity symbol payload size (max packet in block) *)
      blk_pkts : Packet.t list;
          (** the block's packets: their headers travel with the parity
              (and {!Wire.size} counts them), and the receiver "decodes"
              erasures from them without real coding arithmetic *)
    }
  | Hello of { hseq : int; sent_at : Strovl_sim.Time.t }
  | Hello_ack of { hseq : int; echo : Strovl_sim.Time.t }
      (** echoes the hello sender's timestamp for RTT estimation *)
  | Probe of { pseq : int; sent_at : Strovl_sim.Time.t }
      (** legacy health probe: no longer sent, but still echoed as a
          [Probe_ack] ({!Link_monitor}) so older peers interoperate *)
  | Probe_ack of { pseq : int; echo : Strovl_sim.Time.t }
  | Lsu of {
      origin : node;
      lsu_seq : int;
      links : (int * link_info) list;  (** the origin's incident links *)
      auth : int64 option;
    }
  | Group_update of {
      origin : node;
      gseq : int;
      memb : (int * bool) list;  (** (group, origin has local members) *)
      auth : int64 option;
    }

val signable : t -> string
(** Canonical byte string covered by the origin signature of a flooded
    state update ([Lsu], [Group_update]), excluding the signature itself.
    @raise Invalid_argument for every other message: they are hop-local,
    and a data packet's signature covers {!Wire.signable}. *)

val pp : Format.formatter -> t -> unit
