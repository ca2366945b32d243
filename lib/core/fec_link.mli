(** Forward-error-corrected link protocol.

    The proactive alternative to reactive recovery: every [k] data packets
    the sender emits [r] parity symbols, and the receiver can reconstruct
    any ≤ r erasures in the block from any k of the k+r symbols (an MDS
    erasure code — Reed–Solomon in a real deployment; the simulator models
    the code's *erasure behaviour* and wire cost, not its arithmetic).

    This is the OverQoS-style scheme of the related work (§VI) and the
    repository's demonstration that the overlay node architecture's link
    level "can be easily extended" with new protocols (§II-B). Compared to
    NM-Strikes: recovery needs {e no} extra round trip (good when the
    deadline is tight relative to the RTT) but pays a {e fixed} r/k
    bandwidth overhead whether or not loss occurs, and a recovered packet
    still waits for the end of its block.

    A flush timer (20 ms) bounds the wait for partial blocks on slow
    flows.

    The receiver counts each reconstructed packet in
    [strovl_fec_recovered_total{proto="fec"}]. Its duplicate filter is an
    {!Rx_window} 64 blocks long. A data packet, or a parity symbol whose
    block ends, more than {!Rx_window.bound} past its floor is dropped and
    counted in [strovl_link_window_drops_total{proto="fec"}]. *)

type t

val k : int
(** 8 data packets per block. *)

val r : int
(** 2 parity symbols per block: 25% overhead. *)

val create : Lproto.ctx -> t
val send : t -> Packet.t -> unit
val recv : t -> Msg.t -> unit
