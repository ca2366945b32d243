(** Message authentication between overlay nodes.

    §IV-B: because the overlay has only a few tens of nodes, "each overlay
    node can know the identities of all valid overlay nodes in the system,
    and can use cryptography to authenticate messages and ensure that they
    originate from authorized overlay nodes". A {!registry} holds one
    pairwise MAC key per ordered node pair (derived from a system master
    secret) plus a per-node "signing" key used where any receiver must be
    able to verify the origin (link-state updates are flooded, so they are
    verified by every node).

    §V-B observes that cryptographic processing time becomes the barrier to
    timeliness as systems grow; to let experiments account for that, every
    operation reports a simulated CPU cost, calibrated to typical commodity
    numbers (MAC ≈ cheap, RSA-style signature ≈ expensive). The *tags* are
    real (SipHash-2-4), so a compromised node cannot forge traffic from a
    correct node in simulation; only the CPU-time figures are modeled. *)

type registry

type tag = int64

val create_registry : master:string -> nodes:int -> registry
(** Derives all pairwise and per-node keys from the master secret. *)

val mac : registry -> src:int -> dst:int -> string -> tag
(** Pairwise MAC over the message. *)

val verify_mac : registry -> src:int -> dst:int -> string -> tag -> bool

val sign : registry -> node:int -> string -> tag
(** Origin authentication verifiable by every node. Modeled as a MAC under
    the node's broadcast key that only the node legitimately uses to sign —
    the simulation gives attackers access to exactly the keys of the nodes
    they compromised. *)

val verify_sign : registry -> node:int -> string -> tag -> bool

(** Modelled CPU costs (calibrated to commodity-server magnitudes). Only
    the SCADA experiment's analytic model ([Strovl_expt.Scada]) reads
    them; the overlay node's per-packet CPU cost is its own configured
    value and does not include them. *)

val mac_cost : Strovl_sim.Time.t
(** ~1 µs: a short-message MAC. *)

val sign_cost : Strovl_sim.Time.t
(** ~120 µs: an RSA-2048-style signature generation. *)

val verify_sign_cost : Strovl_sim.Time.t
(** ~20 µs: signature verification. *)
