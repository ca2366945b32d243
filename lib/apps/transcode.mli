(** Compound flows: in-network transformation (§V-C).

    A transcoding facility is an overlay client that joins an *ingest*
    anycast/multicast group, transforms each received packet (modeled as a
    fixed processing delay and an output-size scaling), and re-originates
    the result toward an *output* group — e.g. the stadium feed transcoded
    for CDN/mobile delivery.

    Re-originated packets keep the original sequence number and origin
    timestamp, so receiver-side measurement spans the whole compound flow
    "including its transformation" (§V-C). Several facilities can join the
    same ingest group at different sites; because the source sends to the
    group by *anycast*, rerouting — including after a facility or site
    failure — picks a different facility automatically. *)

type t

val create :
  net:Strovl.Net.t ->
  node:int ->
  port:int ->
  ingest_group:int ->
  out_group:int ->
  t
(** Each packet takes 5 ms to process and comes out at half its payload
    size (transcoding down), as Best_effort. *)

val shutdown : t -> unit
(** Leaves the ingest group (facility offline): subsequent anycast traffic
    fails over to the remaining facilities. *)

val processed : t -> int
val node_id : t -> int
