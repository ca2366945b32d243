(** Deterministic discrete-event simulation substrate.

    This library is the foundation every other [strovl] component builds on:
    an integer-microsecond clock ({!Time}), seedable split-stream randomness
    ({!Rng}), a cancellable-timer event engine ({!Engine}), measurement
    collection ({!Stats}), and packet-loss processes ({!Loss}) including the
    bursty Gilbert–Elliott model the paper's real-time protocols target. *)

module Time = Time
module Rng = Rng
module Heap = Heap
module Engine = Engine
module Stats = Stats
module Loss = Loss
