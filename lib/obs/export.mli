(** Export and analysis of the flight recorder and the metrics registry:
    JSONL dumps for mechanical diffing, and pretty-table summaries (top
    drop reasons, per-link utilization, per-flow hop-latency breakdown)
    for humans. *)

val json_str : string -> string
(** Escapes and double-quotes a string for inclusion in hand-rolled JSON
    (shared with the auditor and the experiment tables; the project uses
    no JSON library). *)

val record_json : Trace.record -> string
(** One trace record as a single-line JSON object, its run first. *)

val point_json : string -> Metrics.labels -> Metrics.point -> string
(** [point_json name labels p]: one time-axis bucket of the metric [name]
    [labels] (as {!Metrics.series} lists them) as a flat JSON object, the
    series JSONL line format: series, labels, run, t0, n, sum, max, mean. *)

val jsonl : out_channel -> unit
(** Every retained trace record, one JSON object per line, chronological. *)

val drop_counts : unit -> (string * int) list
(** Drop events in the trace grouped by reason, most frequent first. *)

val retransmit_count : unit -> int
(** Retransmit events retained in the trace. *)

val path_of : run:int -> flow:Trace.flow_id -> seq:int -> Trace.record list
(** The causal path of one packet in one run: every retained event of
    [run] for (flow, seq) in chronological order, plus the flow's
    flow-level drops in that run. A negative [seq] stands for every
    packet of the flow: every retained record of [flow] in [run]. Rows of
    one experiment reuse flows and sequence numbers, so without the run
    their paths would interleave. *)

val runs_with : flow:Trace.flow_id -> seq:int -> int list
(** The runs, in order, whose retained records include a record of
    [path_of ~run ~flow ~seq]. *)

val sample_packet : unit -> (int * Trace.flow_id * int) option
(** A (run, flow, seq) worth looking at: prefers a packet that was both
    retransmitted and delivered, then any delivered packet, then any packet
    event at all. [None] on an empty trace. *)

val flow_summaries :
  unit -> (Trace.flow_id * (int * int * int * int * float)) list
(** Per flow: (enqueued, forwards, delivered, retransmits, mean hop latency
    in µs derived from consecutive per-packet forward timestamps). *)

val links_table : unit -> (string * int * int * int) list
(** Per overlay link (from [strovl_link_*] metrics): (label, packets,
    bytes, queue drops), sorted by bytes descending. *)

val summary_json : unit -> string
(** Metrics dump + drop reasons as one JSON object. *)

val print_summary : Format.formatter -> unit
(** Human summary: trace occupancy, top drop reasons, retransmits,
    per-link utilization, per-flow table. *)

val print_path :
  Format.formatter -> run:int -> flow:Trace.flow_id -> seq:int -> unit
(** Pretty-prints [path_of] with one record per line. *)
