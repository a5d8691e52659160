(** The result of scheduling a communication set on a CST. *)

type round = {
  index : int;  (** 1-based round number *)
  sources : int list;  (** PEs that wrote this round *)
  dests : int list;
  deliveries : (int * int) list;  (** realized (src, dst) transfers *)
  configs : (int * Cst.Switch_config.t) array;
      (** live (merged) configuration of every switch whose configuration
          is non-empty after this round's reconfiguration; empty array when
          the run did not keep configurations *)
}

type power = {
  total_connects : int;
      (** physical driver transitions — charitable accounting *)
  total_disconnects : int;
  total_writes : int;
      (** configuration-register installations — the paper's power units:
          per-round schedulers pay one per demanded connection per round,
          the CSA only pays for actual changes *)
  max_connects_per_switch : int;  (** the Theorem 8 quantity *)
  max_writes_per_switch : int;
      (** O(1) under CSA, O(w) under per-round scheduling *)
  max_events_per_switch : int;
  num_nodes : int;
      (** switches live at nodes [1 .. num_nodes]; sizes the dense views *)
  switches : int array;
      (** the switches with a nonzero count, strictly ascending by node:
          the per-switch ledger is sparse, O(busy switches) words *)
  connects : int array;  (** per entry of [switches] *)
  disconnects : int array;
  writes : int array;
}
(** A power summary.  Its sparse ledger is canonical (ascending nodes,
    no all-zero entry), so structural equality of two summaries is
    equality of the dense ledgers they stand for. *)

type t = {
  leaves : int;
  set : Cst_comm.Comm_set.t;
  width : int;  (** link congestion of the input set *)
  rounds : round array;
  power : power;
  cycles : int;
      (** synchronous clock cycles: one per tree level for Phase 1, one
          per level plus a transfer cycle per round *)
}

val width_of : Cst.Topology.t -> Cst_comm.Comm_set.t -> int
(** The set's width on [topo]: {!Cst_comm.Width.width} on the binary
    shape, the capacity-weighted {!Cst_comm.Width.width_on} otherwise.
    Counts only the links the set's paths cross — O(M * path length),
    no table of the tree. *)

val of_log :
  ?from:int ->
  ?upto:int ->
  ?keep_configs:bool ->
  set:Cst_comm.Comm_set.t ->
  topo:Cst.Topology.t ->
  cycles:int ->
  Cst.Exec_log.t ->
  t
(** Derive a schedule from a log range: rounds, deliveries and config
    snapshots from {!Cst.Exec_log.fold_rounds}, width from {!width_of},
    power from {!power_of_log}.  [cycles] stays caller-supplied because
    the synchronous-cycle formula is a property of the producer (the
    message-passing engine pays an extra broadcast sweep).  This is the
    only constructor the producers use. *)

val num_rounds : t -> int

val all_deliveries : t -> (int * int) list
(** Concatenated over rounds, sorted by source. *)

val deliveries_per_round : t -> int array

val power_of_log :
  ?from:int -> ?upto:int -> num_nodes:int -> Cst.Exec_log.t -> power
(** The power summary of a log range — totals, the three per-switch
    maxima and the sparse ledger — in one pass over its events: O(events)
    time and words, whatever the tree size (a per-domain scratch ledger,
    reused across calls, is sized once to the largest tree seen).  Equal, count for count, to
    {!power_of_meter} over {!Cst.Power_meter.of_log}, the dense meter
    kept as its oracle.  Raises [Invalid_argument] on an event at a node
    beyond [num_nodes]. *)

val power_of_meter : Cst.Power_meter.t -> power
(** Snapshot a live (dense) meter into the summary. *)

val per_switch_connects : power -> int array
(** Dense view indexed by node id, length [num_nodes + 1] (index 0
    unused) — the layout of {!Cst.Power_meter.per_switch_connects}.
    O(num_nodes); for tests, reports and the examples. *)

val per_switch_writes : power -> int array
val per_switch_disconnects : power -> int array

val zero_power : num_nodes:int -> power
(** Neutral element of {!combine_power}. *)

val combine_power : power -> power -> power
(** Combination for multi-part schedules (waves, mixed orientations,
    traffic phases): per-switch counts add, so totals add and the
    per-switch maxima are recomputed from the sums; [num_nodes] is the
    larger of the two.  O(busy switches of both parts). *)

val mirror_power : Cst.Topology.t -> power -> power
(** Re-expresses the ledger of a schedule computed on the mirrored tree
    in original node coordinates ({!Cst.Topology.mirror_node}); totals
    and maxima are reflection-invariant. *)

val pp_round : Format.formatter -> round -> unit
val pp : Format.formatter -> t -> unit
