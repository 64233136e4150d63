(** The online transaction-processing engine: partitioned data, batched
    admission, coordinator-exact serializability, deletion-policy GC.

    Composition (see [docs/engine.md] for the full picture):

    {v
     submit --> Admission (batch B) --> per step: Coordinator.decide
                                           |  accepted   |  rejected
                                           v             v
                                   owning Shard(s)   hosting Shards
                                   mirror accesses,  abort + undo
                                   arcs, store, WAL
                                           |
                              Coordinator GC -> broadcast deletions
                              batch end: per-shard local GC
    v}

    Guarantees, asserted by the differential suite ([test_engine.ml]):
    - {e Exactness}: the outcome of every submitted step equals the
      single-node SGT scheduler's outcome on the same (merged) step
      sequence — the coordinator {e is} that scheduler.  Batching
      changes when work happens, never what is decided.
    - {e Residency}: each shard's resident-transaction count never
      exceeds the single-node scheduler's at the same step (broadcast
      GC gives <=; local GC usually does strictly better).
    - {e Deletions}: every non-empty broadcast-GC round deletes the
      same set, at the same step, as the single-node scheduler.
    - {e Data}: each entity's value in its owning shard's store equals
      the single-node store's.

    Basic-model steps only ([Begin]/[Read]/final [Write]); multi-write
    and predeclared engines are future work. *)

type config = {
  shards : int;
  batch : int;
  policy : Dct_deletion.Policy.t;
  partitioner : Partitioner.t;
  oracle : Dct_graph.Cycle_oracle.backend option;
      (** Backend for the {e coordinator}'s graph.  Shards always use
          the default DFS — their graphs are small by construction. *)
  tracer : Dct_telemetry.Tracer.t;
  gc_index : Dct_deletion.Deletability_index.mode option;
      (** Deletability-index backend for {e both} the coordinator's
          global GC and every shard's local GC ([None] = naive
          re-evaluation, the reference path). *)
}

val config :
  ?policy:Dct_deletion.Policy.t ->
  ?partitioner:Partitioner.t ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  shards:int ->
  batch:int ->
  unit ->
  config
(** Defaults: policy [Greedy_c1], hash partitioner over [shards], no
    oracle, disabled tracer, no deletability index.
    @raise Invalid_argument if [shards <= 0], [batch <= 0], or the
    partitioner's shard count differs from [shards]. *)

type t

val create : config -> t

val submit : t -> Dct_txn.Step.t -> unit
(** Queue a step; processes a full batch synchronously when this step
    fills one. *)

val tick : t -> unit
(** Flush and process the pending partial batch.  The caller decides
    when: the network server ticks when its input drains, {!finish} at
    end of input. *)

val pending : t -> int
(** Steps sitting in the admission queue, not yet decided. *)

val set_on_step :
  t -> (int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit) option -> unit
(** Install (or clear) the per-decision callback outside {!run} — the
    hook an incremental feeder (the network server) uses to route each
    outcome back to the submitting client.  Fires with the 1-based
    global step index immediately after the step is decided. *)

val abort : t -> int -> bool
(** Client-initiated abort.  [true] if the transaction was active and
    is now aborted everywhere (coordinator graph and every hosting
    shard); [false] (a no-op) for unknown, completed, or already
    aborted transactions.  Queued steps of the transaction are decided
    [Ignored] when their batch flushes. *)

val steps_processed : t -> int

val shard_count : t -> int
val shard : t -> int -> Shard.t
val coordinator : t -> Coordinator.t
val admission : t -> Admission.t
(** The admission queue, for its live counters. *)

val partitioner : t -> Partitioner.t

val shard_residents : t -> int array
(** Current resident-transaction count per shard. *)

(** {1 Reports} *)

type report = {
  name : string;
  shards : int;
  batch : int;
  steps : int;
  accepted : int;
  rejected : int;
  ignored : int;
  committed : int;
  aborted : int;
  submitted : int;
  full_batches : int;
  ticks : int;
  coordinator : Coordinator.stats;
  shard_stats : Shard.stats array;
  shard_resident_hwm : int;  (** max over shards of the per-shard HWM *)
  cross_shard_arcs : int;
      (** conflict arcs with an endpoint hosted on more than one shard —
          the arcs only the coordinator graph can see in full *)
  local_arcs : int;
  distributed_txns : int;  (** transactions that touched >= 2 shards *)
  wall_seconds : float;
}

val run :
  ?on_step:(int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit) ->
  t ->
  Dct_txn.Step.t list ->
  report
(** Submit every step, tick the final partial batch, run a last GC
    round, flush the tracer and report.  [on_step] fires immediately
    after each step is {e decided} (its argument is the 1-based global
    step index) — the differential harness runs the reference scheduler
    in lock-step from it. *)

val report : t -> wall_seconds:float -> report

val finish : t -> wall_seconds:float -> report
(** The end-of-input epilogue {!run} performs, exposed for incremental
    feeders: flush the pending partial batch, run a final global GC
    round (broadcast included) plus a local round per shard, emit the
    last checkpoint, flush the tracer, and report. *)

(** {1 Differential mode} *)

type differential_report = {
  d_steps : int;
  d_shards : int;
  outcome_mismatches : (int * string * string) list;
      (** (step index, engine outcome, single-node outcome) *)
  deletion_mismatches : (int * string * string) list;
      (** (round, engine round, single-node round): the [round]-th
          non-empty broadcast-GC round, as step index and deleted set,
          against the single-node scheduler's [deleted_log] *)
  residency_violations : (int * int * int * int) list;
      (** (step index, shard, shard resident, single-node resident) *)
  store_mismatches : (int * int * int) list;
      (** (entity, engine value, single-node value) *)
  committed_engine : int;
  committed_single : int;
  aborted_engine : int;
  aborted_single : int;
  engine_shard_peak : int;
  single_peak : int;
}

val differential :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?partitioner:Partitioner.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  shards:int ->
  batch:int ->
  policy:Dct_deletion.Policy.t ->
  Dct_txn.Step.t list ->
  differential_report
(** Run the engine and a fresh single-node SGT scheduler (same policy)
    over the same step sequence in lock-step and compare: per-step
    outcomes, every non-empty broadcast-GC round (step index and deleted
    set), per-shard residency against single-node residency at the
    same step, and final store contents entity by entity.  [gc_index]
    applies to every GC site on both sides (coordinator, shards, and
    the reference scheduler), so [Checked] turns this into a
    differential over the index as well. *)

val differential_ok : differential_report -> bool

val pp_differential : Format.formatter -> differential_report -> unit
