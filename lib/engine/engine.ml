module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Rules = Dct_deletion.Rules
module Step = Dct_txn.Step
module Store = Dct_kv.Store
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Tracer = Dct_telemetry.Tracer
module Event = Dct_telemetry.Event

type config = {
  shards : int;
  batch : int;
  policy : Policy.t;
  partitioner : Partitioner.t;
  oracle : Dct_graph.Cycle_oracle.backend option;
  tracer : Tracer.t;
  gc_index : Dct_deletion.Deletability_index.mode option;
}

let config ?(policy = Policy.Greedy_c1) ?partitioner ?oracle
    ?(tracer = Tracer.disabled) ?gc_index ~shards ~batch () =
  if shards <= 0 then invalid_arg "Dct_engine.config: shards must be positive";
  if batch <= 0 then invalid_arg "Dct_engine.config: batch must be positive";
  let partitioner =
    match partitioner with
    | Some p ->
        if Partitioner.shards p <> shards then
          invalid_arg "Dct_engine.config: partitioner shard count mismatch";
        p
    | None -> Partitioner.hash ~shards
  in
  { shards; batch; policy; partitioner; oracle; tracer; gc_index }

type t = {
  cfg : config;
  coordinator : Coordinator.t;
  shards : Shard.t array;
  admission : Admission.t;
  (* txn -> shards it has ever been hosted on; entries die with the
     transaction (abort or global deletion), so the table's size is
     bounded by the coordinator's residency. *)
  hosting : (int, Intset.t) Hashtbl.t;
  mutable steps : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable ignored : int;
  mutable committed : int;
  mutable aborted : int;
  mutable cross_shard_arcs : int;
  mutable local_arcs : int;
  mutable distributed_txns : int;
  mutable on_step : (int -> Step.t -> Si.outcome -> unit) option;
  (* Fires on each non-empty broadcast round with the step count; the
     differential compares the rounds with the single-node log. *)
  mutable on_deletion : (int -> Intset.t -> unit) option;
}

let create cfg =
  {
    cfg;
    coordinator =
      Coordinator.create ~policy:cfg.policy ?oracle:cfg.oracle
        ~tracer:cfg.tracer ?gc_index:cfg.gc_index ();
    shards =
      Array.init cfg.shards (fun id ->
          Shard.create ~id ~policy:cfg.policy ?gc_index:cfg.gc_index ());
    admission = Admission.create ~batch:cfg.batch;
    hosting = Hashtbl.create 64;
    steps = 0;
    accepted = 0;
    rejected = 0;
    ignored = 0;
    committed = 0;
    aborted = 0;
    cross_shard_arcs = 0;
    local_arcs = 0;
    distributed_txns = 0;
    on_step = None;
    on_deletion = None;
  }

let steps_processed t = t.steps
let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let coordinator t = t.coordinator
let admission t = t.admission
let partitioner t = t.cfg.partitioner

let shard_residents t =
  Array.map (fun sh -> Gs.txn_count (Shard.graph_state sh)) t.shards

let hosting_of t txn =
  try Hashtbl.find t.hosting txn with Not_found -> Intset.empty

let note_hosting t txn shard_id =
  let prev = hosting_of t txn in
  if not (Intset.mem shard_id prev) then begin
    let now = Intset.add shard_id prev in
    Hashtbl.replace t.hosting txn now;
    if Intset.cardinal now = 2 then
      t.distributed_txns <- t.distributed_txns + 1
  end

(* An arc is cross-shard when one of its endpoints is hosted on more
   than one shard: the conflict it records is then only one slice of
   that transaction's footprint, and no single shard graph carries the
   transaction's full in/out neighbourhood — the reason decisions
   belong to the coordinator. *)
let classify_arcs t arcs =
  List.iter
    (fun (src, dst) ->
      let spread = Intset.union (hosting_of t src) (hosting_of t dst) in
      if Intset.cardinal spread > 1 then
        t.cross_shard_arcs <- t.cross_shard_arcs + 1
      else t.local_arcs <- t.local_arcs + 1)
    arcs

let owner t entity = Partitioner.shard_of t.cfg.partitioner entity

let apply_accepted t ~index step =
  match step with
  | Step.Begin _ | Step.Begin_declared _ ->
      (* Hosting is lazy: a shard learns of a transaction on its first
         access to one of the shard's entities. *)
      ()
  | Step.Read (txn, entity) ->
      let s = owner t entity in
      let sh = t.shards.(s) in
      Shard.apply_read sh ~txn ~entity;
      note_hosting t txn s;
      classify_arcs t (Shard.last_arcs sh)
  | Step.Write (txn, entities) ->
      (* Group the write set by owning shard, preserving entity order
         within each shard.  The slices are disjoint, so cross-shard
         application order is irrelevant to the data. *)
      let by_shard = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun e ->
          let s = owner t e in
          match Hashtbl.find_opt by_shard s with
          | Some slice -> slice := e :: !slice
          | None ->
              Hashtbl.add by_shard s (ref [ e ]);
              order := s :: !order)
        entities;
      List.iter
        (fun s ->
          let slice = List.rev !(Hashtbl.find by_shard s) in
          let sh = t.shards.(s) in
          Shard.apply_write sh ~txn ~entities:slice ~value:index;
          note_hosting t txn s;
          classify_arcs t (Shard.last_arcs sh))
        (List.rev !order);
      (* The final write commits the transaction globally; every shard
         that ever hosted it (e.g. for reads alone) must mark its copy
         committed, or local GC could never touch it. *)
      t.committed <- t.committed + 1;
      Intset.iter (fun s -> Shard.complete t.shards.(s) txn) (hosting_of t txn)
  | Step.Write_one _ | Step.Finish _ ->
      invalid_arg "Dct_engine: basic-model steps only (Begin/Read/final Write)"

let broadcast_deletions t deleted =
  if not (Intset.is_empty deleted) then begin
    Array.iter (fun sh -> ignore (Shard.apply_global_deletions sh deleted)) t.shards;
    Intset.iter (fun txn -> Hashtbl.remove t.hosting txn) deleted;
    match t.on_deletion with None -> () | Some f -> f t.steps deleted
  end

let reject t step =
  t.rejected <- t.rejected + 1;
  t.aborted <- t.aborted + 1;
  let txn = Step.txn step in
  Intset.iter (fun s -> Shard.abort t.shards.(s) txn) (hosting_of t txn);
  Hashtbl.remove t.hosting txn

let process_step t step =
  t.steps <- t.steps + 1;
  let index = t.steps in
  let tr = t.cfg.tracer in
  Tracer.event tr (fun () ->
      Event.Step_submitted { index; step = Step.to_telemetry step });
  let outcome = Coordinator.decide t.coordinator step in
  let si, reason =
    match outcome with
    | Rules.Accepted -> (Si.Accepted, "")
    | Rules.Rejected -> (Si.Rejected, "cycle")
    | Rules.Ignored -> (Si.Ignored, "already-aborted")
  in
  let outcome_name = Si.outcome_name si in
  Tracer.event tr (fun () ->
      Event.Decision { index; txn = Step.txn step; outcome = outcome_name; reason });
  Tracer.incr tr ("outcome." ^ outcome_name);
  (match outcome with
  | Rules.Accepted ->
      t.accepted <- t.accepted + 1;
      apply_accepted t ~index step;
      broadcast_deletions t (Coordinator.collect_garbage t.coordinator)
  | Rules.Rejected ->
      reject t step;
      broadcast_deletions t (Coordinator.collect_garbage t.coordinator)
  | Rules.Ignored -> t.ignored <- t.ignored + 1);
  (match t.on_step with None -> () | Some f -> f index step si);
  si

let shard_gc t = Array.iter (fun sh -> ignore (Shard.collect_garbage sh)) t.shards

let checkpoint t =
  let tr = t.cfg.tracer in
  if Tracer.active tr || Tracer.metrics tr <> None then begin
    let c : Coordinator.stats = Coordinator.stats t.coordinator in
    Tracer.event tr (fun () ->
        Event.Checkpoint_stats
          {
            at_step = t.steps;
            resident_txns = c.resident_txns;
            resident_arcs = c.resident_arcs;
            active_txns = c.active_txns;
            committed = t.committed;
            aborted = t.aborted;
            deleted = c.deleted_total;
            delayed = 0;
            resident_bytes = c.resident_bytes;
          });
    Tracer.gauge tr "resident_txns" c.resident_txns;
    Tracer.gauge tr "resident_arcs" c.resident_arcs;
    Tracer.gauge tr "graph.resident_bytes" c.resident_bytes;
    Array.iteri
      (fun i sh ->
        let s : Shard.stats = Shard.stats sh in
        Tracer.gauge tr
          (Printf.sprintf "engine.shard%d.resident_txns" i)
          s.resident_txns)
      t.shards
  end

let process_batch t batch =
  List.iter (fun s -> ignore (process_step t s)) batch;
  (* Batch boundary = the group-commit point: each shard runs its own
     deletion policy against its (smaller) local graph. *)
  shard_gc t;
  checkpoint t

let submit t step =
  match Admission.submit t.admission step with
  | None -> ()
  | Some batch -> process_batch t batch

let tick t =
  match Admission.tick t.admission with
  | [] -> ()
  | batch -> process_batch t batch

let pending t = Admission.pending t.admission

let set_on_step t f = t.on_step <- f

(* A client-initiated abort of a still-active transaction.  The
   coordinator graph goes through [abort_txn] (the hooked mutation
   path, so an attached deletability index stays consistent) and every
   hosting shard undoes its copy — the same teardown as a rejection,
   minus the rejected step.  Steps of the transaction still sitting in
   the admission queue will be decided [Ignored] when their batch
   flushes, exactly as post-rejection steps are. *)
let abort t txn =
  let gs = Coordinator.graph_state t.coordinator in
  if Gs.is_active gs txn then begin
    Gs.abort_txn gs txn;
    t.aborted <- t.aborted + 1;
    Intset.iter (fun s -> Shard.abort t.shards.(s) txn) (hosting_of t txn);
    Hashtbl.remove t.hosting txn;
    broadcast_deletions t (Coordinator.collect_garbage t.coordinator);
    true
  end
  else false

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
  shard_resident_hwm : int;
  cross_shard_arcs : int;
  local_arcs : int;
  distributed_txns : int;
  wall_seconds : float;
}

let report (t : t) ~wall_seconds =
  let shard_stats = Array.map Shard.stats t.shards in
  let shard_resident_hwm =
    Array.fold_left
      (fun acc (s : Shard.stats) -> max acc s.resident_hwm)
      0 shard_stats
  in
  {
    name =
      Printf.sprintf "engine/%s/%s/s%d-b%d" (Policy.name t.cfg.policy)
        (Partitioner.spec t.cfg.partitioner)
        t.cfg.shards t.cfg.batch;
    shards = t.cfg.shards;
    batch = t.cfg.batch;
    steps = t.steps;
    accepted = t.accepted;
    rejected = t.rejected;
    ignored = t.ignored;
    committed = t.committed;
    aborted = t.aborted;
    submitted = Admission.submitted t.admission;
    full_batches = Admission.full_batches t.admission;
    ticks = Admission.ticks t.admission;
    coordinator = Coordinator.stats t.coordinator;
    shard_stats;
    shard_resident_hwm;
    cross_shard_arcs = t.cross_shard_arcs;
    local_arcs = t.local_arcs;
    distributed_txns = t.distributed_txns;
    wall_seconds;
  }

(* End of input: flush the pending partial batch, then one last global
   GC round (broadcast included) and a local round per shard, so the
   report's residency is the steady state, not a mid-batch snapshot. *)
let finish (t : t) ~wall_seconds =
  tick t;
  broadcast_deletions t (Coordinator.collect_garbage t.coordinator);
  shard_gc t;
  t.on_step <- None;
  checkpoint t;
  Tracer.flush t.cfg.tracer;
  report t ~wall_seconds

let run ?on_step (t : t) steps =
  t.on_step <- on_step;
  let t0 = Unix.gettimeofday () in
  List.iter (submit t) steps;
  finish t ~wall_seconds:(Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Differential mode                                                   *)

type differential_report = {
  d_steps : int;
  d_shards : int;
  outcome_mismatches : (int * string * string) list;
  deletion_mismatches : (int * string * string) list;
  residency_violations : (int * int * int * int) list;
  store_mismatches : (int * int * int) list;
  committed_engine : int;
  committed_single : int;
  aborted_engine : int;
  aborted_single : int;
  engine_shard_peak : int;
  single_peak : int;
}

let differential ?oracle ?partitioner ?gc_index ~shards ~batch ~policy steps =
  let cfg = config ~policy ?partitioner ?oracle ?gc_index ~shards ~batch () in
  let eng : t = create cfg in
  let single_store = Store.create () in
  let single = Cs.create ~policy ~store:single_store ?gc_index () in
  let outcome_mismatches = ref [] in
  let residency_violations = ref [] in
  let single_peak = ref 0 in
  let engine_shard_peak = ref 0 in
  let on_step index step engine_outcome =
    let single_outcome = Cs.step single step in
    if engine_outcome <> single_outcome then
      outcome_mismatches :=
        ( index,
          Si.outcome_name engine_outcome,
          Si.outcome_name single_outcome )
        :: !outcome_mismatches;
    let st = Cs.stats single in
    single_peak := max !single_peak st.resident_txns;
    Array.iteri
      (fun k sh ->
        let r = Gs.txn_count (Shard.graph_state sh) in
        engine_shard_peak := max !engine_shard_peak r;
        if r > st.resident_txns then
          residency_violations :=
            (index, k, r, st.resident_txns) :: !residency_violations)
      eng.shards
  in
  let rounds = ref [] in
  eng.on_deletion <- Some (fun index set -> rounds := (index, set) :: !rounds);
  let rep = run ~on_step eng steps in
  (* Broadcast GC: the engine's non-empty rounds must be the single-node
     scheduler's deletions, round for round and step for step. *)
  let show = function
    | [] -> "(none)"
    | (index, set) :: _ ->
        Printf.sprintf "step %d {%s}" index
          (String.concat "," (List.map string_of_int (Intset.to_sorted_list set)))
  in
  let rest = function [] -> [] | _ :: r -> r in
  let rec cmp_rounds i = function
    | [], [] -> []
    | (ei, es) :: er, (si, ss) :: sr when ei = si && Intset.equal es ss ->
        cmp_rounds (i + 1) (er, sr)
    | e, s -> (i, show e, show s) :: cmp_rounds (i + 1) (rest e, rest s)
  in
  let deletion_mismatches =
    cmp_rounds 0 (List.rev !rounds, Cs.deleted_log single)
  in
  let store_mismatches = ref [] in
  Intset.iter
    (fun entity ->
      let expected = Store.peek single_store ~entity in
      let sh = eng.shards.(owner eng entity) in
      let got = Store.peek (Shard.store sh) ~entity in
      if got <> expected then
        store_mismatches := (entity, got, expected) :: !store_mismatches)
    (Store.entities single_store);
  let final = Cs.stats single in
  {
    d_steps = rep.steps;
    d_shards = shards;
    outcome_mismatches = List.rev !outcome_mismatches;
    deletion_mismatches;
    residency_violations = List.rev !residency_violations;
    store_mismatches = List.rev !store_mismatches;
    committed_engine = rep.committed;
    committed_single = final.committed_total;
    aborted_engine = rep.aborted;
    aborted_single = final.aborted_total;
    engine_shard_peak = !engine_shard_peak;
    single_peak = !single_peak;
  }

let differential_ok d =
  d.outcome_mismatches = []
  && d.deletion_mismatches = []
  && d.residency_violations = []
  && d.store_mismatches = []
  && d.committed_engine = d.committed_single
  && d.aborted_engine = d.aborted_single

let pp_differential ppf d =
  Format.fprintf ppf
    "@[<v>differential: %d steps over %d shards@ \
     outcome mismatches: %d@ deletion mismatches: %d@ \
     residency violations: %d@ \
     store mismatches: %d@ committed: engine %d / single %d@ \
     aborted: engine %d / single %d@ \
     shard residency peak %d vs single-node peak %d@]"
    d.d_steps d.d_shards
    (List.length d.outcome_mismatches)
    (List.length d.deletion_mismatches)
    (List.length d.residency_violations)
    (List.length d.store_mismatches)
    d.committed_engine d.committed_single d.aborted_engine d.aborted_single
    d.engine_shard_peak d.single_peak
