(* The traced run's layer replay.

   The benchmark cannot put spans inside the program, so it replays a
   step list through the engine's public pieces in the order
   [Engine.process_step] uses them, timing every call on the monotonic
   clock and reading [Gc.minor_words] around it:

   - [Coordinator.decide];
   - accepted: [Shard.apply_read]/[apply_write] on the owning shards
     ([Partitioner.shard_of]), then [Shard.complete] on every shard
     that hosts the transaction;
   - rejected: [Shard.abort] on the hosting shards;
   - then [Coordinator.collect_garbage] and, when it deleted anything,
     [Shard.apply_global_deletions] on every shard;
   - at each batch boundary, and after [finish]'s final global round,
     [Shard.collect_garbage] on every shard.

   The caller checks that the replay reproduces [Engine.run]'s counts,
   outcomes and residency high-water marks exactly. *)

module Intset = Dct_graph.Intset
module Engine = Dct_engine.Engine
module Coordinator = Dct_engine.Coordinator
module Shard = Dct_engine.Shard
module Partitioner = Dct_engine.Partitioner
module Rules = Dct_deletion.Rules
module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf

type layer = { mutable ns : int; mutable words : int; mutable calls : int }

type t = {
  decide : layer;
  gc : layer;
  shard : layer;  (** apply_read / apply_write / complete / abort *)
  broadcast : layer;
  shard_gc : layer;  (** one call = one round over every shard *)
  mutable steps : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable ignored : int;
  mutable committed : int;
  mutable gc_deleted : int;
  mutable gc_productive : int;
  mutable local_deleted : int;
  mutable wall_ns : int;
  mutable first_tenth_ns : int;  (** wall of the first tenth of the steps *)
  mutable last_tenth_ns : int;
  mutable resident_hwm : int;
  mutable shard_resident_hwm : int;
  outcomes : Si.outcome array;
}

let layer () = { ns = 0; words = 0; calls = 0 }

let timed l f =
  let w0 = Gc.minor_words () in
  let t0 = Stats.now () in
  let r = f () in
  let t1 = Stats.now () in
  let w1 = Gc.minor_words () in
  l.ns <- l.ns + (t1 - t0);
  l.words <- l.words + int_of_float (w1 -. w0);
  l.calls <- l.calls + 1;
  r

(* The write set grouped by owning shard: shards in first-seen order,
   entities in their original order within each shard. *)
let by_shard p entities =
  let order = ref [] and slices = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let s = Partitioner.shard_of p e in
      match Hashtbl.find_opt slices s with
      | Some slice -> slice := e :: !slice
      | None ->
          Hashtbl.add slices s (ref [ e ]);
          order := s :: !order)
    entities;
  List.rev_map (fun s -> (s, List.rev !(Hashtbl.find slices s))) !order

let run (cfg : Engine.config) steps =
  let p = cfg.partitioner in
  let coord =
    Coordinator.create ~policy:cfg.policy ?oracle:cfg.oracle ?gc_index:cfg.gc_index ()
  in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~id ~policy:cfg.policy ?gc_index:cfg.gc_index ())
  in
  let n = List.length steps in
  let t =
    {
      decide = layer ();
      gc = layer ();
      shard = layer ();
      broadcast = layer ();
      shard_gc = layer ();
      steps = 0;
      accepted = 0;
      rejected = 0;
      ignored = 0;
      committed = 0;
      gc_deleted = 0;
      gc_productive = 0;
      local_deleted = 0;
      wall_ns = 0;
      first_tenth_ns = 0;
      last_tenth_ns = 0;
      resident_hwm = 0;
      shard_resident_hwm = 0;
      outcomes = Array.make n Si.Ignored;
    }
  in
  let hosting : (int, Intset.t) Hashtbl.t = Hashtbl.create 64 in
  let hosts txn = Option.value (Hashtbl.find_opt hosting txn) ~default:Intset.empty in
  let host txn s = Hashtbl.replace hosting txn (Intset.add s (hosts txn)) in
  let global_gc () =
    let deleted = timed t.gc (fun () -> Coordinator.collect_garbage coord) in
    if not (Intset.is_empty deleted) then begin
      t.gc_deleted <- t.gc_deleted + Intset.cardinal deleted;
      t.gc_productive <- t.gc_productive + 1;
      timed t.broadcast (fun () ->
          Array.iter (fun sh -> ignore (Shard.apply_global_deletions sh deleted)) shards);
      Intset.iter (Hashtbl.remove hosting) deleted
    end
  in
  let local_gc () =
    let deleted =
      timed t.shard_gc (fun () -> Array.map Shard.collect_garbage shards)
    in
    Array.iter (fun d -> t.local_deleted <- t.local_deleted + Intset.cardinal d) deleted
  in
  let on_shard f = timed t.shard f in
  let process index step =
    match timed t.decide (fun () -> Coordinator.decide coord step) with
    | Rules.Accepted ->
        t.accepted <- t.accepted + 1;
        (match step with
        | Step.Begin _ | Step.Begin_declared _ -> ()
        | Step.Read (txn, entity) ->
            let s = Partitioner.shard_of p entity in
            on_shard (fun () -> Shard.apply_read shards.(s) ~txn ~entity);
            host txn s
        | Step.Write (txn, entities) ->
            List.iter
              (fun (s, slice) ->
                on_shard (fun () ->
                    Shard.apply_write shards.(s) ~txn ~entities:slice ~value:index);
                host txn s)
              (by_shard p entities);
            t.committed <- t.committed + 1;
            Intset.iter (fun s -> on_shard (fun () -> Shard.complete shards.(s) txn)) (hosts txn)
        | Step.Write_one _ | Step.Finish _ ->
            invalid_arg "Replay: basic-model steps only");
        global_gc ();
        Si.Accepted
    | Rules.Rejected ->
        t.rejected <- t.rejected + 1;
        let txn = Step.txn step in
        Intset.iter (fun s -> on_shard (fun () -> Shard.abort shards.(s) txn)) (hosts txn);
        Hashtbl.remove hosting txn;
        global_gc ();
        Si.Rejected
    | Rules.Ignored ->
        t.ignored <- t.ignored + 1;
        Si.Ignored
  in
  let tenth = max 1 (n / 10) in
  let stamps = Array.make (n + 1) 0 in
  let batch = cfg.batch in
  let t0 = Stats.now () in
  List.iteri
    (fun k step ->
      stamps.(k) <- Stats.now ();
      t.outcomes.(k) <- process (k + 1) step;
      if (k + 1) mod batch = 0 then local_gc ())
    steps;
  stamps.(n) <- Stats.now ();
  (* [Engine.finish]: the partial batch's boundary, one more global
     round, one more local round. *)
  if n mod batch <> 0 then local_gc ();
  global_gc ();
  local_gc ();
  t.wall_ns <- Stats.now () - t0;
  t.steps <- n;
  t.first_tenth_ns <- stamps.(min n tenth) - stamps.(0);
  t.last_tenth_ns <- stamps.(n) - stamps.(max 0 (n - tenth));
  t.resident_hwm <- (Coordinator.stats coord).resident_hwm;
  t.shard_resident_hwm <-
    Array.fold_left (fun acc sh -> max acc (Shard.stats sh).resident_hwm) 0 shards;
  t

(* The differences from [Engine.run]'s report and outcomes; [] when the
   replay reproduced it exactly. *)
let disagreements t (r : Engine.report) outcomes =
  let field name a b = if a = b then [] else [ Printf.sprintf "%s: replay %d, engine %d" name a b ] in
  let first_diff =
    let rec go i =
      if i >= Array.length outcomes then []
      else if t.outcomes.(i) <> outcomes.(i) then
        [ Printf.sprintf "outcome of step %d: replay %s, engine %s" (i + 1)
            (Si.outcome_name t.outcomes.(i)) (Si.outcome_name outcomes.(i)) ]
      else go (i + 1)
    in
    if Array.length outcomes <> Array.length t.outcomes then [ "outcome count" ] else go 0
  in
  List.concat
    [
      field "steps" t.steps r.steps;
      field "accepted" t.accepted r.accepted;
      field "rejected" t.rejected r.rejected;
      field "ignored" t.ignored r.ignored;
      field "committed" t.committed r.committed;
      field "resident_hwm" t.resident_hwm r.coordinator.resident_hwm;
      field "deleted" t.gc_deleted r.coordinator.deleted_total;
      field "shard_resident_hwm" t.shard_resident_hwm r.shard_resident_hwm;
      first_diff;
    ]
