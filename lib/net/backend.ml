module Engine = Dct_engine.Engine
module Admission = Dct_engine.Admission

type on_step = int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit
type t = Engine.t

let seq ~on_step cfg =
  let eng = Engine.create cfg in
  Engine.set_on_step eng (Some on_step);
  eng

let name _ = "seq"
let submit = Engine.submit
let tick = Engine.tick
let abort = Engine.abort
let pending = Engine.pending

let stats eng =
  let adm = Engine.admission eng in
  [
    ("steps", Engine.steps_processed eng);
    ("pending", Engine.pending eng);
    ("shards", Engine.shard_count eng);
    ("resident", Array.fold_left ( + ) 0 (Engine.shard_residents eng));
    ("full_batches", Admission.full_batches adm);
    ("ticks", Admission.ticks adm);
  ]

let finish eng ~wall_seconds = Engine.finish eng ~wall_seconds
