module Engine = Dct_engine.Engine
module Parallel = Dct_engine.Parallel
module Step = Dct_txn.Step
module Sched = Dct_sched.Scheduler_intf

type on_step = int -> Step.t -> Sched.outcome -> unit

type t = {
  b_name : string;
  b_submit : Step.t -> unit;
  b_tick : unit -> unit;
  b_abort : int -> bool;
  b_pending : unit -> int;
  b_stats : unit -> (string * int) list;
  b_finish : wall_seconds:float -> Engine.report;
}

let name t = t.b_name
let submit t s = t.b_submit s
let tick t = t.b_tick ()
let abort t txn = t.b_abort txn
let pending t = t.b_pending ()
let stats t = t.b_stats ()
let finish t ~wall_seconds = t.b_finish ~wall_seconds

(* Live admission counters for [stats], named as in [Engine.report]:
   a submit that leaves nothing pending flushed a full batch, and a
   tick counts only when it has steps to flush — exactly when the
   admission queue counts them. *)
let with_admission_counters b =
  let full_batches = ref 0 and ticks = ref 0 in
  {
    b with
    b_submit =
      (fun s ->
        b.b_submit s;
        if b.b_pending () = 0 then incr full_batches);
    b_tick =
      (fun () ->
        if b.b_pending () > 0 then incr ticks;
        b.b_tick ());
    b_stats =
      (fun () ->
        b.b_stats () @ [ ("full_batches", !full_batches); ("ticks", !ticks) ]);
  }

let seq ~on_step cfg =
  let eng = Engine.create cfg in
  Engine.set_on_step eng (Some on_step);
  with_admission_counters
    {
      b_name = "seq";
      b_submit = Engine.submit eng;
      b_tick = (fun () -> Engine.tick eng);
      b_abort = Engine.abort eng;
      b_pending = (fun () -> Engine.pending eng);
      b_stats =
        (fun () ->
          [
            ("steps", Engine.steps_processed eng);
            ("pending", Engine.pending eng);
            ("shards", Engine.shard_count eng);
            ( "resident",
              Array.fold_left ( + ) 0 (Engine.shard_residents eng) );
          ]);
      b_finish = (fun ~wall_seconds -> Engine.finish eng ~wall_seconds);
    }

let parallel ?mode ~on_step cfg =
  let h = Parallel.create_handle ?mode ~on_decision:on_step cfg in
  let mode_name =
    Parallel.mode_name (Option.value mode ~default:Parallel.Domains)
  in
  with_admission_counters
    {
      b_name = "par-" ^ mode_name;
      b_submit = Parallel.submit h;
      b_tick = (fun () -> Parallel.tick h);
      b_abort = Parallel.abort h;
      b_pending = (fun () -> Parallel.pending h);
      b_stats = (fun () -> [ ("pending", Parallel.pending h) ]);
      b_finish =
        (fun ~wall_seconds -> (Parallel.finish h ~wall_seconds).Parallel.base);
    }
