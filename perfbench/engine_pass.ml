(* Untraced passes of a step list through [Engine], and the
   serializability check of a decided history. *)

module Engine = Dct_engine.Engine
module Coordinator = Dct_engine.Coordinator
module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf
module Event = Dct_telemetry.Event
module History = Dct_check.History
module Checker = Dct_check.Checker
module Buf = Stats.Buf

type run = {
  report : Engine.report;
  wall_ns : int;
  minor_words : float;
  decisions : Bytes.t;  (** one code per step, in decision order *)
  decided : int;
}

(* Outcomes are kept as bytes, off the scanned heap, while a run is
   timed. *)
let code = function
  | Si.Accepted -> 'a'
  | Si.Rejected -> 'r'
  | Si.Ignored -> 'i'
  | Si.Delayed -> 'd'

let decode = function
  | 'a' -> Si.Accepted
  | 'r' -> Si.Rejected
  | 'd' -> Si.Delayed
  | _ -> Si.Ignored

(* Index 0 is step 1. *)
let outcomes r = Array.init (Bytes.length r.decisions) (fun i -> decode (Bytes.get r.decisions i))

(* One pass of [steps] through [eng], a fresh engine.  The timed region is
   every [submit] plus the [finish] epilogue.  A step's latency runs
   from its [submit] to its decision, seen through [set_on_step]: the
   group-commit wait at saturation.  [on_batch] is called at each batch
   boundary (a submit that leaves nothing pending has just processed a
   batch) and once after [finish]. *)
let run ?on_batch eng steps ~latency =
  let n = List.length steps in
  let submitted = Stats.ints (n + 1) in
  let decisions = Bytes.make n 'i' in
  let decided = ref 0 in
  Engine.set_on_step eng
    (Some
       (fun index _ o ->
         Buf.push latency (Stats.now () - submitted.{index});
         Bytes.set decisions (index - 1) (code o);
         incr decided));
  let w0 = Gc.minor_words () in
  let t0 = Stats.now () in
  List.iteri
    (fun k step ->
      submitted.{k + 1} <- Stats.now ();
      Engine.submit eng step;
      match on_batch with
      | Some f when Engine.pending eng = 0 -> f eng
      | _ -> ())
    steps;
  let report = Engine.finish eng ~wall_seconds:0. in
  let wall_ns = Stats.now () - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  Option.iter (fun f -> f eng) on_batch;
  {
    report = { report with wall_seconds = float_of_int wall_ns *. 1e-9 };
    wall_ns;
    minor_words;
    decisions;
    decided = !decided;
  }

(* Maximum of the coordinator's resident bytes across batch boundaries.
   The samples cost a walk of the entity table each, so this pass is
   kept out of every timed region. *)
let resident_bytes_peak cfg steps =
  let peak = ref 0 in
  let on_batch eng =
    let c : Coordinator.stats = Coordinator.stats (Engine.coordinator eng) in
    peak := max !peak c.resident_bytes
  in
  let r = run ~on_batch (Engine.create cfg) steps ~latency:(Buf.create ()) in
  (r, !peak)

type ser = { passed : bool; ops : int; commits : int; ser_ns : int }

(* The committed history in decision order, normalised by the telemetry
   adapter of [Dct_check.History] and checked at [Serializable].  The
   checker must also count exactly the commits the scheduler made. *)
let check_serializable (decided : (Step.t * Si.outcome) array) =
  let a = History.adapter () in
  let lops = ref [] in
  let committed = ref 0 in
  Array.iteri
    (fun k (step, outcome) ->
      let index = k + 1 in
      if outcome = Si.Accepted && Step.completes_basic step then incr committed;
      ignore
        (History.feed_event a (Event.Step_submitted { index; step = Step.to_telemetry step }));
      lops :=
        List.rev_append
          (History.feed_event a
             (Event.Decision
                { index; txn = Step.txn step; outcome = Si.outcome_name outcome; reason = "" }))
          !lops)
    decided;
  let lops = List.rev !lops in
  let checker = Checker.create ~level:Dct_check.Violation.Serializable () in
  let t0 = Stats.now () in
  List.iter (Checker.feed checker) lops;
  let r = Checker.finalize checker in
  let ser_ns = Stats.now () - t0 in
  {
    passed = Checker.passed r && r.commits = !committed;
    ops = r.ops;
    commits = r.commits;
    ser_ns;
  }
