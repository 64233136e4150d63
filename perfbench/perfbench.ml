(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--txns N]

   With --trace 0 it prints the end-to-end metrics, measured with no
   instrumentation beyond clock reads around each op.  With --trace 1 it
   prints the per-layer metrics of a separate traced run on the same
   seed and size.  The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; a failed correctness check
   makes the exit code 1.  Every check runs outside the timed region. *)

module Engine = Dct_engine.Engine
module Wire = Dct_net.Wire
module Client = Dct_net.Client
module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf
module Buf = Stats.Buf

type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

type run = {
  tally : Tally.t;
  mutable errors : string list;
  mutable reps : int;
  mutable top_heap_mb : float;  (** after the first cycle *)
}

let fail run fmt = Printf.ksprintf (fun e -> run.errors <- run.errors @ [ e ]) fmt

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Feed the seed's inputs in turn ([f k] for input [k]), over and
   over, until the run's time is up: at least every input once, and
   stopping at the first repetition that ends past the deadline rather
   than at the end of a cycle, so a run measures for about its
   seconds.  The heap is read after the first cycle, so that a faster
   program, which fits more repetitions and keeps more samples, does
   not read larger. *)
let cycles run (w : Workload.t) ~seconds f =
  let deadline = Stats.now () + int_of_float (seconds *. 1e9) in
  let out = ref [] in
  let rec go k =
    out := (k, f k) :: !out;
    run.reps <- run.reps + 1;
    if run.reps = w.inputs then run.top_heap_mb <- top_heap_mb ();
    if run.reps < w.inputs || Stats.now () < deadline then go ((k + 1) mod w.inputs)
  in
  go 0;
  List.rev !out

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let seconds ns = float_of_int ns *. 1e-9

let percentiles ~prefix ~suffix samples =
  let a = Buf.to_array samples in
  Array.sort compare a;
  let samples = Array.length a in
  List.map
    (fun (p, tag) ->
      metric ~samples (prefix ^ tag ^ suffix) "us"
        (float_of_int (Stats.percentile a p) /. 1e3))
    [ (0.50, "p50"); (0.99, "p99") ]

let per_s count ns = float_of_int count /. seconds ns

let begun_of steps =
  List.length (List.filter (function Step.Begin _ -> true | _ -> false) steps)

let with_outcomes steps outcomes = Array.of_list (List.mapi (fun i s -> (s, outcomes.(i))) steps)

let check_history run decided =
  let ser = Engine_pass.check_serializable decided in
  if not ser.passed then
    fail run "committed history (%d ops, %d commits) fails the Serializable check" ser.ops
      ser.commits;
  ser

(* Served checks: outcome indices cover 1..N exactly once, a fresh
   engine with the same config decides the decision-ordered steps
   identically, and the committed history is serializable.  Returns
   the decided history and the fresh engine's peak resident bytes. *)
let check_served run cfg (r : Served.rep) =
  Array.iter (fun (op : Served.op) -> Tally.add run.tally op.result) r.ops;
  match Served.decision_order r.ops with
  | None ->
      fail run "outcome step indices do not cover 1..%d exactly once" (Array.length r.ops);
      None
  | Some decided ->
      let steps = Array.to_list (Array.map fst decided) in
      let fresh, peak = Engine_pass.resident_bytes_peak cfg steps in
      if Array.map snd decided <> Engine_pass.outcomes fresh then
        fail run "a fresh engine decides the served steps differently";
      Some (decided, peak, check_history run decided)

(* [speed] is ops_per_s and the op_latency percentiles, measured as
   each workload kind needs.  Set-up (generating an input, building the
   engine or server, connecting clients) is short and noisy, so it is
   timed on every repetition and reported as the median. *)
let end_to_end ~speed ~commit_fraction:(committed, begun) ~(tally : Tally.t) ~resident_hwm
    ~resident_bytes_peak ~top_heap ~setup_ns =
  speed
  @ [
      metric ~samples:begun "commit_fraction" "fraction" (Stats.ratio committed begun);
      metric ~samples:tally.attempted "ok_op_fraction" "fraction"
        (1. -. Stats.ratio tally.failed tally.attempted);
      metric ~samples:(List.length resident_hwm) "resident_hwm" "count" (Stats.median resident_hwm);
      metric ~samples:(List.length resident_bytes_peak) "resident_bytes_peak" "bytes"
        (Stats.median resident_bytes_peak);
      metric "top_heap_mb" "MB" top_heap;
      metric ~samples:(List.length setup_ns) "setup_s" "s"
        (Stats.median (List.map seconds setup_ns));
    ]

(* On the engine workloads each speed figure is taken per repetition
   (one input through a fresh engine, about a second), and the run
   reports the value that nine repetitions in ten reach: the 10th
   percentile of the rates, the 90th of each latency percentile.  On a
   shared host the memory speed moves between levels up to 1.8x apart,
   each held for tens of seconds; a pooled figure moves with the share
   of a run spent at each level, while the slower levels recur often
   enough that most runs spend a tenth of their time at one.
   [reps] holds each repetition's ops, wall time and its span of
   [latency]. *)
let per_rep_speed latency reps =
  let sorted = List.map (fun (_, _, (first, last)) -> Buf.sorted_sub latency first last) reps in
  let samples = Buf.length latency in
  metric ~samples:(List.length reps) "ops_per_s" "1/s"
    (Stats.quantile (List.map (fun (ops, ns, _) -> per_s ops ns) reps) 0.1)
  :: List.map
       (fun (p, tag) ->
         metric ~samples ("op_latency_" ^ tag ^ "_us") "us"
           (Stats.quantile
              (List.map (fun a -> float_of_int (Stats.percentile a p) /. 1e3) sorted)
              0.9))
       [ (0.50, "p50"); (0.99, "p99") ]

let engine_untraced run (w : Workload.t) ~seed ~txns ~seconds =
  let cfg = w.config () in
  let latency = Buf.create () in
  let reps =
    cycles run w ~seconds (fun k ->
        let t0 = Stats.now () in
        let steps = Workload.schedule w ~txns ~seed k in
        let eng = Engine.create cfg in
        let setup_ns = Stats.now () - t0 in
        let first = Buf.length latency in
        let r = Engine_pass.run eng steps ~latency in
        (setup_ns, r, (first, Buf.length latency)))
  in
  (* One reference pass per input, outside the timed region: resident
     bytes, and the outcomes every repetition of the input must match. *)
  let refs =
    Array.init w.inputs (fun k ->
        let steps = Workload.schedule w ~txns ~seed k in
        let reference, bytes_peak = Engine_pass.resident_bytes_peak cfg steps in
        ignore (check_history run (with_outcomes steps (Engine_pass.outcomes reference)));
        (steps, reference, bytes_peak))
  in
  List.iter
    (fun (k, (_, (r : Engine_pass.run), _)) ->
      let steps, (reference : Engine_pass.run), _ = refs.(k) in
      Tally.add_counts run.tally ~attempted:(List.length steps) ~answered:r.decided;
      if not (Bytes.equal r.decisions reference.decisions) then
        fail run "a repetition of input %d decided differently from its reference pass" k)
    reps;
  let per_input f = Array.to_list (Array.map f refs) in
  end_to_end
    ~speed:
      (per_rep_speed latency
         (List.map
            (fun (_, (_, (r : Engine_pass.run), span)) -> (r.report.steps, r.wall_ns, span))
            reps))
    ~commit_fraction:
      ( Array.fold_left (fun acc (_, (r : Engine_pass.run), _) -> acc + r.report.committed) 0 refs,
        Array.fold_left (fun acc (steps, _, _) -> acc + begun_of steps) 0 refs )
    ~tally:run.tally
    ~resident_hwm:
      (per_input (fun (_, (r : Engine_pass.run), _) ->
           float_of_int r.report.coordinator.resident_hwm))
    ~resident_bytes_peak:(per_input (fun (_, _, peak) -> float_of_int peak))
    ~top_heap:run.top_heap_mb
    ~setup_ns:(List.map (fun (_, (setup_ns, _, _)) -> setup_ns) reps)

let served_untraced run (w : Workload.t) ~seed ~txns ~seconds =
  let cfg = w.config () in
  let reps = List.map snd (cycles run w ~seconds (Served.rep w ~seed ~txns ~stamp:false)) in
  let latency = Buf.create () in
  let begun = ref 0 and committed = ref 0 and peaks = ref [] in
  List.iter
    (fun (r : Served.rep) ->
      Array.iter
        (fun (op : Served.op) ->
          match op.result with
          | Tally.Decided { outcome; _ } ->
              Buf.push latency (op.recv - op.sent);
              (match op.step with Step.Begin _ -> incr begun | _ -> ());
              if outcome = Si.Accepted && Step.completes_basic op.step then incr committed
          | Tally.Failed _ -> ())
        r.ops;
      Option.iter
        (fun (_, peak, _) -> peaks := float_of_int peak :: !peaks)
        (check_served run cfg r))
    reps;
  let answered (r : Served.rep) =
    Array.fold_left
      (fun acc (op : Served.op) -> match op.result with Tally.Decided _ -> acc + 1 | _ -> acc)
      0 r.ops
  in
  (* A served repetition has too few ops for a p99 of its own, so the
     served figures pool every repetition. *)
  end_to_end
    ~speed:
      (metric ~samples:(List.length reps) "ops_per_s" "1/s"
         (per_s (sum answered reps) (sum (fun (r : Served.rep) -> r.wall_ns) reps))
      :: percentiles ~prefix:"op_latency_" ~suffix:"_us" latency)
    ~commit_fraction:(!committed, !begun)
    ~tally:run.tally
    ~resident_hwm:
      (List.map (fun (r : Served.rep) -> float_of_int r.report.coordinator.resident_hwm) reps)
    (* The served engine is out of reach behind the server, so its peak
       is taken from the fresh-engine re-run of the decision order. *)
    ~resident_bytes_peak:!peaks ~top_heap:run.top_heap_mb
    ~setup_ns:(List.map (fun (r : Served.rep) -> r.setup_ns) reps)

(* --- the traced run ------------------------------------------------ *)

(* What each layer's metrics should move, and where:
   - net (Wire, Server, Client): op_latency_* and ops_per_s on
     served-ycsb-a; nothing on the engine workloads.
   - admission (Admission and the server's flush ticker): the same, on
     served-ycsb-a, where batches never fill.
   - coordinator (decide: Rules and the cycle check), shard (apply,
     complete, abort), broadcast and shard_gc: ops_per_s on engine-tpcc.
   - gc (collect_garbage: Policy, Deletability_index): ops_per_s and
     op_latency_p99_us on engine-pin, less on engine-tpcc; resident_hwm
     and resident_bytes_peak must not rise.
   - engine (whole step): ops_per_s on both engine workloads; drift
     (late steps slower than early ones) also shows in
     resident_bytes_peak.
   - check (Dct_check.Checker): no end-to-end metric yet; it runs
     outside every timed region.
   On the engine workloads the *.time_share values and
   trace.unattributed_share (bookkeeping between the timed calls) add
   up to the traced wall. *)

(* Pure [Wire] codec cost on this workload's requests: per op, the
   request's encode and decode plus its [Outcome] reply's. *)
let wire_codec run steps =
  let reqs = Array.of_list (List.map Client.request_of_step steps) in
  let replies = Array.mapi (fun i _ -> Wire.Outcome { step = i + 1; outcome = Si.Accepted }) reqs in
  Array.iter
    (fun req ->
      match Wire.decode_request Wire.Binary (Wire.encode_request Wire.Binary req) ~pos:0 with
      | Ok (r, _) when r = req -> ()
      | _ -> fail run "wire request does not round-trip")
    reqs;
  let ops = ref 0 in
  let t0 = Stats.now () in
  while Stats.now () - t0 < 100_000_000 do
    Array.iteri
      (fun i req ->
        ignore (Wire.decode_request Wire.Binary (Wire.encode_request Wire.Binary req) ~pos:0);
        ignore
          (Wire.decode_response Wire.Binary (Wire.encode_response Wire.Binary replies.(i)) ~pos:0))
      reqs;
    ops := !ops + Array.length reqs
  done;
  metric ~samples:!ops "net.wire_codec_ns_per_op" "ns/op" (Stats.ratio (Stats.now () - t0) !ops)

let net_split reps =
  let to_decision = Buf.create () and from_decision = Buf.create () in
  List.iter (Served.split ~to_decision ~from_decision) reps;
  percentiles ~prefix:"net.to_decision_us." ~suffix:"" to_decision
  @ percentiles ~prefix:"net.from_decision_us." ~suffix:"" from_decision

let admission (reports : Engine.report list) =
  let flushes = sum (fun (r : Engine.report) -> r.full_batches + r.ticks) reports in
  [
    metric ~samples:flushes "admission.steps_per_flush" "steps/flush"
      (Stats.ratio (sum (fun (r : Engine.report) -> r.steps) reports) flushes);
    metric ~samples:flushes "admission.full_batch_fraction" "fraction"
      (Stats.ratio (sum (fun (r : Engine.report) -> r.full_batches) reports) flushes);
  ]

(* One untraced [Engine] pass and one traced replay of the same steps;
   the replay must reproduce the engine exactly. *)
let layer_pass run cfg steps =
  let u = Engine_pass.run (Engine.create cfg) steps ~latency:(Buf.create ()) in
  let r = Replay.run cfg steps in
  List.iter (fail run "traced replay disagrees with Engine.run: %s")
    (Replay.disagreements r u.report (Engine_pass.outcomes u));
  (u, r)

let layers (pairs : (Engine_pass.run * Replay.t) list) =
  let rs = List.map snd pairs in
  let steps = sum (fun (r : Replay.t) -> r.steps) rs in
  let wall = sum (fun (r : Replay.t) -> r.wall_ns) rs in
  let total f = sum (fun r -> f r) rs in
  let ns l = total (fun r -> (l r).Replay.ns) in
  let words l = total (fun r -> (l r).Replay.words) in
  let calls l = total (fun r -> (l r).Replay.calls) in
  let share l = Stats.ratio (ns l) wall in
  let decide r = r.Replay.decide and gc r = r.Replay.gc and shard r = r.Replay.shard in
  let broadcast r = r.Replay.broadcast and shard_gc r = r.Replay.shard_gc in
  let deleted = total (fun r -> r.gc_deleted) in
  let shares = List.map share [ decide; gc; shard; broadcast; shard_gc ] in
  [
    metric ~samples:steps "coordinator.decide_ns_per_step" "ns/step" (Stats.ratio (ns decide) steps);
    metric ~samples:steps "coordinator.decide_minor_words_per_step" "words/step"
      (Stats.ratio (words decide) steps);
    metric ~samples:steps "coordinator.reject_fraction" "fraction"
      (Stats.ratio (total (fun r -> r.rejected)) steps);
    metric "coordinator.time_share" "fraction" (share decide);
    metric ~samples:(calls gc) "gc.ns_per_call" "ns/call" (Stats.ratio (ns gc) (calls gc));
    metric ~samples:(calls gc) "gc.minor_words_per_call" "words/call"
      (Stats.ratio (words gc) (calls gc));
    metric ~samples:(calls gc) "gc.deleted_per_call" "txns/call" (Stats.ratio deleted (calls gc));
    metric "gc.time_share" "fraction" (share gc);
    metric ~samples:(calls gc) "gc.productive_call_fraction" "fraction"
      (Stats.ratio (total (fun r -> r.gc_productive)) (calls gc));
    metric ~samples:steps "shard.apply_ns_per_step" "ns/step" (Stats.ratio (ns shard) steps);
    metric ~samples:steps "shard.apply_minor_words_per_step" "words/step"
      (Stats.ratio (words shard) steps);
    metric "shard.resident_hwm" "count"
      (float_of_int (List.fold_left (fun acc (r : Replay.t) -> max acc r.shard_resident_hwm) 0 rs));
    metric "shard.time_share" "fraction" (share shard);
    metric ~samples:deleted "broadcast.ns_per_deleted_txn" "ns/txn"
      (Stats.ratio (ns broadcast) deleted);
    metric "broadcast.time_share" "fraction" (share broadcast);
    metric ~samples:(calls shard_gc) "shard_gc.ns_per_batch" "ns/batch"
      (Stats.ratio (ns shard_gc) (calls shard_gc));
    metric ~samples:(calls shard_gc) "shard_gc.deleted_per_batch" "txns/batch"
      (Stats.ratio (total (fun r -> r.local_deleted)) (calls shard_gc));
    metric "shard_gc.time_share" "fraction" (share shard_gc);
    metric ~samples:steps "engine.minor_words_per_step" "words/step"
      (sumf (fun ((u : Engine_pass.run), _) -> u.minor_words) pairs /. float_of_int steps);
    metric "engine.drift_ratio" "ratio"
      (Stats.ratio (total (fun r -> r.last_tenth_ns)) (total (fun r -> r.first_tenth_ns)));
    metric "trace.overhead" "ratio"
      (Stats.ratio wall (sum (fun ((u : Engine_pass.run), _) -> u.wall_ns) pairs));
    metric "trace.unattributed_share" "fraction" (1. -. List.fold_left ( +. ) 0. shares);
  ]

let check_ser_metric (sers : Engine_pass.ser list) =
  let ops = sum (fun (s : Engine_pass.ser) -> s.ops) sers in
  metric ~samples:ops "check.ser_ns_per_op" "ns/op"
    (Stats.ratio (sum (fun (s : Engine_pass.ser) -> s.ser_ns) sers) ops)

(* Engine workloads serve a prefix of their schedule, pipelined, for
   the net split. *)
let net_prefix_steps = 4096
let net_window = 64

let engine_traced run (w : Workload.t) ~seed ~txns ~seconds =
  let cfg = w.config () in
  let passes =
    cycles run w ~seconds (fun k ->
        let steps = Workload.schedule w ~txns ~seed k in
        let ((u : Engine_pass.run), _) as pair = layer_pass run cfg steps in
        Tally.add_counts run.tally ~attempted:(List.length steps) ~answered:u.decided;
        (steps, pair))
  in
  let first_cycle = List.filteri (fun i _ -> i < w.inputs) passes in
  let sers =
    List.map
      (fun (_, (steps, ((u : Engine_pass.run), _))) ->
        check_history run (with_outcomes steps (Engine_pass.outcomes u)))
      first_cycle
  in
  let steps0 = fst (snd (List.hd passes)) in
  let served =
    Served.pipelined cfg (List.filteri (fun i _ -> i < net_prefix_steps) steps0) ~window:net_window
  in
  ignore (check_served run cfg served);
  let pairs = List.map (fun (_, (_, pair)) -> pair) passes in
  net_split [ served ]
  @ [ wire_codec run (List.concat_map (fun (_, (steps, _)) -> steps) first_cycle) ]
  @ admission (List.map (fun ((u : Engine_pass.run), _) -> u.report) pairs)
  @ layers pairs
  @ [ check_ser_metric sers ]

let served_traced run (w : Workload.t) ~seed ~txns ~seconds =
  let cfg = w.config () in
  let reps = List.map snd (cycles run w ~seconds (Served.rep w ~seed ~txns ~stamp:true)) in
  let checked = List.filter_map (check_served run cfg) reps in
  (* The engine layers replay each repetition's decision-ordered steps
     in-process. *)
  let histories = List.map (fun (d, _, _) -> Array.to_list (Array.map fst d)) checked in
  net_split reps
  @ [ wire_codec run (List.concat histories) ]
  @ admission (List.map (fun (r : Served.rep) -> r.report) reps)
  @ layers (List.map (layer_pass run cfg) histories)
  @ [ check_ser_metric (List.map (fun (_, _, s) -> s) checked) ]

(* --- output ------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Printf.sprintf "%.12g" x else "0"
let json_object fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let () =
  let workload = ref "" and seed = ref 1 and secs = ref 10. and trace = ref 0 in
  let txns = ref 0 and git_rev = ref "unknown" in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--txns N]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " served-ycsb-a | engine-tpcc | engine-pin");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float secs, " measure for this long (repeating the fixed input)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--txns", Arg.Set_int txns, " transactions per input (default: per workload)");
      ("--git-rev", Arg.Set_string git_rev, " revision recorded with the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  let txns = if !txns > 0 then !txns else w.txns in
  let run = { tally = Tally.create (); errors = []; reps = 0; top_heap_mb = 0. } in
  let measure =
    match (w.served, !trace = 1) with
    | true, false -> served_untraced
    | true, true -> served_traced
    | false, false -> engine_untraced
    | false, true -> engine_traced
  in
  let metrics = measure run w ~seed:!seed ~txns ~seconds:!secs in
  Printf.printf "perfbench %s: seed %d, %d inputs of %d txns, %d repetition(s), trace %d\n"
    w.name !seed w.inputs txns run.reps !trace;
  List.iter
    (fun m -> Printf.printf "  %-40s %18.4f %-11s n=%d\n" m.name m.value m.unit m.samples)
    metrics;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") run.errors;
  let correct = run.errors = [] && run.tally.failed = 0 in
  print_endline
    (json_object
       [
         ( "stamp",
           json_object
             [
               ("workload", json_string w.name);
               ("why", json_string w.why);
               ("seed", string_of_int !seed);
               ("inputs", string_of_int w.inputs);
               ("txns_per_input", string_of_int txns);
               ("repetitions", string_of_int run.reps);
               ("trace", string_of_int !trace);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml", json_string Sys.ocaml_version);
               ("git_rev", json_string !git_rev);
               ( "samples",
                 json_object (List.map (fun m -> (m.name, string_of_int m.samples)) metrics) );
               ("errors", "[" ^ String.concat ", " (List.map json_string run.errors) ^ "]");
             ] );
       ]);
  print_endline
    (json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int run.tally.attempted);
         ("failed", string_of_int run.tally.failed);
         ( "metrics",
           json_object
             (List.map
                (fun m ->
                  ( m.name,
                    json_object [ ("value", json_number m.value); ("unit", json_string m.unit) ] ))
                metrics) );
       ]);
  exit (if correct then 0 else 1)
