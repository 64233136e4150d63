(* The engine sweep: shard count x admission batch x contention, each
   configuration run through the sharded engine on a shard-affine
   workload.

   Reported per configuration: throughput (steps/s), the coordinator's
   residency high-water mark, the worst per-shard residency high-water
   mark (the sharding win: it should sit well under the coordinator's),
   and the cross-shard arc count (the conflicts no shard sees in full).
   Every configuration is also run through the engine's differential
   mode, so the sweep doubles as an end-to-end exactness check; results
   land in BENCH_engine.json, re-read and validated before exit (the
   [make bench-engine] gate). *)

module Gen = Dct_workload.Generator
module Policy = Dct_deletion.Policy
module Eng = Dct_engine.Engine

type config = {
  shards : int;
  batch : int;
  theta : float; (* zipf skew: higher = hotter keys = more contention *)
  cross_shard : float;
  n_txns : int;
  seed : int;
}

let full_configs =
  List.concat_map
    (fun shards ->
      List.concat_map
        (fun batch ->
          List.map
            (fun theta ->
              { shards; batch; theta; cross_shard = 0.1; n_txns = 400; seed = 23 })
            [ 0.5; 0.99 ])
        [ 1; 16; 64 ])
    [ 1; 2; 4; 8 ]

let smoke_configs =
  [
    { shards = 2; batch = 8; theta = 0.9; cross_shard = 0.1; n_txns = 60;
      seed = 23 };
    { shards = 4; batch = 16; theta = 0.9; cross_shard = 0.2; n_txns = 60;
      seed = 29 };
  ]

let schedule_of c =
  Gen.basic
    {
      Gen.default with
      Gen.n_txns = c.n_txns;
      n_entities = 128;
      mpl = 8;
      skew = Printf.sprintf "zipf:%.2f" c.theta;
      seed = c.seed;
      shards = c.shards;
      cross_shard = c.cross_shard;
    }

type row = {
  c : config;
  steps : int;
  throughput : float;
  committed : int;
  aborted : int;
  coordinator_hwm : int;
  shard_hwm : int;
  cross_arcs : int;
  distributed : int;
  differential_ok : bool;
}

let run_config c =
  let schedule = schedule_of c in
  let cfg =
    Eng.config ~policy:Policy.Greedy_c1 ~shards:c.shards ~batch:c.batch ()
  in
  let r = Eng.run (Eng.create cfg) schedule in
  let d =
    Eng.differential ~shards:c.shards ~batch:c.batch ~policy:Policy.Greedy_c1
      schedule
  in
  let coord : Dct_engine.Coordinator.stats = r.Eng.coordinator in
  {
    c;
    steps = r.Eng.steps;
    throughput =
      (if r.Eng.wall_seconds > 0.0 then
         float_of_int r.Eng.steps /. r.Eng.wall_seconds
       else 0.0);
    committed = r.Eng.committed;
    aborted = r.Eng.aborted;
    coordinator_hwm = coord.resident_hwm;
    shard_hwm = r.Eng.shard_resident_hwm;
    cross_arcs = r.Eng.cross_shard_arcs;
    distributed = r.Eng.distributed_txns;
    differential_ok = Eng.differential_ok d;
  }

let host_cores = Domain.recommended_domain_count ()

let json_of_row r =
  Printf.sprintf
    "    {\"shards\": %d, \"batch\": %d, \"theta\": %.2f, \"cross_shard\": \
     %.2f, \"n_txns\": %d, \"seed\": %d, \"host_cores\": %d,\n\
    \     \"steps\": %d, \"throughput_steps_per_s\": %.1f, \
     \"committed\": %d, \"aborted\": %d,\n\
    \     \"coordinator_resident_hwm\": %d, \"shard_resident_hwm\": %d, \
     \"cross_shard_arcs\": %d, \"distributed_txns\": %d, \"differential_ok\": \
     %b}"
    r.c.shards r.c.batch r.c.theta r.c.cross_shard r.c.n_txns r.c.seed
    host_cores r.steps r.throughput r.committed
    r.aborted r.coordinator_hwm r.shard_hwm r.cross_arcs r.distributed
    r.differential_ok

let output_file = "BENCH_engine.json"

let write_json ~smoke rows =
  let oc = open_out output_file in
  Printf.fprintf oc
    "{\"bench\": \"engine_sweep\", \"version\": 3, \"smoke\": %b, \
     \"host_cores\": %d,\n\
    \  \"configs\": [\n%s\n  ]}\n"
    smoke host_cores
    (String.concat ",\n" rows);
  close_out oc

(* Crude but dependency-free validation of what we just wrote: header
   present, one clean differential per config, every throughput value a
   non-negative float, and no shard high-water mark above the
   coordinator's (the residency guarantee, as serialized). *)
let validate ~n_configs () =
  let ic = open_in output_file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let count_substring sub =
    let m = String.length sub and l = String.length s in
    let rec go i acc =
      if i + m > l then acc
      else if String.sub s i m = sub then go (i + m) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if count_substring "\"bench\": \"engine_sweep\"" <> 1 then
    err "missing bench header";
  if count_substring "\"differential_ok\": true" <> n_configs then
    err "expected %d clean differentials" n_configs;
  let float_values key =
    let key = Printf.sprintf "\"%s\": " key in
    let klen = String.length key in
    let rec go i acc =
      if i + klen > String.length s then List.rev acc
      else if String.sub s i klen = key then begin
        let stop = ref (i + klen) in
        while
          !stop < String.length s
          && (match s.[!stop] with
             | '0' .. '9' | '.' | '-' | 'e' -> true
             | _ -> false)
        do
          incr stop
        done;
        go !stop (String.sub s (i + klen) (!stop - i - klen) :: acc)
      end
      else go (i + 1) acc
    in
    go 0 []
  in
  let throughputs = float_values "throughput_steps_per_s" in
  if List.length throughputs <> n_configs then
    err "expected %d throughput entries, found %d" n_configs
      (List.length throughputs);
  List.iter
    (fun tok ->
      match float_of_string_opt tok with
      | Some f when f >= 0.0 -> ()
      | _ -> err "unparseable throughput %S" tok)
    throughputs;
  let ints key = List.filter_map int_of_string_opt (float_values key) in
  let coord = ints "coordinator_resident_hwm" in
  let shard = ints "shard_resident_hwm" in
  if List.length coord = n_configs && List.length shard = n_configs then
    List.iter2
      (fun c sh ->
        if sh > c then err "shard hwm %d exceeds coordinator hwm %d" sh c)
      coord shard
  else err "missing residency high-water marks";
  !errors

let run ~smoke () =
  let configs = if smoke then smoke_configs else full_configs in
  Printf.printf "engine sweep (%d configs, %d host cores)%s\n"
    (List.length configs) host_cores
    (if smoke then " [smoke]" else "");
  Printf.printf "%6s %6s %6s %6s %10s %10s %9s %9s %6s\n" "shards" "batch"
    "theta" "steps" "steps/s" "coord hwm" "shard hwm" "crossarcs" "diff";
  let failures = ref 0 in
  let rows = List.map run_config configs in
  let jsons =
    List.map
      (fun r ->
        if not r.differential_ok then incr failures;
        Printf.printf "%6d %6d %6.2f %6d %10.0f %10d %9d %9d %6s\n" r.c.shards
          r.c.batch r.c.theta r.steps r.throughput r.coordinator_hwm
          r.shard_hwm r.cross_arcs
          (if r.differential_ok then "ok" else "FAIL");
        json_of_row r)
      rows
  in
  write_json ~smoke jsons;
  (match validate ~n_configs:(List.length configs) () with
  | [] -> Printf.printf "wrote %s (validated)\n" output_file
  | errs ->
      List.iter
        (Printf.eprintf "engine sweep: %s malformed: %s\n" output_file)
        errs;
      incr failures);
  if !failures > 0 then exit 1
