(* The network sweep: workload mix x shards x deletion policy x
   gc-index, each configuration served over a loopback Unix socket by
   the threaded server and driven by the closed-loop multi-client
   driver.

   Reported per configuration: driver-side throughput (ops/s), the
   p50/p90/p99 op latency from the merged nanosecond histograms, the
   completed/aborted transaction split, and the server engine's
   resident-graph high-water marks (coordinator and worst shard) — the
   number the paper's deletion machinery is supposed to keep low while
   traffic flows.  Results land in BENCH_net.json, re-read and
   validated before exit (the [make bench-net] gate): every workload
   class must have a row, including the pinned-deletability scenario
   (long-reader-pin), whose coordinator high-water mark is what the
   adversarial long readers are pinning.

   [host_cores] is recorded honestly: on a single-core CI host the
   client threads and the server interleave on one core, so throughput
   measures protocol + engine overhead, not parallelism. *)

module Mix = Dct_workload.Mix
module Policy = Dct_deletion.Policy
module Didx = Dct_deletion.Deletability_index
module Eng = Dct_engine.Engine
module Net = Dct_net
module Metrics = Dct_telemetry.Metrics

type config = {
  mix : Mix.t;
  clients : int;
  txns_per_client : int;
  keys : int;
  shards : int;
  batch : int;
  policy : Policy.t;
  gc_index : Didx.mode option;
  seed : int;
}

let base =
  {
    mix = Mix.Ycsb_b;
    clients = 4;
    txns_per_client = 60;
    keys = 512;
    shards = 4;
    batch = 8;
    policy = Policy.Greedy_c1;
    gc_index = None;
    seed = 42;
  }

(* Every mix once on the base configuration, then secondary axes on
   YCSB-B (the read-mostly staple) and on the pinned-deletability
   scenario (where GC pressure is the point). *)
let full_configs =
  List.map (fun mix -> { base with mix }) Mix.all
  @ List.concat_map
      (fun mix ->
        [
          { base with mix; shards = 1 };
          { base with mix; shards = 8 };
          { base with mix; policy = Policy.Noncurrent };
          { base with mix; policy = Policy.No_deletion };
          { base with mix; gc_index = Some Didx.Incremental };
        ])
      [ Mix.Ycsb_b; Mix.Long_reader_pin ]

(* Smoke keeps every workload class (the BENCH_net.json contract) but
   shrinks the traffic; one extra row exercises the gc-index axis. *)
let smoke_configs =
  List.map
    (fun mix -> { base with mix; clients = 2; txns_per_client = 12; keys = 128 })
    Mix.all
  @ [
      {
        base with
        mix = Mix.Long_reader_pin;
        clients = 2;
        txns_per_client = 12;
        keys = 128;
        gc_index = Some Didx.Incremental;
      };
    ]

type row = {
  c : config;
  backend : string;
  txns : int;
  completed : int;
  aborted : int;
  ops : int;
  throughput : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  coordinator_hwm : int;
  shard_hwm : int;
}

let host_cores = Domain.recommended_domain_count ()

let sock_path idx =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dct-net-sweep-%d-%d.sock" (Unix.getpid ()) idx)

let run_config idx c =
  let cfg =
    Eng.config ~policy:c.policy ?gc_index:c.gc_index ~shards:c.shards
      ~batch:c.batch ()
  in
  let backend ~on_step = Net.Backend.seq ~on_step cfg in
  let srv = Net.Server.create ~backend (Net.Addr.Unix_path (sock_path idx)) in
  Net.Server.start srv;
  let dres =
    Net.Driver.run
      {
        Net.Driver.clients = c.clients;
        txns_per_client = c.txns_per_client;
        mix = c.mix;
        keys = c.keys;
        seed = c.seed;
        dialect = Net.Wire.Binary;
      }
      (Net.Server.addr srv)
  in
  Net.Server.stop srv;
  let report = Net.Server.finish srv ~wall_seconds:dres.Net.Driver.wall_seconds in
  let m = dres.Net.Driver.metrics in
  let pct p = Metrics.histo_percentile m "net.latency.all" p /. 1e3 in
  {
    c;
    backend = Net.Backend.name (Net.Server.backend srv);
    txns = dres.Net.Driver.txns;
    completed = dres.Net.Driver.completed;
    aborted = dres.Net.Driver.aborted;
    ops = dres.Net.Driver.ops;
    throughput = dres.Net.Driver.throughput;
    p50_us = pct 50.;
    p90_us = pct 90.;
    p99_us = pct 99.;
    coordinator_hwm = report.Eng.coordinator.Dct_engine.Coordinator.resident_hwm;
    shard_hwm = report.Eng.shard_resident_hwm;
  }

let json_of_row r =
  Printf.sprintf
    "    {\"mix\": %S, \"backend\": %S, \"clients\": %d, \"txns_per_client\": \
     %d, \"keys\": %d, \"shards\": %d, \"batch\": %d, \"policy\": %S, \
     \"gc_index\": %S, \"seed\": %d, \"host_cores\": %d,\n\
    \     \"txns\": %d, \"completed\": %d, \"aborted\": %d, \"ops\": %d, \
     \"throughput_ops_per_s\": %.1f,\n\
    \     \"p50_us\": %.1f, \"p90_us\": %.1f, \"p99_us\": %.1f, \
     \"coordinator_resident_hwm\": %d, \"shard_resident_hwm\": %d}"
    (Mix.name r.c.mix) r.backend r.c.clients r.c.txns_per_client r.c.keys
    r.c.shards r.c.batch (Policy.name r.c.policy)
    (match r.c.gc_index with None -> "naive" | Some m -> Didx.mode_name m)
    r.c.seed host_cores r.txns r.completed r.aborted r.ops r.throughput
    r.p50_us r.p90_us r.p99_us r.coordinator_hwm r.shard_hwm

let output_file = "BENCH_net.json"

let write_json ~smoke rows =
  let oc = open_out output_file in
  Printf.fprintf oc
    "{\"bench\": \"net_sweep\", \"version\": 1, \"smoke\": %b, \
     \"host_cores\": %d,\n\
    \  \"configs\": [\n%s\n  ]}\n"
    smoke host_cores
    (String.concat ",\n" rows);
  close_out oc

(* Dependency-free validation of what we just wrote: header present,
   a row for every workload class (the pinned-deletability scenario
   among them), every percentile trio ordered, and no unaccounted
   transactions. *)
let validate ~rows () =
  let ic = open_in output_file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let count_substring sub =
    let m = String.length sub and l = String.length s in
    let rec go i acc =
      if i + m > l then acc
      else if String.sub s i m = sub then go (i + m) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  if count_substring "\"bench\": \"net_sweep\"" <> 1 then
    err "missing bench header";
  List.iter
    (fun mix ->
      if count_substring (Printf.sprintf "\"mix\": %S" (Mix.name mix)) = 0 then
        err "no row for workload class %S" (Mix.name mix))
    Mix.all;
  if count_substring "\"throughput_ops_per_s\"" <> List.length rows then
    err "expected %d throughput entries" (List.length rows);
  List.iter
    (fun r ->
      if r.p50_us > r.p90_us || r.p90_us > r.p99_us then
        err "unordered percentiles for %S: %.1f/%.1f/%.1f" (Mix.name r.c.mix)
          r.p50_us r.p90_us r.p99_us;
      if r.throughput < 0.0 then err "negative throughput";
      if r.completed + r.aborted <> r.txns then
        err "unaccounted transactions for %S: %d + %d <> %d"
          (Mix.name r.c.mix) r.completed r.aborted r.txns)
    rows;
  !errors

let run ~smoke () =
  let configs = if smoke then smoke_configs else full_configs in
  Printf.printf "net sweep (%d configs, %d host cores)%s\n"
    (List.length configs) host_cores
    (if smoke then " [smoke]" else "");
  Printf.printf "%-16s %7s %6s %8s %10s %8s %8s %8s %6s %6s\n" "mix" "shards"
    "policy" "gcidx" "ops/s" "p50us" "p99us" "txns" "coord" "shard";
  let rows = List.mapi run_config configs in
  let failures = ref 0 in
  List.iter
    (fun r ->
      Printf.printf "%-16s %7d %6s %8s %10.0f %8.0f %8.0f %8d %6d %6d\n"
        (Mix.name r.c.mix) r.c.shards
        (String.sub (Policy.name r.c.policy) 0
           (min 6 (String.length (Policy.name r.c.policy))))
        (match r.c.gc_index with None -> "naive" | Some m -> Didx.mode_name m)
        r.throughput r.p50_us r.p99_us r.txns r.coordinator_hwm r.shard_hwm)
    rows;
  write_json ~smoke (List.map json_of_row rows);
  (match validate ~rows () with
  | [] -> Printf.printf "wrote %s (validated)\n" output_file
  | errs ->
      List.iter
        (Printf.eprintf "net sweep: %s malformed: %s\n" output_file)
        errs;
      incr failures);
  if host_cores = 1 then
    Printf.printf
      "note: single-core host — clients and server share one core; \
       throughput measures protocol + engine overhead\n";
  if !failures > 0 then exit 1
