(* The three workloads.  A run processes fixed inputs generated from
   the seed, never a fixed duration: at this point in the project the
   per-step cost grows with history even when residency is flat, so a
   fixed-duration input would penalise a faster program.  The seed
   yields [inputs] inputs of [txns] transactions each; a run feeds each
   to a fresh engine or server in turn, over and over until its time
   is up, and reports figures taken over all inputs and
   repetitions (medians, or the value nine repetitions in ten reach),
   so one unlucky input does not move a run's figures. *)

module Mix = Dct_workload.Mix
module Engine = Dct_engine.Engine

type t = {
  name : string;
  why : string;  (** why the workload is in the benchmark *)
  mix : Mix.t;
  keys : int;
  mpl : int;  (** interleaving level of the engine schedule *)
  txns : int;  (** default input size: transactions per input *)
  inputs : int;  (** inputs per run, each from its own sub-seed *)
  served : bool;
  config : unit -> Engine.config;
}

(* The configuration [dct serve] uses: 4 shards, batch 16, and every
   optional argument at its library default (greedy-c1, naive GC index,
   DFS cycle check; the server adds its 20 ms flush). *)
let default_config () = Engine.config ~shards:4 ~batch:16 ()

(* Closed-loop load: one connection per core of the machine the numbers
   were taken on, one op outstanding per connection, as a user of the
   blocking [Client.call] has. *)
let clients = 2

let all =
  [
    {
      name = "served-ycsb-a";
      why =
        "The only workload that exercises net and the group-commit timer. \
         The engine's own cost is about 0.1% of a ~20 ms round trip, so \
         net and admission changes show here and engine changes do not.";
      mix = Mix.Ycsb_a;
      keys = 4096;
      mpl = clients;
      txns = 100;
      inputs = 12;
      served = true;
      config = default_config;
    };
    {
      name = "engine-tpcc";
      why =
        "Multi-row writes span shards and ~4% of steps are cycle \
         rejections, so time spreads over all five engine layers. \
         Residency stays near 27: GC-index changes should show no effect \
         here; the main workload for shard, broadcast and decide changes.";
      mix = Mix.Tpcc;
      keys = 4096;
      mpl = 16;
      txns = 2000;
      inputs = 8;
      served = false;
      config = default_config;
    };
    {
      name = "engine-pin";
      why =
        "Every 8th transaction is a 48-read reader that pins its tight \
         successors; residency plateaus near 97 and coordinator GC takes \
         most of a step.  Exercises the incremental GC index that \
         engine-tpcc (naive) bypasses.";
      mix = Mix.Long_reader_pin;
      keys = 16384;
      mpl = 64;
      txns = 2000;
      inputs = 8;
      served = false;
      config =
        (fun () ->
          Engine.config ~gc_index:Dct_deletion.Deletability_index.Incremental
            ~shards:4 ~batch:16 ());
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The seed of input [k] of a run with seed [seed]. *)
let input_seed ~seed k = (seed * 64) + k

let schedule w ~txns ~seed k =
  Mix.schedule w.mix ~n_txns:txns ~keys:w.keys ~mpl:w.mpl ~seed:(input_seed ~seed k)
