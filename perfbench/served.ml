(* Serving: an in-process [Dct_net.Server] (sequential backend) on a
   Unix socket inside the checkout, driven by blocking clients. *)

module Server = Dct_net.Server
module Client = Dct_net.Client
module Backend = Dct_net.Backend
module Addr = Dct_net.Addr
module Mix = Dct_workload.Mix
module Engine = Dct_engine.Engine
module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf
module Buf = Stats.Buf

(* One op as a client saw it, times on the monotonic clock. *)
type op = { step : Step.t; sent : int; recv : int; result : Tally.result }

type serving = {
  server : Server.t;
  clients : Client.t array;
  stamps : Buf.t;  (** decision time by step index, when stamping *)
}

(* With [stamp], the benchmark's backend factory wraps the [on_step]
   the server passes it and stamps each decision by step index before
   the server routes the reply; each op's round trip can then be split
   at that stamp. *)
let start_serving cfg ~clients ~stamp =
  let stamps = Buf.create () in
  let backend ~on_step =
    let on_step =
      if stamp then (fun i s o ->
        Buf.set stamps i (Stats.now ());
        on_step i s o)
      else on_step
    in
    Backend.seq ~on_step cfg
  in
  let path = Printf.sprintf "perfbench/.%d.sock" (Unix.getpid ()) in
  let server = Server.create ~backend (Addr.Unix_path path) in
  Server.start server;
  let clients = Array.init clients (fun _ -> Client.connect (Server.addr server)) in
  { server; clients; stamps }

let stop_serving s =
  Array.iter Client.close s.clients;
  Server.stop s.server;
  Server.finish s.server ~wall_seconds:0.

let call c step =
  let req = Client.request_of_step step in
  let sent = Stats.now () in
  let result =
    try Tally.of_reply (Client.call c req) with e -> Tally.Failed (Printexc.to_string e)
  in
  { step; sent; recv = Stats.now (); result }

(* One closed-loop client: a transaction's ops go one at a time; a
   rejected op ends the transaction (its remaining ops would only come
   back [Ignored]) and a failed op ends the client. *)
let drive c plans ~id_of log =
  let exception Stop in
  try
    Array.iteri
      (fun k plan ->
        let id = id_of k in
        let rec go = function
          | [] -> ()
          | step :: rest -> (
              let op = call c step in
              log := op :: !log;
              match op.result with
              | Tally.Decided { outcome = Si.Accepted; _ } -> go rest
              | Tally.Decided _ -> ()
              | Tally.Failed _ -> raise Stop)
        in
        go (Step.Begin id :: Mix.render_plan id plan))
      plans
  with Stop -> ()

type rep = {
  setup_ns : int;
  wall_ns : int;
  ops : op array;  (** every client's ops *)
  report : Engine.report;
  stamps : Buf.t;
}

(* Set-up: generate each client's plans for input [k] of the seed,
   start the server, connect the clients. *)
let rep (w : Workload.t) ~seed ~txns ~stamp k =
  let t0 = Stats.now () in
  let n = Workload.clients in
  let plans =
    Array.init n (fun c ->
        let seed = Workload.input_seed ~seed k + (7919 * c) in
        let s = Mix.sampler w.mix ~keys:w.keys ~seed in
        Array.init (txns / n) (fun _ -> Mix.next_plan s))
  in
  let s = start_serving (w.config ()) ~clients:n ~stamp in
  let t1 = Stats.now () in
  let n = Array.length plans in
  let logs = Array.map (fun _ -> ref []) plans in
  let threads =
    Array.mapi
      (fun c p ->
        Thread.create
          (fun () -> drive s.clients.(c) p ~id_of:(fun k -> 1 + c + (n * k)) logs.(c))
          ())
      plans
  in
  Array.iter Thread.join threads;
  let wall_ns = Stats.now () - t1 in
  let report = stop_serving s in
  {
    setup_ns = t1 - t0;
    wall_ns;
    ops = Array.of_list (List.concat_map (fun l -> List.rev !l) (Array.to_list logs));
    report;
    stamps = s.stamps;
  }

(* Pipelined feeding of a fixed step list through one connection, up to
   [window] outcomes outstanding so admission batches fill: how the
   engine workloads' traffic crosses the net layer. *)
let pipelined cfg steps ~window =
  let s = start_serving cfg ~clients:1 ~stamp:true in
  let c = s.clients.(0) in
  let steps = Array.of_list steps in
  let n = Array.length steps in
  let sent = Array.make n 0 in
  let ops = ref [] in
  let next = ref 0 and got = ref 0 in
  (try
     while !got < n do
       if !next < n && Client.in_flight c < window then begin
         sent.(!next) <- Stats.now ();
         Client.send c (Client.request_of_step steps.(!next));
         incr next
       end
       else begin
         let result = Tally.of_reply (Client.recv c) in
         ops := { step = steps.(!got); sent = sent.(!got); recv = Stats.now (); result } :: !ops;
         incr got;
         match result with Tally.Failed _ -> raise Exit | Tally.Decided _ -> ()
       end
     done
   with Exit | Unix.Unix_error _ | Sys_error _ -> ());
  let report = stop_serving s in
  let ops = Array.of_list (List.rev !ops) in
  (* sent but never answered *)
  let unanswered =
    Array.init (!next - !got) (fun k ->
        { step = steps.(!got + k); sent = sent.(!got + k); recv = 0; result = Tally.no_outcome })
  in
  { setup_ns = 0; wall_ns = 0; ops = Array.append ops unanswered; report; stamps = s.stamps }

(* The decided steps in decision order, if the outcome indices cover
   1..N exactly once (N = ops sent). *)
let decision_order ops =
  let n = Array.length ops in
  let by_index = Array.make n None in
  let covered =
    Array.for_all
      (fun op ->
        match op.result with
        | Tally.Decided { index; outcome }
          when index >= 1 && index <= n && by_index.(index - 1) = None ->
            by_index.(index - 1) <- Some (op.step, outcome);
            true
        | _ -> false)
      ops
  in
  if covered then Some (Array.map Option.get by_index) else None

(* Round trip split at the decision stamp: (send -> decision, decision
   -> reply received), for every answered op. *)
let split r ~to_decision ~from_decision =
  Array.iter
    (fun op ->
      match op.result with
      | Tally.Decided { index; _ } when index < Buf.length r.stamps ->
          let d = Buf.get r.stamps index in
          Buf.push to_decision (d - op.sent);
          Buf.push from_decision (op.recv - d)
      | _ -> ())
    r.ops
