(* Failure accounting, defined once for every workload.

   An op is one step request: a [Begin], [Read] or final [Write] sent
   to the server, or a step submitted to an in-process engine.  It is
   answered when the scheduler decides it; [Rejected] and [Ignored] are
   scheduler decisions and never count as failures.  It failed when it
   was answered by an [Error_reply], hit a [Wire] decode error or a
   dropped connection, or was left with no outcome at all. *)

module Si = Dct_sched.Scheduler_intf
module Wire = Dct_net.Wire

type result = Decided of { index : int; outcome : Si.outcome } | Failed of string

let of_reply = function
  | Ok (Wire.Outcome { step; outcome }) -> Decided { index = step; outcome }
  | Ok (Wire.Error_reply m) -> Failed ("error reply: " ^ m)
  | Ok (Wire.Abort_reply _ | Wire.Stats_reply _) -> Failed "reply of the wrong kind"
  | Error e -> Failed ("wire: " ^ Wire.error_to_string e)

let no_outcome = Failed "no outcome"

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let add t r =
  t.attempted <- t.attempted + 1;
  match r with Decided _ -> () | Failed _ -> t.failed <- t.failed + 1

(* [attempted] ops of which [answered] got an outcome; the rest failed. *)
let add_counts t ~attempted ~answered =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + (attempted - answered)
