(** Incremental-feeding facade over the engine, so the server routes
    steps and outcomes through one small interface.

    Not thread-safe — the server serializes all access behind one
    mutex (see {!Server}). *)

type on_step = int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit
(** Fires immediately after each submitted step is decided, with the
    1-based global step index — while the submitting call (or a
    {!tick}) is still on the stack. *)

type t

val seq : on_step:on_step -> Dct_engine.Engine.config -> t

val name : t -> string
val submit : t -> Dct_txn.Step.t -> unit
val tick : t -> unit
(** Flush the pending partial admission batch (the server calls it when
    its input drains). *)

val abort : t -> int -> bool
val pending : t -> int

val stats : t -> (string * int) list
(** A counter snapshot, including the admission counters
    [full_batches] and [ticks], named and counted as in
    {!Dct_engine.Engine.report}. *)

val finish : t -> wall_seconds:float -> Dct_engine.Engine.report
(** End-of-input epilogue; call exactly once, after the last submit. *)
