(** The socket server: concurrent clients feeding one engine through
    the batched admission queue, per-step outcomes routed back to the
    issuing client.

    Threading model (see [docs/net.md]):

    - one accept thread and one handler thread per connection;
    - a single mutex serializes every engine access (the engine is not
      thread-safe; decisions stay coordinator-sequential by design —
      concurrency buys pipelining of parsing/IO, not of deciding);
    - group commit is drain-triggered, with no timer: a handler is
      {e busy} while its buffer still holds another complete request,
      counted under the mutex after every request.  A batch flushes
      when it fills, or when a handler about to block in read leaves
      no handler busy — so whenever no handler is busy, nothing is
      pending.  A pipelining client keeps its handler busy and its
      batches fill; a lone blocking client has each step flushed at
      once.  A partial frame never counts as input, so a client
      stalled mid-frame cannot hold back anyone else's steps;
    - outcomes are routed by a FIFO of issuing clients: each submit
      pushes the client under the lock, and the engine's per-decision
      callback pops one per decided step — admission preserves
      submission order, so the two queues stay aligned;
    - control requests ([Abort]/[Stats]) tick the engine before
      answering, so each client's responses arrive in issue order;
    - a disconnecting client's begun-but-incomplete transactions are
      aborted (they would otherwise pin deletability forever); a
      protocol violation gets a typed [Error_reply] and only that
      connection is dropped.  Either way its handler stops counting as
      busy. *)

type t

val create :
  backend:(on_step:Backend.on_step -> Backend.t) ->
  Addr.t ->
  t
(** Listen on [addr] (not yet accepting — see {!start}) and build the
    backend around the server's outcome router. *)

val addr : t -> Addr.t
(** The address actually bound (with [Tcp (_, 0)] it carries the
    kernel-chosen port). *)

val backend : t -> Backend.t
val connections : t -> int
val proto_errors : t -> int

val start : t -> unit
val stop : t -> unit
(** Stop accepting, wake and join every handler thread, remove a Unix
    socket path.  Idempotent. *)

val finish : t -> wall_seconds:float -> Dct_engine.Engine.report
(** Run the backend's end-of-input epilogue (final GC rounds, tracer
    flush) and report.  Call once, after {!stop} or after all clients
    have drained.
    @raise Dct_engine.Parallel.Shard_failure if a parallel shard
    applier died. *)
