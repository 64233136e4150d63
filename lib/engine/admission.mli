(** Group-commit style admission control — a mutex-batched FIFO queue.

    Steps are not processed as they arrive; they accumulate in a FIFO
    batch of at most [B] steps.  {!submit} hands the full batch back the
    moment the [B]-th step lands; {!tick} flushes a partial batch.  The
    caller decides when a tick happens: the network server ticks when
    its input drains, an in-process run at end of input.

    Every operation is serialized on an internal mutex, so the queue and
    its counters may be read from any thread.

    Ordering is deterministic: steps leave in exactly the order they
    were submitted, and the workload generator's PRNG seed fixes that
    order, so a run is reproducible bit for bit regardless of batch
    size — batching changes {e when} decisions happen (and therefore GC
    cadence and residency), never {e which} decisions happen. *)

type t

val create : batch:int -> t
(** @raise Invalid_argument if [batch <= 0]. *)

val batch_size : t -> int

val submit : t -> Dct_txn.Step.t -> Dct_txn.Step.t list option
(** Queue one step.  Returns [Some batch] (in submission order) when
    this step filled the batch, [None] otherwise. *)

val tick : t -> Dct_txn.Step.t list
(** Flush whatever is pending (possibly []), in submission order. *)

val pending : t -> int

(** {1 Counters} (for the serve report) *)

val submitted : t -> int
val full_batches : t -> int
(** Batches released by {!submit} because they reached [B]. *)

val ticks : t -> int
(** Non-empty flushes released by {!tick}. *)
