(** The metrics registry: named counters, gauges with high-water marks,
    and fixed-bucket latency histograms.

    This complements the list-based summary helpers in
    [Dct_sim.Metrics]: those compute exact statistics over a fully
    materialized sample, this registry aggregates online in O(1) memory
    per instrument — the right shape for million-step runs.  Histogram
    buckets are {e fixed} (shared exponential nanosecond bounds, see
    {!bounds}) so histograms from different runs and backends can be
    compared and merged line by line.

    Naming convention used by the instrumentation:
    ["outcome.<outcome>"], ["deletion.<policy>.{deleted,blocked,attempted}"],
    ["oracle.<backend>.<op>"] (histograms, nanoseconds),
    ["resident_txns"]/["resident_arcs"] (gauges; the high-water mark is
    the residency peak the paper's experiments compare). *)

type t

val create : unit -> t
val is_empty : t -> bool

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 for a counter never incremented. *)

(** {1 Gauges} *)

val gauge : t -> string -> int -> unit
(** Set the current value; the high-water mark tracks the maximum ever
    set. *)

val gauge_value : t -> string -> int
val high_water : t -> string -> int

(** {1 Histograms} *)

val bounds : float array
(** The shared bucket upper bounds (nanoseconds), smallest first; an
    implicit overflow bucket follows the last bound. *)

val observe : t -> string -> float -> unit
val histo_count : t -> string -> int
val histo_mean : t -> string -> float

val histo_percentile : t -> string -> float -> float
(** Nearest-rank percentile resolved to the containing bucket's upper
    bound — an upper estimate within one bucket width.  0 on an empty
    or absent histogram; [p] clamped to [0, 100]. *)

val histo_buckets : t -> string -> (float * int) list
(** [(upper_bound, count)] pairs, overflow bucket last with bound
    [infinity]. *)

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters and histogram buckets add, gauges
    keep the max of both values and both high-water marks.  The shape
    a multi-threaded producer needs — each load-driver client thread
    aggregates into its own registry (no cross-thread mutation), and
    the driver merges them at join.  The fixed shared {!bounds} are what
    make histogram merging exact. *)

(** {1 Reporting} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * int * int) list
(** [(name, value, high_water)], sorted by name. *)

val histos : t -> string list

val render : t -> string
(** Human-readable multi-line summary. *)

val to_json : t -> string
