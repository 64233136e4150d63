(** Where emitted events go: nowhere, an in-memory buffer (tests), or
    an output channel (the [--trace out.jsonl] file).  One JSON line
    per event; {!parse_string}/{!read_file} invert the encoding,
    skipping blank lines and failing loudly on the first malformed
    one. *)

type t =
  | Null
  | Memory of Buffer.t
  | Channel of out_channel
  | Locked of locked
      (** Mutex-serialized wrapper: whole JSONL lines, never interleaved
          mid-record — required whenever more than one domain or thread
          can emit. *)

and locked = { mutex : Mutex.t; inner : t }

val null : t
val memory : Buffer.t -> t
val channel : out_channel -> t

val locked : t -> t
(** Wrap a sink so concurrent {!emit}s from multiple domains serialize
    on a mutex (one full event line at a time).  Idempotent; [Null]
    stays [Null].  {!flush} takes the same lock. *)

val emit : t -> Event.t -> unit
val flush : t -> unit

val parse_string : string -> (Event.t list, string) result
(** Parse a JSONL document; errors carry the 1-based line number. *)

val read_file : string -> (Event.t list, string) result

val parse_string_lenient : string -> Event.t list * (int * string) list
(** Like {!parse_string} but collect {e every} malformed line as a
    [(1-based line number, message)] pair instead of stopping at the
    first — the shape a trace summarizer wants for truncated or
    corrupted files.  Blank lines are still skipped; an event parser
    that raises is caught and reported as that line's error. *)

val read_file_lenient : string -> (Event.t list * (int * string) list, string) result
(** {!parse_string_lenient} over a file; [Error] only for I/O failures
    (unreadable path), never for malformed content. *)
