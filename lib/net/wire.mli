(** The wire protocol: requests carrying basic-model transaction steps
    plus control operations, responses carrying per-step outcomes.

    Two dialects share one request/response vocabulary:

    - {e binary} (the default): a 4-byte big-endian payload-length
      prefix, then a tagged payload of fixed-width big-endian fields.
      [max_frame] is far below 2^24, so a valid binary frame always
      starts with a zero byte.
    - {e line} (debug): one newline-terminated ASCII line per frame,
      e.g. [read 7 42] / [outcome 12 accepted] — speakable through
      [nc -U].

    Servers sniff the dialect from a connection's first byte (zero →
    binary, printable → line) and answer in kind.

    Decoding never raises: every malformed input maps to a typed
    {!error}.  {!error.Truncated} specifically means "valid prefix,
    need more bytes" — stream readers retry it after a refill; all
    other errors are fatal for the connection. *)

type dialect = Binary | Line

val dialect_name : dialect -> string

type request =
  | Begin of int
  | Read of int * int  (** transaction, entity *)
  | Write of int * int list
      (** the basic model's final atomic write: completes (and, reads
          being clean, commits) the transaction *)
  | Complete of int  (** read-only completion, i.e. [Write (t, [])] *)
  | Abort of int  (** client-initiated abort (control: not a step) *)
  | Stats  (** server counters snapshot (control: not a step) *)

type response =
  | Outcome of { step : int; outcome : Dct_sched.Scheduler_intf.outcome }
      (** decision for one submitted step; [step] is the server's
          1-based global step index *)
  | Abort_reply of bool
  | Stats_reply of (string * int) list
  | Error_reply of string  (** protocol error; the server then closes *)

type error =
  | Closed  (** peer closed at a frame boundary *)
  | Truncated
      (** frame ends mid-field: EOF mid-frame from a stream reader, or
          a valid-prefix-needs-more-bytes from a string decoder *)
  | Oversized of int  (** declared length exceeds {!max_frame} *)
  | Bad_tag of int
  | Malformed of string

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val max_frame : int
(** Maximum payload bytes per frame (1 MiB). *)

(** {1 Pure codecs}

    [encode_*] produce a complete frame (length prefix / trailing
    newline included).  [decode_*] consume exactly one frame starting
    at [pos] and return the value and the position one past the frame's
    end. *)

val encode_request : dialect -> request -> string
val encode_response : dialect -> response -> string
val decode_request : dialect -> string -> pos:int -> (request * int, error) result
val decode_response : dialect -> string -> pos:int -> (response * int, error) result

(** {1 Buffered frame IO over a file descriptor}

    Each [t] owns one receive buffer, allocated once: reads land in
    its free tail, decoding advances a cursor, and the undecoded
    remainder moves to the front only when the buffer is refilled.
    Reading a burst of pipelined frames therefore costs time linear in
    its bytes, and a steady stream allocates nothing per read. *)

module Io : sig
  type t

  val of_fd : Unix.file_descr -> t
  val fd : t -> Unix.file_descr

  val sniff_dialect : t -> (dialect, error) result
  (** Peek the first byte without consuming it. *)

  val has_frame : t -> dialect -> bool
  (** Whether the next read returns without touching the socket: a
      complete frame (or a framing error) is already buffered.  A
      partial frame does not count. *)

  val read_request : t -> dialect -> (request, error) result
  val read_response : t -> dialect -> (response, error) result
  (** Blocking; [Error Closed] on clean EOF, [Error Truncated] on EOF
      mid-frame. *)

  val write : t -> string -> unit
  (** Write the whole string (handles short writes). *)
end
