module Step = Dct_txn.Step
module Sched = Dct_sched.Scheduler_intf

type dialect = Binary | Line

let dialect_name = function Binary -> "binary" | Line -> "line"

type request =
  | Begin of int
  | Read of int * int
  | Write of int * int list
  | Complete of int
  | Abort of int
  | Stats

type response =
  | Outcome of { step : int; outcome : Sched.outcome }
  | Abort_reply of bool
  | Stats_reply of (string * int) list
  | Error_reply of string

type error =
  | Closed
  | Truncated
  | Oversized of int
  | Bad_tag of int
  | Malformed of string

let error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Bad_tag t -> Printf.sprintf "unknown frame tag 0x%02x" t
  | Malformed m -> "malformed frame: " ^ m

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let max_frame = 1 lsl 20

(* {1 Binary dialect}

   Frame: 4-byte big-endian payload length, then payload.  Payload:
   1 tag byte, then fixed-width fields — 8-byte big-endian ints,
   entity lists as a 4-byte count + 8 bytes per entity, strings as a
   4-byte length + bytes, outcomes as 1 byte.  [max_frame] is well
   under 2^24, so a valid frame's first byte is always 0 — which is
   how the server sniffs the dialect (line frames start with a
   printable letter). *)

let tag_begin = 0x01
let tag_read = 0x02
let tag_write = 0x03
let tag_complete = 0x04
let tag_abort = 0x05
let tag_stats = 0x06
let tag_outcome = 0x10
let tag_abort_reply = 0x11
let tag_stats_reply = 0x12
let tag_error_reply = 0x13

let outcome_code = function
  | Sched.Accepted -> 0
  | Sched.Rejected -> 1
  | Sched.Delayed -> 2
  | Sched.Ignored -> 3

let outcome_of_code = function
  | 0 -> Some Sched.Accepted
  | 1 -> Some Sched.Rejected
  | 2 -> Some Sched.Delayed
  | 3 -> Some Sched.Ignored
  | _ -> None

let put_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let put_i32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let put_string buf s =
  put_i32 buf (String.length s);
  Buffer.add_string buf s

let request_payload buf = function
  | Begin t ->
      Buffer.add_char buf (Char.chr tag_begin);
      put_i64 buf t
  | Read (t, e) ->
      Buffer.add_char buf (Char.chr tag_read);
      put_i64 buf t;
      put_i64 buf e
  | Write (t, es) ->
      Buffer.add_char buf (Char.chr tag_write);
      put_i64 buf t;
      put_i32 buf (List.length es);
      List.iter (put_i64 buf) es
  | Complete t ->
      Buffer.add_char buf (Char.chr tag_complete);
      put_i64 buf t
  | Abort t ->
      Buffer.add_char buf (Char.chr tag_abort);
      put_i64 buf t
  | Stats -> Buffer.add_char buf (Char.chr tag_stats)

let response_payload buf = function
  | Outcome { step; outcome } ->
      Buffer.add_char buf (Char.chr tag_outcome);
      put_i64 buf step;
      Buffer.add_char buf (Char.chr (outcome_code outcome))
  | Abort_reply b ->
      Buffer.add_char buf (Char.chr tag_abort_reply);
      Buffer.add_char buf (if b then '\x01' else '\x00')
  | Stats_reply kvs ->
      Buffer.add_char buf (Char.chr tag_stats_reply);
      put_i32 buf (List.length kvs);
      List.iter
        (fun (k, v) ->
          put_string buf k;
          put_i64 buf v)
        kvs
  | Error_reply m ->
      Buffer.add_char buf (Char.chr tag_error_reply);
      put_string buf m

(* The payload goes after a 4-byte placeholder that is patched with its
   length once known: one buffer, one copy. *)
let frame payload v =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "\000\000\000\000";
  payload buf v;
  let b = Buffer.to_bytes buf in
  Bytes.set_int32_be b 0 (Int32.of_int (Bytes.length b - 4));
  Bytes.unsafe_to_string b

(* Payload cursor; every decode error is a typed [error]. *)

exception Err of error

type cursor = { s : string; mutable pos : int; limit : int }

let need c n = if c.pos + n > c.limit then raise (Err (Malformed "short payload"))

let get_byte c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.s c.pos) in
  c.pos <- c.pos + 4;
  v

let get_count c what =
  let n = get_i32 c in
  if n < 0 || n > max_frame then raise (Err (Malformed ("bad " ^ what ^ " count")));
  n

let get_string c =
  let n = get_count c "string" in
  need c n;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let decode_request_payload c =
  match get_byte c with
  | t when t = tag_begin -> Begin (get_i64 c)
  | t when t = tag_read ->
      let txn = get_i64 c in
      Read (txn, get_i64 c)
  | t when t = tag_write ->
      let txn = get_i64 c in
      let n = get_count c "entity" in
      Write (txn, List.init n (fun _ -> get_i64 c))
  | t when t = tag_complete -> Complete (get_i64 c)
  | t when t = tag_abort -> Abort (get_i64 c)
  | t when t = tag_stats -> Stats
  | t -> raise (Err (Bad_tag t))

let decode_response_payload c =
  match get_byte c with
  | t when t = tag_outcome ->
      let step = get_i64 c in
      let code = get_byte c in
      (match outcome_of_code code with
      | Some outcome -> Outcome { step; outcome }
      | None -> raise (Err (Malformed "bad outcome code")))
  | t when t = tag_abort_reply -> Abort_reply (get_byte c <> 0)
  | t when t = tag_stats_reply ->
      let n = get_count c "stat" in
      Stats_reply
        (List.init n (fun _ ->
             let k = get_string c in
             (k, get_i64 c)))
  | t when t = tag_error_reply -> Error_reply (get_string c)
  | t -> raise (Err (Bad_tag t))

(* {1 Line dialect} *)

let outcome_name = Sched.outcome_name

let outcome_of_name = function
  | "accepted" -> Some Sched.Accepted
  | "rejected" -> Some Sched.Rejected
  | "delayed" -> Some Sched.Delayed
  | "ignored" -> Some Sched.Ignored
  | _ -> None

let entities_to_line = function
  | [] -> "-"
  | es -> String.concat "," (List.map string_of_int es)

let request_line = function
  | Begin t -> Printf.sprintf "begin %d" t
  | Read (t, e) -> Printf.sprintf "read %d %d" t e
  | Write (t, es) -> Printf.sprintf "write %d %s" t (entities_to_line es)
  | Complete t -> Printf.sprintf "complete %d" t
  | Abort t -> Printf.sprintf "abort %d" t
  | Stats -> "stats"

(* Stats keys and error messages may contain spaces; they ride in the
   final position of the line, escaped minimally. *)
let escape s =
  String.concat "" (List.map (function ' ' -> "\\s" | c -> String.make 1 c)
      (List.init (String.length s) (String.get s)))

let unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + 1 < String.length s && s.[!i] = '\\' && s.[!i + 1] = 's' then begin
      Buffer.add_char buf ' ';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let response_line = function
  | Outcome { step; outcome } ->
      Printf.sprintf "outcome %d %s" step (outcome_name outcome)
  | Abort_reply b -> Printf.sprintf "abort-reply %b" b
  | Stats_reply kvs ->
      String.concat " "
        ("stats-reply"
        :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" (escape k) v) kvs)
  | Error_reply m -> "error " ^ escape m

let int_of_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> raise (Err (Malformed (Printf.sprintf "bad %s %S" what s)))

let parse_entities = function
  | "-" -> []
  | s -> List.map (int_of_field "entity") (String.split_on_char ',' s)

let request_of_line line =
  match String.split_on_char ' ' line with
  | [ "begin"; t ] -> Begin (int_of_field "txn" t)
  | [ "read"; t; e ] -> Read (int_of_field "txn" t, int_of_field "entity" e)
  | [ "write"; t; es ] -> Write (int_of_field "txn" t, parse_entities es)
  | [ "complete"; t ] -> Complete (int_of_field "txn" t)
  | [ "abort"; t ] -> Abort (int_of_field "txn" t)
  | [ "stats" ] -> Stats
  | verb :: _ -> raise (Err (Malformed ("unknown request verb " ^ verb)))
  | [] -> raise (Err (Malformed "empty request line"))

let response_of_line line =
  match String.split_on_char ' ' line with
  | [ "outcome"; step; o ] -> (
      match outcome_of_name o with
      | Some outcome -> Outcome { step = int_of_field "step" step; outcome }
      | None -> raise (Err (Malformed ("bad outcome " ^ o))))
  | [ "abort-reply"; b ] -> (
      match bool_of_string_opt b with
      | Some b -> Abort_reply b
      | None -> raise (Err (Malformed ("bad abort reply " ^ b))))
  | "stats-reply" :: kvs ->
      Stats_reply
        (List.map
           (fun kv ->
             match String.index_opt kv '=' with
             | Some i ->
                 ( unescape (String.sub kv 0 i),
                   int_of_field "stat"
                     (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> raise (Err (Malformed ("bad stat " ^ kv))))
           kvs)
  | "error" :: rest -> Error_reply (unescape (String.concat " " rest))
  | verb :: _ -> raise (Err (Malformed ("unknown response verb " ^ verb)))
  | [] -> raise (Err (Malformed "empty response line"))

(* {1 Framing} *)

let encode payload line_of dialect v =
  match dialect with
  | Binary -> frame payload v
  | Line -> line_of v ^ "\n"

let encode_request d r = encode request_payload request_line d r
let encode_response d r = encode response_payload response_line d r

let rec index_before s c ~pos ~limit =
  if pos >= limit then None
  else if String.unsafe_get s pos = c then Some pos
  else index_before s c ~pos:(pos + 1) ~limit

(* Where the frame starting at [pos] ends, looking only at [pos, limit):
   [Truncated] means the bytes so far are a valid prefix — read more
   and retry; every other error is fatal for the connection. *)
let frame_end dialect s ~pos ~limit =
  match dialect with
  | Binary ->
      if pos + 4 > limit then Error Truncated
      else
        let n = Int32.to_int (String.get_int32_be s pos) in
        if n < 0 then Error (Malformed "negative frame length")
        else if n > max_frame then Error (Oversized n)
        else if pos + 4 + n > limit then Error Truncated
        else Ok (pos + 4 + n)
  | Line -> (
      match index_before s '\n' ~pos ~limit with
      | Some nl -> Ok (nl + 1)
      | None ->
          if limit - pos > max_frame then Error (Oversized (limit - pos))
          else Error Truncated)

let decode_within decode_payload of_line dialect s ~pos ~limit =
  match frame_end dialect s ~pos ~limit with
  | Error e -> Error e
  | Ok stop -> (
      try
        match dialect with
        | Binary ->
            let c = { s; pos = pos + 4; limit = stop } in
            let v = decode_payload c in
            if c.pos <> c.limit then Error (Malformed "trailing payload bytes")
            else Ok (v, stop)
        | Line -> Ok (of_line (String.sub s pos (stop - 1 - pos)), stop)
      with Err e -> Error e)

let decode_request_within =
  decode_within decode_request_payload request_of_line

let decode_response_within =
  decode_within decode_response_payload response_of_line

let decode_request d s ~pos =
  decode_request_within d s ~pos ~limit:(String.length s)

let decode_response d s ~pos =
  decode_response_within d s ~pos ~limit:(String.length s)

(* {1 Buffered frame IO over a file descriptor} *)

module Io = struct
  (* Received bytes not yet decoded live in [buf.[pos .. len)]; a
     decoded frame only advances [pos].  [refill] reads straight into
     the free tail, first moving the undecoded remainder to the front,
     and grows [buf] only when one partial frame fills it — so a
     connection allocates its buffer once, not once per read. *)
  type t = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
    mutable eof : bool;
  }

  let initial_capacity = 65536

  let of_fd fd =
    { fd; buf = Bytes.create initial_capacity; pos = 0; len = 0; eof = false }
  let fd t = t.fd

  let refill t =
    if t.eof then false
    else begin
      if t.pos > 0 then begin
        Bytes.blit t.buf t.pos t.buf 0 (t.len - t.pos);
        t.len <- t.len - t.pos;
        t.pos <- 0
      end;
      if t.len = Bytes.length t.buf then begin
        let grown = Bytes.create (2 * t.len) in
        Bytes.blit t.buf 0 grown 0 t.len;
        t.buf <- grown
      end;
      match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
      | 0 ->
          t.eof <- true;
          false
      | n ->
          t.len <- t.len + n;
          true
      | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
          t.eof <- true;
          false
    end

  (* Decoders only read the view, and nothing is kept from it past the
     call (decoded strings are copies), so sharing [buf] is safe. *)
  let view t = Bytes.unsafe_to_string t.buf

  let sniff_dialect t =
    let rec go () =
      if t.len > t.pos then
        Ok (if Bytes.get t.buf t.pos = '\x00' then Binary else Line)
      else if refill t then go ()
      else Error Closed
    in
    go ()

  let has_frame t dialect =
    match frame_end dialect (view t) ~pos:t.pos ~limit:t.len with
    | Error Truncated -> false
    | Ok _ | Error _ -> true

  let read_with decoder t dialect =
    let rec go () =
      match decoder dialect (view t) ~pos:t.pos ~limit:t.len with
      | Ok (v, stop) ->
          t.pos <- stop;
          Ok v
      | Error Truncated ->
          if refill t then go ()
          else if t.pos = t.len then Error Closed
          else Error Truncated
      | Error e -> Error e
    in
    go ()

  let read_request t dialect = read_with decode_request_within t dialect
  let read_response t dialect = read_with decode_response_within t dialect

  let write t s =
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring t.fd s !off (len - !off)
    done
end
