(* The serving layer's contracts:

   - WIRE ROUND TRIPS (QCheck): every request/response frame survives
     encode/decode in both dialects, consuming exactly the frame's
     bytes, including back-to-back frames in one buffer; the buffered
     socket reader returns the same frames through any chunking of
     the byte stream, with [Closed]/[Truncated] at EOF.

   - TYPED REJECTIONS: truncated, oversized, negative-length, bad-tag,
     trailing-byte and garbage-line inputs each map to their typed
     {!Dct_net.Wire.error} — decoding never raises, and [Truncated]
     is reserved for valid-prefix-needs-more-bytes.

   - SERVER ROBUSTNESS: a mid-frame disconnect or an oversized frame
     costs only that connection (counted in [protocol_errors]); other
     clients keep being served.  A dying client's begun-but-incomplete
     transactions are aborted.  Response streams stay in issue order
     across mixed step/control requests.

   - GROUP COMMIT: batches flush when the server's input drains — a
     lone blocking client gets every step decided alone, a pipelined
     burst still fills batches, and a connection that dies mid-burst
     never strands another client's pending step.

   - LOOPBACK DIFFERENTIAL (the tentpole guarantee): a workload-mix
     schedule fed through socket + server + admission into the
     sequential and the parallel engine produces the exact outcome
     sequence and a byte-identical JSONL trace (decisions, deletion
     rounds, checkpoints) as the same engine fed in-process with the
     served run's batch boundaries — the network layer adds
     transport, never behavior.

   - DRIVER: the closed-loop multi-client driver accounts for every
     transaction and lands every op latency in the merged histograms.

   - MIX DISTRIBUTIONS: the workload catalog's samplers have the
     shapes on the label (read/update ratios, scan lengths, hotspot
     concentration, TPC-C plan shapes, schedule completeness). *)

module Wire = Dct_net.Wire
module Addr = Dct_net.Addr
module Backend = Dct_net.Backend
module Server = Dct_net.Server
module Client = Dct_net.Client
module Driver = Dct_net.Driver
module Mix = Dct_workload.Mix
module Step = Dct_txn.Step
module Sched = Dct_sched.Scheduler_intf
module Eng = Dct_engine.Engine
module Par = Dct_engine.Parallel
module Policy = Dct_deletion.Policy
module Tracer = Dct_telemetry.Tracer
module Sink = Dct_telemetry.Sink
module Event = Dct_telemetry.Event
module Metrics = Dct_telemetry.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sock_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dct-test-net-%d-%s.sock" (Unix.getpid ()) name)

(* --- QCheck: frame round trips in both dialects --- *)

(* Stats keys and error messages ride in the line dialect's last field
   with only spaces escaped, so the generator sticks to the vocabulary
   the server actually emits: identifier characters plus spaces. *)
let gen_label =
  QCheck.Gen.(
    string_size (int_range 1 12)
      ~gen:(oneofl [ 'a'; 'z'; 'q'; '0'; '9'; '.'; '_'; '-'; ' ' ]))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Wire.Begin t) nat;
        map2 (fun t e -> Wire.Read (t, e)) nat nat;
        map2 (fun t es -> Wire.Write (t, es)) nat (list_size (int_range 0 5) nat);
        map (fun t -> Wire.Complete t) nat;
        map (fun t -> Wire.Abort t) nat;
        return Wire.Stats;
      ])

let gen_outcome =
  QCheck.Gen.oneofl
    [ Sched.Accepted; Sched.Rejected; Sched.Delayed; Sched.Ignored ]

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun step outcome -> Wire.Outcome { step; outcome })
          nat gen_outcome;
        map (fun b -> Wire.Abort_reply b) bool;
        map
          (fun kvs -> Wire.Stats_reply kvs)
          (list_size (int_range 0 6) (pair gen_label nat));
        map (fun m -> Wire.Error_reply m) gen_label;
      ])

let request_print r = Wire.encode_request Wire.Line r

let dialects = [ Wire.Binary; Wire.Line ]

let roundtrip_prop ~encode ~decode v =
  List.for_all
    (fun d ->
      let frame = encode d v in
      match decode d frame ~pos:0 with
      | Ok (v', consumed) -> v' = v && consumed = String.length frame
      | Error e ->
          QCheck.Test.fail_reportf "%s frame %S rejected: %s"
            (Wire.dialect_name d) frame (Wire.error_to_string e))
    dialects

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request round trip, both dialects"
    (QCheck.make ~print:request_print gen_request)
    (roundtrip_prop ~encode:Wire.encode_request ~decode:Wire.decode_request)

let prop_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"response round trip, both dialects"
    (QCheck.make
       ~print:(fun r -> Wire.encode_response Wire.Line r)
       gen_response)
    (roundtrip_prop ~encode:Wire.encode_response ~decode:Wire.decode_response)

(* Back-to-back frames in one buffer decode in sequence: the stream
   reader's invariant. *)
let prop_request_stream =
  QCheck.Test.make ~count:100 ~name:"concatenated frames decode in sequence"
    (QCheck.make
       QCheck.Gen.(pair (oneofl dialects) (list_size (int_range 1 8) gen_request)))
    (fun (d, reqs) ->
      let buf = String.concat "" (List.map (Wire.encode_request d) reqs) in
      let rec go pos acc =
        if pos >= String.length buf then List.rev acc
        else
          match Wire.decode_request d buf ~pos with
          | Ok (r, next) -> go next (r :: acc)
          | Error e ->
              QCheck.Test.fail_reportf "stream rejected at %d: %s" pos
                (Wire.error_to_string e)
      in
      go 0 [] = reqs)

(* --- buffered frame IO over a real socket --- *)

(* Write [bytes] into a socketpair from another thread in the given
   chunk sizes (cycled), yielding after each so the reader sees many
   partial frames, then close; collect what [Io.read_request] returns
   up to its first error. *)
let read_back_chunked d bytes chunks =
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        let len = String.length bytes in
        let rec go off = function
          | [] -> go off chunks
          | size :: rest ->
              if off < len then begin
                let n = Unix.write_substring wr bytes off (min size (len - off)) in
                Thread.yield ();
                go (off + n) rest
              end
        in
        go 0 chunks;
        Unix.close wr)
      ()
  in
  let io = Wire.Io.of_fd rd in
  let rec collect acc =
    match Wire.Io.read_request io d with
    | Ok r -> collect (r :: acc)
    | Error e -> (List.rev acc, e)
  in
  let got = collect [] in
  Thread.join writer;
  Unix.close rd;
  got

(* Any chunking of a frame stream reads back as the same requests; EOF
   then reads as [Closed] at a frame boundary and [Truncated] after a
   strict prefix of one more frame. *)
let prop_io_chunked =
  QCheck.Test.make ~count:150 ~name:"Io reads frames back through any chunking"
    (QCheck.make
       ~print:(fun (d, reqs, chunks, tail) ->
         Printf.sprintf "%s %s chunks=[%s] tail=%s" (Wire.dialect_name d)
           (String.concat "" (List.map request_print reqs))
           (String.concat ";" (List.map string_of_int chunks))
           (match tail with
           | None -> "-"
           | Some (r, k) -> Printf.sprintf "%d of %S" k (request_print r)))
       QCheck.Gen.(
         quad (oneofl dialects)
           (list_size (int_range 0 12) gen_request)
           (list_size (int_range 1 6) (oneofl [ 1; 2; 3; 5; 8; 64; 4096 ]))
           (opt (pair gen_request nat))))
    (fun (d, reqs, chunks, tail) ->
      let stream = String.concat "" (List.map (Wire.encode_request d) reqs) in
      let partial =
        match tail with
        | None -> ""
        | Some (r, k) ->
            let f = Wire.encode_request d r in
            String.sub f 0 (1 + (k mod (String.length f - 1)))
      in
      let got, last = read_back_chunked d (stream ^ partial) chunks in
      got = reqs && last = if tail = None then Wire.Closed else Wire.Truncated)

(* [has_frame] sees only complete buffered frames, and a frame larger
   than the initial buffer still reads back whole. *)
let test_io_buffering () =
  let d = Wire.Binary in
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let send s = ignore (Unix.write_substring wr s 0 (String.length s)) in
  let io = Wire.Io.of_fd rd in
  let read () =
    match Wire.Io.read_request io d with
    | Ok r -> r
    | Error e -> Alcotest.failf "read: %s" (Wire.error_to_string e)
  in
  let b2 = Wire.encode_request d (Wire.Read (2, 9)) in
  send (Wire.encode_request d (Wire.Begin 1) ^ String.sub b2 0 6);
  check "first frame" true (read () = Wire.Begin 1);
  check "half a frame is not a frame" false (Wire.Io.has_frame io d);
  send (String.sub b2 6 (String.length b2 - 6) ^ Wire.encode_request d Wire.Stats);
  check "completed frame" true (read () = Wire.Read (2, 9));
  check "next frame already buffered" true (Wire.Io.has_frame io d);
  check "buffered frame" true (read () = Wire.Stats);
  check "buffer drained" false (Wire.Io.has_frame io d);
  Unix.close rd;
  Unix.close wr;
  List.iter
    (fun d ->
      let big = Wire.Write (3, List.init 20_000 Fun.id) in
      let frame = Wire.encode_request d big in
      check "frame exceeds one read" true (String.length frame > 65536);
      match read_back_chunked d frame [ 1000 ] with
      | [ r ], Wire.Closed -> check "big frame intact" true (r = big)
      | _ -> Alcotest.failf "%s: big frame not read back" (Wire.dialect_name d))
    dialects

(* --- typed rejections --- *)

let expect_error what expected actual =
  match actual with
  | Ok _ -> Alcotest.failf "%s: decoded instead of failing" what
  | Error e ->
      if e <> expected then
        Alcotest.failf "%s: expected %s, got %s" what
          (Wire.error_to_string expected)
          (Wire.error_to_string e)

let frame_of payload =
  let b = Buffer.create 16 in
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int (String.length payload));
  Buffer.add_bytes b len;
  Buffer.add_string b payload;
  Buffer.contents b

let test_binary_errors () =
  let dec s = Wire.decode_request Wire.Binary s ~pos:0 in
  expect_error "short length prefix" Wire.Truncated (dec "\x00\x00\x00");
  expect_error "payload shorter than declared" Wire.Truncated
    (dec "\x00\x00\x00\x09\x01\x00\x00");
  expect_error "negative length" (Wire.Malformed "negative frame length")
    (dec "\xff\xff\xff\xff");
  (match dec "\x00\x20\x00\x00" with
  | Error (Wire.Oversized n) -> check_int "declared size reported" 0x200000 n
  | _ -> Alcotest.fail "oversized frame accepted");
  expect_error "unknown tag" (Wire.Bad_tag 0x7f) (dec (frame_of "\x7f"));
  expect_error "trailing payload bytes" (Wire.Malformed "trailing payload bytes")
    (dec (frame_of "\x06\x00"));
  expect_error "short payload field" (Wire.Malformed "short payload")
    (dec (frame_of "\x01\x00\x00"));
  (* a Write whose entity count promises more than the payload holds *)
  expect_error "lying entity count" (Wire.Malformed "short payload")
    (dec
       (frame_of
          ("\x03" ^ String.make 8 '\x00' ^ "\x00\x00\x00\x05" ^ String.make 8 '\x00')));
  match
    Wire.decode_response Wire.Binary (frame_of ("\x10" ^ String.make 8 '\x00' ^ "\x09")) ~pos:0
  with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad outcome code accepted"

let test_line_errors () =
  let dec s = Wire.decode_request Wire.Line s ~pos:0 in
  expect_error "unknown verb" (Wire.Malformed "unknown request verb flarp")
    (dec "flarp 1\n");
  (match dec "read x 3\n" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "non-numeric field accepted");
  expect_error "no newline yet" Wire.Truncated (dec "begin 4");
  (match dec (String.make (Wire.max_frame + 8) 'a') with
  | Error (Wire.Oversized _) -> ()
  | _ -> Alcotest.fail "unterminated megabyte line accepted");
  match Wire.decode_response Wire.Line "outcome 3 maybe\n" ~pos:0 with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad outcome name accepted"

(* --- address parsing --- *)

let test_addr_parsing () =
  (match Addr.of_string "unix:/tmp/x.sock" with
  | Ok (Addr.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix path");
  (match Addr.of_string "tcp:localhost:7777" with
  | Ok (Addr.Tcp ("localhost", 7777)) -> ()
  | _ -> Alcotest.fail "tcp host:port");
  (match Addr.of_string "127.0.0.1:9" with
  | Ok (Addr.Tcp ("127.0.0.1", 9)) -> ()
  | _ -> Alcotest.fail "bare host:port");
  (match Addr.of_string "tcp::7070" with
  | Ok (Addr.Tcp ("127.0.0.1", 7070)) -> ()
  | _ -> Alcotest.fail "empty tcp host defaults to loopback");
  match Addr.of_string "no-port-here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted"

(* --- server fixtures --- *)

let with_server ?(shards = 2) ?(batch = 1) ~name f =
  let cfg = Eng.config ~policy:Policy.Greedy_c1 ~shards ~batch () in
  let srv =
    Server.create
      ~backend:(fun ~on_step -> Backend.seq ~on_step cfg)
      (Addr.Unix_path (sock_path name))
  in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let expect_outcome what resp =
  match resp with
  | Ok (Wire.Outcome { outcome; _ }) -> outcome
  | Ok _ -> Alcotest.failf "%s: non-outcome response" what
  | Error e -> Alcotest.failf "%s: %s" what (Wire.error_to_string e)

(* Issue order survives mixing steps with control requests: earlier
   step outcomes must land before an Abort_reply/Stats_reply. *)
let test_response_issue_order () =
  with_server ~batch:8 ~name:"order" (fun srv ->
      let cl = Client.connect (Server.addr srv) in
      Client.send cl (Wire.Begin 1);
      Client.send cl (Wire.Read (1, 3));
      Client.send cl (Wire.Abort 1);
      (match expect_outcome "begin" (Client.recv cl) with
      | Sched.Accepted -> ()
      | o -> Alcotest.failf "begin: %s" (Sched.outcome_name o));
      ignore (expect_outcome "read" (Client.recv cl));
      (match Client.recv cl with
      | Ok (Wire.Abort_reply true) -> ()
      | _ -> Alcotest.fail "active transaction not aborted");
      (match Client.call cl (Wire.Abort 1) with
      | Ok (Wire.Abort_reply false) -> ()
      | _ -> Alcotest.fail "double abort not a no-op");
      (match Client.call cl Wire.Stats with
      | Ok (Wire.Stats_reply kvs) ->
          check "stats carries connections" true
            (List.mem_assoc "connections" kvs);
          check "stats carries protocol_errors" true
            (List.mem_assoc "protocol_errors" kvs)
      | _ -> Alcotest.fail "no stats reply");
      Client.close cl)

(* A client that dies mid-frame (or mid-transaction) costs only its own
   connection: the typed error is counted, its begun transaction is
   aborted, and a concurrently connected client keeps being served. *)
let test_midframe_disconnect () =
  with_server ~name:"midframe" (fun srv ->
      let survivor = Client.connect (Server.addr srv) in
      ignore (expect_outcome "survivor begin" (Client.call survivor (Wire.Begin 1)));
      (* half a frame: a 32-byte payload announced, 3 bytes delivered *)
      let dying = Addr.connect (Server.addr srv) in
      let junk = "\x00\x00\x00\x20\x01\x02\x03" in
      ignore (Unix.write_substring dying junk 0 (String.length junk));
      Unix.close dying;
      (* and a whole client that vanishes with a transaction open *)
      let deserter = Client.connect (Server.addr srv) in
      ignore (expect_outcome "deserter begin" (Client.call deserter (Wire.Begin 7)));
      Client.close deserter;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.proto_errors srv < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check_int "mid-frame disconnect counted" 1 (Server.proto_errors srv);
      (* the survivor still gets decisions *)
      ignore (expect_outcome "survivor read" (Client.call survivor (Wire.Read (1, 5))));
      ignore (expect_outcome "survivor complete" (Client.call survivor (Wire.Complete 1)));
      Client.close survivor;
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "three connections served" 3 (Server.connections srv);
      (* the deserter's orphan was aborted, the survivor committed *)
      check_int "survivor committed" 1 r.Eng.committed;
      check "orphan aborted" true (r.Eng.aborted >= 1))

(* An oversized or garbage first frame gets the typed error reply in
   the right dialect, then the connection closes. *)
let test_oversized_gets_error_reply () =
  with_server ~name:"oversized" (fun srv ->
      let fd = Addr.connect (Server.addr srv) in
      let io = Wire.Io.of_fd fd in
      Wire.Io.write io "\x00\x20\x00\x00";
      (match Wire.Io.read_response io Wire.Binary with
      | Ok (Wire.Error_reply m) ->
          check "names the oversize" true
            (String.length m >= 9 && String.sub m 0 9 = "oversized")
      | r ->
          Alcotest.failf "expected error reply, got %s"
            (match r with
            | Ok _ -> "another response"
            | Error e -> Wire.error_to_string e));
      (match Wire.Io.read_response io Wire.Binary with
      | Error Wire.Closed -> ()
      | _ -> Alcotest.fail "connection not closed after protocol error");
      Unix.close fd)

let test_line_garbage_gets_error_reply () =
  with_server ~name:"garbage" (fun srv ->
      let fd = Addr.connect (Server.addr srv) in
      let io = Wire.Io.of_fd fd in
      Wire.Io.write io "bogus 1\n";
      (match Wire.Io.read_response io Wire.Line with
      | Ok (Wire.Error_reply _) -> ()
      | _ -> Alcotest.fail "expected a line-dialect error reply");
      Unix.close fd)

(* Both dialects drive the same server: a line-speaking client and a
   binary one interleave against one engine. *)
let test_mixed_dialects () =
  with_server ~name:"dialects" (fun srv ->
      let bin = Client.connect ~dialect:Wire.Binary (Server.addr srv) in
      let lin = Client.connect ~dialect:Wire.Line (Server.addr srv) in
      ignore (expect_outcome "bin begin" (Client.call bin (Wire.Begin 1)));
      ignore (expect_outcome "line begin" (Client.call lin (Wire.Begin 2)));
      ignore (expect_outcome "bin read" (Client.call bin (Wire.Read (1, 4))));
      ignore (expect_outcome "line read" (Client.call lin (Wire.Read (2, 4))));
      ignore (expect_outcome "bin complete" (Client.call bin (Wire.Complete 1)));
      ignore
        (expect_outcome "line complete" (Client.call lin (Wire.Write (2, [ 4 ]))));
      Client.close bin;
      Client.close lin;
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "both committed" 2 r.Eng.committed)

(* A TCP endpoint with a kernel-chosen port works end to end. *)
let test_tcp_endpoint () =
  let cfg = Eng.config ~policy:Policy.Greedy_c1 ~shards:1 ~batch:1 () in
  let srv =
    Server.create
      ~backend:(fun ~on_step -> Backend.seq ~on_step cfg)
      (Addr.Tcp ("127.0.0.1", 0))
  in
  Server.start srv;
  (match Server.addr srv with
  | Addr.Tcp (_, port) -> check "kernel port learned" true (port > 0)
  | _ -> Alcotest.fail "tcp address expected");
  let cl = Client.connect (Server.addr srv) in
  ignore (expect_outcome "tcp begin" (Client.call cl (Wire.Begin 1)));
  ignore (expect_outcome "tcp complete" (Client.call cl (Wire.Complete 1)));
  Client.close cl;
  Server.stop srv

(* --- drain-triggered group commit --- *)

(* A raw connection whose reads give up after 10 s, so a step the server
   never flushes fails the test instead of hanging it. *)
let connect_timed srv =
  let fd = Addr.connect (Server.addr srv) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Wire.Io.of_fd fd

let call io req =
  Wire.Io.write io (Wire.encode_request Wire.Binary req);
  Wire.Io.read_response io Wire.Binary

let stat kvs name =
  match List.assoc_opt name kvs with
  | Some v -> v
  | None -> Alcotest.failf "stats reply lacks %s" name

(* One blocking client never leaves a second frame buffered, so each
   step is flushed alone the moment its handler drains: no full batch,
   one tick per step, and no timer to wait for. *)
let test_closed_loop_flushes_each_step () =
  with_server ~batch:16 ~name:"closed-loop" (fun srv ->
      let io = connect_timed srv in
      for txn = 1 to 100 do
        ignore (expect_outcome "begin" (call io (Wire.Begin txn)));
        ignore (expect_outcome "complete" (call io (Wire.Complete txn)))
      done;
      (match call io Wire.Stats with
      | Ok (Wire.Stats_reply kvs) ->
          check_int "live full_batches" 0 (stat kvs "full_batches");
          check_int "live ticks" 200 (stat kvs "ticks")
      | _ -> Alcotest.fail "no stats reply");
      Unix.close (Wire.Io.fd io);
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "every call decided" 200 r.Eng.steps;
      check_int "no full batch" 0 r.Eng.full_batches;
      check_int "one flush per step" r.Eng.steps r.Eng.ticks)

(* A pipelined burst keeps its handler busy while frames stay buffered,
   so batches still fill. *)
let test_pipelined_burst_fills_batches () =
  with_server ~batch:16 ~name:"burst" (fun srv ->
      let io = connect_timed srv in
      Wire.Io.write io
        (String.concat ""
           (List.init 64 (fun i ->
                Wire.encode_request Wire.Binary (Wire.Begin (i + 1)))));
      for i = 1 to 64 do
        ignore
          (expect_outcome (Printf.sprintf "begin %d" i)
             (Wire.Io.read_response io Wire.Binary))
      done;
      Unix.close (Wire.Io.fd io);
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "every step decided" 64 r.Eng.steps;
      check
        (Printf.sprintf "a full batch formed (%d)" r.Eng.full_batches)
        true (r.Eng.full_batches >= 1))

(* Violators send step frames and then a bad frame in one write, so each
   dies busy: its handler still has a complete frame buffered when the
   protocol error hits.  Meanwhile another client's blocking steps must
   keep being flushed, and each violator's begun transactions are
   aborted even when their [Begin] was still queued when it died. *)
let test_protocol_error_releases_flush () =
  with_server ~batch:16 ~name:"violators" (fun srv ->
      let io = connect_timed srv in
      let failure = ref None in
      let survivor =
        Thread.create
          (fun () ->
            try
              for txn = 1 to 100 do
                ignore (expect_outcome "survivor begin" (call io (Wire.Begin txn)));
                ignore
                  (expect_outcome "survivor complete" (call io (Wire.Complete txn)))
              done
            with e -> failure := Some (Printexc.to_string e))
          ()
      in
      let violators = 5 and per_violator = 200 in
      for v = 1 to violators do
        let vio = connect_timed srv in
        let first = 1000 * v in
        Wire.Io.write vio
          (String.concat ""
             (List.init per_violator (fun i ->
                  Wire.encode_request Wire.Binary (Wire.Begin (first + i))))
          ^ frame_of "\x7f");
        let rec until_error () =
          match Wire.Io.read_response vio Wire.Binary with
          | Ok (Wire.Outcome _) -> until_error ()
          | Ok (Wire.Error_reply _) -> ()
          | _ -> Alcotest.fail "violator got no error reply"
        in
        until_error ();
        Unix.close (Wire.Io.fd vio)
      done;
      Thread.join survivor;
      Option.iter (Alcotest.failf "survivor: %s") !failure;
      (* after every violator is gone, a lone step still flushes *)
      ignore (expect_outcome "begin after violators" (call io (Wire.Begin 500)));
      ignore (expect_outcome "complete after violators" (call io (Wire.Complete 500)));
      Unix.close (Wire.Io.fd io);
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "violations counted" violators (Server.proto_errors srv);
      check_int "survivor committed" 101 r.Eng.committed;
      check_int "every violator transaction aborted" (violators * per_violator)
        r.Eng.aborted)

(* --- the loopback differential --- *)

(* Oracle events carry an ["ns"] wall-clock field no transport
   controls; scrub it before comparing traces (same idiom as the
   parallel engine's differential). *)
let scrub_timings line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let key = "\"ns\":" in
  let klen = String.length key in
  let i = ref 0 in
  while !i < n do
    if !i + klen <= n && String.sub line !i klen = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '_';
      i := !i + klen;
      while
        !i < n
        && (match line.[!i] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr i
      done
    end
    else begin
      Buffer.add_char b line.[!i];
      incr i
    end
  done;
  Buffer.contents b

let first_trace_divergence a b =
  if String.equal a b then None
  else
    let la = List.map scrub_timings (String.split_on_char '\n' a)
    and lb = List.map scrub_timings (String.split_on_char '\n' b) in
    let rec go n = function
      | [], [] -> None
      | x :: _, [] -> Some (Printf.sprintf "line %d: net has %S, ref ended" n x)
      | [], y :: _ -> Some (Printf.sprintf "line %d: ref has %S, net ended" n y)
      | x :: xs, y :: ys ->
          if String.equal x y then go (n + 1) (xs, ys)
          else Some (Printf.sprintf "line %d: net %S vs ref %S" n x y)
    in
    go 1 (la, lb)

type side = {
  s_outcomes : (int * Sched.outcome) list;
  s_trace : string;
  s_report : Eng.report;
}

let shards = 4
let batch = 8

let traced_config () =
  let buf = Buffer.create 8192 in
  let tracer = Tracer.create ~sink:(Sink.memory buf) () in
  (Eng.config ~policy:Policy.Greedy_c1 ~tracer ~shards ~batch (), buf)

(* Where the served run's batches ended: every batch (and the final
   epilogue) leaves a checkpoint event carrying the step count. *)
let batch_boundaries trace =
  List.filter_map
    (fun line ->
      match Event.of_json line with
      | Ok (Event.Checkpoint_stats c) -> Some c.Event.at_step
      | _ -> None)
    (String.split_on_char '\n' trace)

(* The in-process reference: the same engine fed directly, ticking at
   exactly the step indices where the served run flushed a batch.  The
   server flushes when its input drains, which depends on how the
   socket chunked the stream; replaying those boundaries makes the
   reference's batch cadence (and with it every checkpoint and GC
   round) the served run's. *)
let run_reference ~boundaries backend_mode steps =
  let cfg, buf = traced_config () in
  let outcomes = ref [] in
  let on_step idx _step o = outcomes := (idx, o) :: !outcomes in
  let submit, tick, finish =
    match backend_mode with
    | None ->
        let eng = Eng.create cfg in
        Eng.set_on_step eng (Some on_step);
        ( Eng.submit eng,
          (fun () -> Eng.tick eng),
          fun () -> Eng.finish eng ~wall_seconds:0.0 )
    | Some mode ->
        let h = Par.create_handle ~mode ~on_decision:on_step cfg in
        ( Par.submit h,
          (fun () -> Par.tick h),
          fun () -> (Par.finish h ~wall_seconds:0.0).Par.base )
  in
  List.iteri
    (fun i s ->
      submit s;
      if List.mem (i + 1) boundaries then tick ())
    steps;
  let report = finish () in
  { s_outcomes = List.rev !outcomes; s_trace = Buffer.contents buf;
    s_report = report }

(* The same schedule through socket + server: one pipelined client
   sends every step, then a Stats request — the server flushes any
   trailing partial batch before answering it, exactly where the
   in-process run's end-of-input tick happens. *)
let run_via_server ~name backend_mode steps =
  let cfg, buf = traced_config () in
  let backend ~on_step =
    match backend_mode with
    | None -> Backend.seq ~on_step cfg
    | Some mode -> Backend.parallel ~mode ~on_step cfg
  in
  let srv = Server.create ~backend (Addr.Unix_path (sock_path name)) in
  Server.start srv;
  let cl = Client.connect (Server.addr srv) in
  List.iter (fun s -> Client.send cl (Client.request_of_step s)) steps;
  Client.send cl Wire.Stats;
  let outcomes = ref [] in
  List.iteri
    (fun i _ ->
      match Client.recv cl with
      | Ok (Wire.Outcome { step; outcome }) ->
          outcomes := (step, outcome) :: !outcomes
      | Ok _ -> Alcotest.failf "step %d: non-outcome response" (i + 1)
      | Error e -> Alcotest.failf "step %d: %s" (i + 1) (Wire.error_to_string e))
    steps;
  let stats =
    match Client.recv cl with
    | Ok (Wire.Stats_reply kvs) -> kvs
    | _ -> Alcotest.fail "missing trailing stats reply"
  in
  Client.close cl;
  Server.stop srv;
  let report = Server.finish srv ~wall_seconds:0.0 in
  (* the trailing Stats flushed everything, so the live admission
     counters are already final *)
  check_int (name ^ ": live full_batches") report.Eng.full_batches
    (stat stats "full_batches");
  check_int (name ^ ": live ticks") report.Eng.ticks (stat stats "ticks");
  { s_outcomes = List.rev !outcomes; s_trace = Buffer.contents buf;
    s_report = report }

let aggregate (r : Eng.report) =
  ( r.Eng.steps,
    r.Eng.accepted,
    r.Eng.rejected,
    r.Eng.ignored,
    r.Eng.committed,
    r.Eng.aborted,
    r.Eng.shard_resident_hwm,
    r.Eng.coordinator.Dct_engine.Coordinator.deleted_total,
    r.Eng.coordinator.Dct_engine.Coordinator.resident_hwm )

let loopback_differential ~label ~mix backend_mode =
  let steps = Mix.schedule mix ~n_txns:48 ~keys:128 ~mpl:6 ~seed:11 in
  let net = run_via_server ~name:label backend_mode steps in
  let reference =
    run_reference ~boundaries:(batch_boundaries net.s_trace) backend_mode steps
  in
  check_int
    (label ^ ": one outcome per step")
    (List.length steps)
    (List.length net.s_outcomes);
  List.iteri
    (fun i ((ni, no), (ri, ro)) ->
      if ni <> ri || no <> ro then
        Alcotest.failf "%s: outcome %d diverged: net (%d, %s) vs ref (%d, %s)"
          label i ni (Sched.outcome_name no) ri (Sched.outcome_name ro))
    (List.combine net.s_outcomes reference.s_outcomes);
  (* deletion rounds, checkpoints and decisions all ride in the trace:
     byte equality (timings scrubbed) pins every one of them *)
  (match first_trace_divergence net.s_trace reference.s_trace with
  | None -> ()
  | Some d -> Alcotest.failf "%s: trace diverged: %s" label d);
  check (label ^ ": trace non-empty") true (String.length net.s_trace > 0);
  if aggregate net.s_report <> aggregate reference.s_report then
    Alcotest.failf "%s: report aggregates diverged" label

let test_differential_seq_ycsb_b () =
  loopback_differential ~label:"seq-ycsb-b" ~mix:Mix.Ycsb_b None

let test_differential_seq_long_reader () =
  loopback_differential ~label:"seq-long-reader" ~mix:Mix.Long_reader_pin None

let test_differential_par_ycsb_b () =
  loopback_differential ~label:"par-ycsb-b" ~mix:Mix.Ycsb_b
    (Some (Par.Replay 3))

let test_differential_par_long_reader () =
  loopback_differential ~label:"par-long-reader" ~mix:Mix.Long_reader_pin
    (Some (Par.Replay 3))

(* Real applier domains behind the server: the replay runs above pin
   byte equality; this pins that actual [Domain.spawn] appliers behave
   identically (the determinism contract makes the replay reference
   valid for a domains run). *)
let test_differential_domains () =
  let steps = Mix.schedule Mix.Ycsb_b ~n_txns:48 ~keys:128 ~mpl:6 ~seed:11 in
  let net = run_via_server ~name:"domains" (Some Par.Domains) steps in
  let reference =
    run_reference ~boundaries:(batch_boundaries net.s_trace)
      (Some (Par.Replay 5)) steps
  in
  check "domains outcomes == replay reference" true
    (net.s_outcomes = reference.s_outcomes);
  (match first_trace_divergence net.s_trace reference.s_trace with
  | None -> ()
  | Some d -> Alcotest.failf "domains trace diverged: %s" d);
  check "domains aggregates == replay reference" true
    (aggregate net.s_report = aggregate reference.s_report)

(* --- the closed-loop driver --- *)

let run_driver ~name ~mix ~dialect ~clients ~txns =
  let cfg = Eng.config ~policy:Policy.Greedy_c1 ~shards:2 ~batch:4 () in
  let srv =
    Server.create
      ~backend:(fun ~on_step -> Backend.seq ~on_step cfg)
      (Addr.Unix_path (sock_path name))
  in
  Server.start srv;
  let res =
    Driver.run
      { Driver.clients; txns_per_client = txns; mix; keys = 64; seed = 7; dialect }
      (Server.addr srv)
  in
  Server.stop srv;
  let report = Server.finish srv ~wall_seconds:res.Driver.wall_seconds in
  (res, report)

let test_driver_accounts_for_everything () =
  let res, report =
    run_driver ~name:"driver-bin" ~mix:Mix.Ycsb_b ~dialect:Wire.Binary
      ~clients:3 ~txns:10
  in
  check_int "every transaction issued" 30 res.Driver.txns;
  check_int "every transaction resolved" 30
    (res.Driver.completed + res.Driver.aborted);
  check "ops flowed" true (res.Driver.ops > 0);
  check_int "every op latency recorded" res.Driver.ops
    (Metrics.histo_count res.Driver.metrics "net.latency.all");
  check_int "engine agrees on commits" res.Driver.completed report.Eng.committed

let test_driver_line_dialect () =
  let res, _report =
    run_driver ~name:"driver-line" ~mix:Mix.Tpcc ~dialect:Wire.Line ~clients:2
      ~txns:6
  in
  check_int "line dialect resolves everything" 12
    (res.Driver.completed + res.Driver.aborted)

(* --- mix distributions: the catalog's labels are true --- *)

let plans mix n =
  let s = Mix.sampler mix ~keys:256 ~seed:5 in
  List.init n (fun _ -> Mix.next_plan s)

let test_mix_ycsb_shapes () =
  List.iter
    (fun (p : Mix.plan) ->
      check "ycsb-c read-only" true (p.Mix.writes = []);
      check_int "ycsb-c single read" 1 (List.length p.Mix.reads))
    (plans Mix.Ycsb_c 500);
  let updates =
    List.length (List.filter (fun (p : Mix.plan) -> p.Mix.writes <> []) (plans Mix.Ycsb_a 2000))
  in
  check
    (Printf.sprintf "ycsb-a ~50%% updates (%d/2000)" updates)
    true
    (updates > 850 && updates < 1150);
  let b_updates =
    List.length (List.filter (fun (p : Mix.plan) -> p.Mix.writes <> []) (plans Mix.Ycsb_b 2000))
  in
  check
    (Printf.sprintf "ycsb-b ~5%% updates (%d/2000)" b_updates)
    true
    (b_updates > 40 && b_updates < 180);
  List.iter
    (fun (p : Mix.plan) ->
      match (p.Mix.reads, p.Mix.writes) with
      | reads, [] ->
          let n = List.length reads in
          check "ycsb-e scan length 1-16" true (n >= 1 && n <= 16);
          (* scans are contiguous ranges *)
          (match reads with
          | first :: _ ->
              check "ycsb-e scan contiguous" true
                (reads = List.init n (fun i -> first + i))
          | [] -> ())
      | [], [ k ] -> check "ycsb-e insert allocates past keyspace" true (k >= 256)
      | _ -> Alcotest.fail "ycsb-e: neither scan nor insert")
    (plans Mix.Ycsb_e 500);
  List.iter
    (fun (p : Mix.plan) ->
      match p.Mix.writes with
      | [] -> ()
      | [ k ] -> check "ycsb-f RMW writes what it read" true (p.Mix.reads = [ k ])
      | _ -> Alcotest.fail "ycsb-f multi-write")
    (plans Mix.Ycsb_f 500)

let test_mix_hot_key_concentration () =
  let keys = 256 in
  let hot_cut = keys * 5 / 100 in
  let s = Mix.sampler Mix.Hot_key ~keys ~seed:9 in
  (* every hot-key plan draws exactly one key (an RMW rewrites the key
     it read), so the per-draw hot probability is what the label
     promises: ~90% *)
  let total = 4000 and hot = ref 0 in
  for _ = 1 to total do
    let p = Mix.next_plan s in
    List.iter (fun k -> if k < hot_cut then incr hot) p.Mix.reads
  done;
  let frac = float_of_int !hot /. float_of_int total in
  check
    (Printf.sprintf "hot 5%% of keys draw ~90%% of ops (%.2f)" frac)
    true
    (frac > 0.85 && frac < 0.95)

let test_mix_tpcc_shapes () =
  let seen_neworder = ref false and seen_payment = ref false
  and seen_stock = ref false in
  List.iter
    (fun (p : Mix.plan) ->
      match (p.Mix.reads, p.Mix.writes) with
      | reads, [] ->
          seen_stock := true;
          check "stock-level reads item rows" true
            (reads <> [] && List.length reads <= 21)
      | reads, writes when List.exists (fun k -> k >= 256) writes ->
          seen_neworder := true;
          (* reads = district :: items, writes = fresh order row ::
             the same items' stock rows *)
          check "new-order stock writes mirror the item reads" true
            (List.tl writes = List.tl reads);
          check "new-order order row is freshly inserted" true
            (List.hd writes >= 256 && List.hd reads < 64)
      | reads, writes ->
          seen_payment := true;
          check "payment rewrites the meta rows it read" true (reads = writes);
          check "payment touches 1-2 rows" true (List.length writes <= 2))
    (plans Mix.Tpcc 500);
  check "all three TPC-C flavors drawn" true
    (!seen_neworder && !seen_payment && !seen_stock)

let test_mix_long_reader_cadence () =
  let s = Mix.sampler Mix.Long_reader_pin ~keys:256 ~seed:3 in
  List.iteri
    (fun i (p : Mix.plan) ->
      if i mod 8 = 0 then begin
        check "pinned reader is read-only" true (p.Mix.writes = []);
        check "pinned reader reads dozens of keys" true
          (List.length p.Mix.reads >= 24)
      end
      else
        check "filler is ycsb-b-sized" true (List.length p.Mix.reads <= 1))
    (List.init 64 (fun _ -> Mix.next_plan s))

let schedule_covers mix =
  let n_txns = 40 in
  let steps = Mix.schedule mix ~n_txns ~keys:128 ~mpl:5 ~seed:2 in
  let begun = Hashtbl.create 64 and completed = Hashtbl.create 64 in
  List.iter
    (function
      | Step.Begin t -> Hashtbl.replace begun t ()
      | Step.Write (t, _) -> Hashtbl.replace completed t ()
      | Step.Read _ -> ()
      | _ -> Alcotest.fail "non-basic step in rendered schedule")
    steps;
  check_int (Mix.name mix ^ ": every transaction begun") n_txns
    (Hashtbl.length begun);
  check_int (Mix.name mix ^ ": every transaction completed") n_txns
    (Hashtbl.length completed);
  check (Mix.name mix ^ ": deterministic") true
    (steps = Mix.schedule mix ~n_txns ~keys:128 ~mpl:5 ~seed:2)

let test_mix_schedules_complete () = List.iter schedule_covers Mix.all

let test_mix_names_roundtrip () =
  List.iter
    (fun m ->
      match Mix.of_string (Mix.name m) with
      | Ok m' -> check (Mix.name m ^ " round trips") true (m = m')
      | Error e -> Alcotest.fail e)
    Mix.all;
  match Mix.of_string "ycsb-z" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mix accepted"

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_stream;
          QCheck_alcotest.to_alcotest prop_io_chunked;
          Alcotest.test_case "io buffering and has_frame" `Quick
            test_io_buffering;
          Alcotest.test_case "binary typed rejections" `Quick test_binary_errors;
          Alcotest.test_case "line typed rejections" `Quick test_line_errors;
          Alcotest.test_case "address parsing" `Quick test_addr_parsing;
        ] );
      ( "server",
        [
          Alcotest.test_case "responses stay in issue order" `Quick
            test_response_issue_order;
          Alcotest.test_case "mid-frame disconnect spares other clients" `Quick
            test_midframe_disconnect;
          Alcotest.test_case "oversized frame answered with typed error" `Quick
            test_oversized_gets_error_reply;
          Alcotest.test_case "garbage line answered with typed error" `Quick
            test_line_garbage_gets_error_reply;
          Alcotest.test_case "both dialects share one engine" `Quick
            test_mixed_dialects;
          Alcotest.test_case "tcp endpoint with kernel port" `Quick
            test_tcp_endpoint;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "closed loop flushes each step alone" `Quick
            test_closed_loop_flushes_each_step;
          Alcotest.test_case "pipelined burst fills batches" `Quick
            test_pipelined_burst_fills_batches;
          Alcotest.test_case "protocol error does not strand steps" `Quick
            test_protocol_error_releases_flush;
        ] );
      ( "loopback-differential",
        [
          Alcotest.test_case "seq engine, ycsb-b" `Quick
            test_differential_seq_ycsb_b;
          Alcotest.test_case "seq engine, long-reader-pin" `Quick
            test_differential_seq_long_reader;
          Alcotest.test_case "parallel engine (replay), ycsb-b" `Quick
            test_differential_par_ycsb_b;
          Alcotest.test_case "parallel engine (replay), long-reader-pin" `Quick
            test_differential_par_long_reader;
          Alcotest.test_case "parallel engine (domains)" `Quick
            test_differential_domains;
        ] );
      ( "driver",
        [
          Alcotest.test_case "closed loop accounts for everything" `Quick
            test_driver_accounts_for_everything;
          Alcotest.test_case "line dialect end to end" `Quick
            test_driver_line_dialect;
        ] );
      ( "mixes",
        [
          Alcotest.test_case "ycsb shapes" `Quick test_mix_ycsb_shapes;
          Alcotest.test_case "hot-key concentration" `Quick
            test_mix_hot_key_concentration;
          Alcotest.test_case "tpcc plan shapes" `Quick test_mix_tpcc_shapes;
          Alcotest.test_case "long-reader cadence" `Quick
            test_mix_long_reader_cadence;
          Alcotest.test_case "schedules complete and deterministic" `Quick
            test_mix_schedules_complete;
          Alcotest.test_case "names round trip" `Quick test_mix_names_roundtrip;
        ] );
    ]
