module Step = Dct_txn.Step

type client = {
  c_io : Wire.Io.t;
  mutable c_dialect : Wire.dialect;
  c_wlock : Mutex.t;
  mutable c_alive : bool;
  c_txns : (int, unit) Hashtbl.t;  (** begun, not yet completed/aborted *)
  mutable c_busy : bool;  (** counted in [busy]; under [lock] *)
}

type t = {
  listen_fd : Unix.file_descr;
  addr : Addr.t;
  backend : Backend.t;
  lock : Mutex.t;  (** serializes every engine access *)
  waiters : client Queue.t;
      (** issuing client of each submitted-but-undecided step, in
          submission order; pushed and popped under [lock] (outcomes
          fire during submit/tick, which hold it) *)
  mutable busy : int;
      (** handlers with another complete request buffered; under [lock] *)
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  threads_lock : Mutex.t;
  mutable client_threads : Thread.t list;
  mutable live_clients : client list;
  mutable connections : int;
  mutable proto_errors : int;
}

let addr t = t.addr
let backend t = t.backend
let connections t = t.connections
let proto_errors t = t.proto_errors

(* Outcomes can be routed by whichever handler thread's submit filled
   the batch, concurrently with the target's own handler writing an
   abort/stats reply — hence the per-client write lock.  A client that
   vanished mid-run just has its responses dropped. *)
let send_to c resp =
  if c.c_alive then begin
    Mutex.lock c.c_wlock;
    (try Wire.Io.write c.c_io (Wire.encode_response c.c_dialect resp)
     with _ -> c.c_alive <- false);
    Mutex.unlock c.c_wlock
  end

let create ~backend addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd, bound = Addr.listen addr in
  let waiters = Queue.create () in
  let on_step idx _step outcome =
    match Queue.take_opt waiters with
    | Some c -> send_to c (Wire.Outcome { step = idx; outcome })
    | None -> ()
  in
  {
    listen_fd;
    addr = bound;
    backend = backend ~on_step;
    lock = Mutex.create ();
    waiters;
    busy = 0;
    running = false;
    accept_thread = None;
    threads_lock = Mutex.create ();
    client_threads = [];
    live_clients = [];
    connections = 0;
    proto_errors = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let step_of_request = function
  | Wire.Begin txn -> Some (Step.Begin txn)
  | Wire.Read (txn, e) -> Some (Step.Read (txn, e))
  | Wire.Write (txn, es) -> Some (Step.Write (txn, es))
  | Wire.Complete txn -> Some (Step.Write (txn, []))
  | Wire.Abort _ | Wire.Stats -> None

(* Group commit without a timer, under [t.lock] after each request of
   [c]'s.  [more]: [c] has another complete frame buffered, so it stays
   busy and its next request may still join this batch.  Otherwise its
   handler is about to block in read; if then no handler is busy, no
   one holds input that could fill the batch, so it is flushed.  Hence
   whenever no handler is busy, nothing is pending, and no step ever
   waits for a flush that only more input could trigger.  A request a
   handler has read but not yet submitted needs no count: its own
   [settle] comes after its submit. *)
let settle t c ~more =
  if more <> c.c_busy then begin
    c.c_busy <- more;
    t.busy <- (t.busy + if more then 1 else -1)
  end;
  if t.busy = 0 && Backend.pending t.backend > 0 then Backend.tick t.backend

let handle_request t c req ~more =
  match step_of_request req with
  | Some step ->
      (match req with
      | Wire.Begin txn -> Hashtbl.replace c.c_txns txn ()
      | Wire.Write (txn, _) | Wire.Complete txn -> Hashtbl.remove c.c_txns txn
      | _ -> ());
      locked t (fun () ->
          (* push before submit: a full batch decides this step — and
             routes its outcome — before submit returns *)
          Queue.push c t.waiters;
          Backend.submit t.backend step;
          settle t c ~more)
  | None -> (
      match req with
      | Wire.Abort txn ->
          (* flush first so the client's earlier outcomes precede the
             reply, keeping its response stream in issue order *)
          let b =
            locked t (fun () ->
                Backend.tick t.backend;
                let b = Backend.abort t.backend txn in
                settle t c ~more;
                b)
          in
          Hashtbl.remove c.c_txns txn;
          send_to c (Wire.Abort_reply b)
      | Wire.Stats ->
          let stats =
            locked t (fun () ->
                Backend.tick t.backend;
                settle t c ~more;
                Backend.stats t.backend)
          in
          send_to c
            (Wire.Stats_reply
               (stats
               @ [
                   ("connections", t.connections);
                   ("protocol_errors", t.proto_errors);
                 ]))
      | _ -> assert false)

(* A dying client's begun-but-incomplete transactions are aborted so
   they cannot pin deletability forever (the engine treats any later
   queued steps of theirs as [Ignored]).  A handler can die busy (a
   protocol error after a buffered frame, an exception); it settles
   here, or no later flush would ever come. *)
let cleanup_client t c =
  c.c_alive <- false;
  let orphans = Hashtbl.fold (fun txn () acc -> txn :: acc) c.c_txns [] in
  Hashtbl.reset c.c_txns;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close (Wire.Io.fd c.c_io) with Unix.Unix_error _ -> ());
      Mutex.lock t.threads_lock;
      t.live_clients <- List.filter (fun c' -> c' != c) t.live_clients;
      Mutex.unlock t.threads_lock)
    (fun () ->
      locked t (fun () ->
          if orphans <> [] then begin
            (* flush first: an orphan whose [Begin] is still queued
               would otherwise begin after its abort, and stay *)
            Backend.tick t.backend;
            List.iter (fun txn -> ignore (Backend.abort t.backend txn)) orphans
          end;
          settle t c ~more:false))

let client_loop t c =
  match Wire.Io.sniff_dialect c.c_io with
  | Error _ -> cleanup_client t c
  | Ok dialect ->
      c.c_dialect <- dialect;
      let rec loop () =
        match Wire.Io.read_request c.c_io dialect with
        | Ok req ->
            handle_request t c req ~more:(Wire.Io.has_frame c.c_io dialect);
            loop ()
        | Error Wire.Closed -> ()
        | Error e ->
            (* protocol violation: answer with the typed error, then
               drop this connection — others keep being served *)
            t.proto_errors <- t.proto_errors + 1;
            send_to c (Wire.Error_reply (Wire.error_to_string e))
      in
      (try loop () with _ -> t.proto_errors <- t.proto_errors + 1);
      cleanup_client t c

let accept_loop t =
  while t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        let c =
          {
            c_io = Wire.Io.of_fd fd;
            c_dialect = Wire.Binary;
            c_wlock = Mutex.create ();
            c_alive = true;
            c_txns = Hashtbl.create 8;
            c_busy = false;
          }
        in
        Mutex.lock t.threads_lock;
        t.connections <- t.connections + 1;
        t.live_clients <- c :: t.live_clients;
        t.client_threads <-
          Thread.create (fun () -> client_loop t c) () :: t.client_threads;
        Mutex.unlock t.threads_lock
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let start t =
  if t.running then invalid_arg "Server.start: already running";
  t.running <- true;
  t.accept_thread <- Some (Thread.create accept_loop t)

let stop t =
  if t.running then begin
    t.running <- false;
    (* wake the accept loop *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    t.accept_thread <- None;
    (* wake handler threads blocked in read, then wait for them *)
    Mutex.lock t.threads_lock;
    let live = t.live_clients and threads = t.client_threads in
    t.client_threads <- [];
    Mutex.unlock t.threads_lock;
    List.iter
      (fun c ->
        try Unix.shutdown (Wire.Io.fd c.c_io) Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      live;
    List.iter Thread.join threads;
    Addr.cleanup t.addr
  end

let finish t ~wall_seconds =
  locked t (fun () -> Backend.finish t.backend ~wall_seconds)
