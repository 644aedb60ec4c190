(* Every deadline, lease TTL and latency measurement here runs on the
   monotonic clock (Mono.now): a wall-clock step must never fire or
   stall a timeout.  Wall-clock never enters experiment records. *)

type config = {
  socket_path : string;
  shards : int;
  capacity : int;
  seed : int;
  backlog : int;
  max_conns : int;
  lease_ttl_s : float;
  journal_path : string option;
  recover : bool;
  max_queue : int;
  max_out_bytes : int;
  stall_s : float;
  overload : Overload.config option;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    shards = 2;
    capacity = 4096;
    seed = 1;
    backlog = 64;
    max_conns = 1024;
    lease_ttl_s = 30.;
    journal_path = None;
    recover = false;
    max_queue = 1024;
    max_out_bytes = 262144;
    stall_s = 5.;
    overload = None;
    log = ignore;
  }

type report = {
  conns_served : int;
  requests : int;
  acquires : int;
  releases : int;
  errors : int;
  drained_releases : int;
  renews : int;
  expired_leases : int;
  dedup_hits : int;
  recovered : int;
  shed_busy : int;
  shed_expired : int;
  stalled_conns : int;
  queue_peak : int;
  taken_at_exit : int;
  wall_s : float;
}

let report_clean r = r.taken_at_exit = 0

let recovery_required_prefix = "recovery required:"

let recovery_refused e =
  String.length e >= String.length recovery_required_prefix
  && String.sub e 0 (String.length recovery_required_prefix)
     = recovery_required_prefix

type handle = { flag : bool Atomic.t; wake : Unix.file_descr option Atomic.t }

let create_handle () = { flag = Atomic.make false; wake = Atomic.make None }

(* repro-lint: allow journal-write — self-pipe wake byte, not a journal fd *)
let poke fd = try ignore (Unix.write fd (Bytes.make 1 '!') 0 1) with _ -> ()

let stop h =
  Atomic.set h.flag true;
  match Atomic.get h.wake with None -> () | Some fd -> poke fd

let stop_requested h = Atomic.get h.flag

(* ------------------------------------------------------------------ *)
(* Cross-domain queues *)

module Q = struct
  type 'a t = { q : 'a Queue.t; mu : Mutex.t; cv : Condition.t }

  let create () =
    { q = Queue.create (); mu = Mutex.create (); cv = Condition.create () }

  let push t x =
    Mutex.lock t.mu;
    Queue.push x t.q;
    Condition.signal t.cv;
    Mutex.unlock t.mu

  let pop_blocking t =
    Mutex.lock t.mu;
    while Queue.is_empty t.q do
      Condition.wait t.cv t.mu
    done;
    let x = Queue.pop t.q in
    Mutex.unlock t.mu;
    x

  (* Everything queued right now, in order; never blocks. *)
  let drain t =
    Mutex.lock t.mu;
    let out = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    Mutex.unlock t.mu;
    out

  (* Pull out every queued element satisfying [p], oldest first,
     keeping the rest in order.  The admission purge uses this to shed
     already-expired acquires without disturbing live work. *)
  let remove_if t p =
    Mutex.lock t.mu;
    let all = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    let removed =
      List.filter
        (fun x -> if p x then true else (Queue.push x t.q; false))
        all
    in
    Mutex.unlock t.mu;
    removed
end

type job =
  | Acquire_job of {
      conn : int;
      id : int;
      client : int;
      token : int;
      deadline : float;  (* absolute monotonic; infinity = none *)
      admitted : float;  (* monotonic enqueue time, for queue latency *)
    }
  | Release_job of { conn : int; id : int; name : int; drain : bool }
  | Quit

type done_op =
  | Did_acquire of {
      conn : int;
      id : int;
      client : int;
      token : int;
      name : int option;
      expired : bool;  (* deadline passed in queue; allocator untouched *)
      waited_ms : float;  (* enqueue -> worker pickup *)
    }
  | Did_release of { conn : int; id : int; name : int; drain : bool }

(* ------------------------------------------------------------------ *)
(* Connections *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  session : Session.t;
  mutable inflight : int;
  mutable closing : bool;  (* close once flushed and drained *)
  mutable dead : bool;  (* fd closed; record kept for in-flight jobs *)
  mutable last_progress : float;
      (* monotonic time the peer last drained bytes; the stall clock *)
}

let out_pending c = Session.out_pending c.session

(* A grant decided this pass: leased and its [Grant] record queued, its
   [Acquired] reply held back until the commit that makes the record
   durable. *)
type held_grant = { holder : conn; id : int; name : int; epoch : int }

type phase = Serving | Draining_jobs | Draining_ledgers | Flushing

type state = {
  cfg : config;
  pool : Shard.t;
  leases : Lease.t;
  journal : Journal.t option;
  recovered : int;  (* grants re-occupied from the journal at boot *)
  handle : handle;
  workers : job Q.t array;
  outbox : done_op Q.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;
      (* live connections by socket, for the readiness lists; an entry
         leaves at disconnect, before its fd number can be reused *)
  started : float;
  scratch : Bytes.t;
  enc : Buffer.t;  (* one response's encoding, reused for every reply *)
  wake_pending : bool Atomic.t;
      (* a worker has poked the self-pipe since the loop last reset
         this: later completions need no poke of their own *)
  wakeups : int Atomic.t;  (* self-pipe pokes by workers *)
  overload : Overload.t;
  mutable listen_fd : Unix.file_descr option;
  mutable phase : phase;
  mutable next_cid : int;
  mutable inflight_total : int;
  mutable next_sweep : float;
  mutable conns_served : int;
  mutable requests : int;
  mutable acquires : int;
  mutable releases : int;
  mutable errors : int;
  mutable drained_releases : int;
  mutable renews : int;
  mutable expired_leases : int;
  mutable dedup_hits : int;
  mutable shed_busy : int;
  mutable shed_expired : int;
  mutable stalled_conns : int;
  mutable queue_peak : int;
  mutable flush_deadline : float;
  mutable pending : Journal.record list;
      (* records decided since the last commit, newest first *)
  mutable held : held_grant list;  (* grants awaiting commit, newest first *)
  mutable journal_commits : int;  (* batches made durable *)
  mutable journal_records : int;  (* records in those batches *)
  mutable socket_writes : int;  (* client-socket write calls *)
  acq_depth : int Atomic.t array;
      (* queued (not yet picked) acquires per shard: the class the
         admission bound governs.  Releases share the worker queues but
         are never refused — they relieve pressure — so depth, peak and
         the overload machine all track acquires alone.  Incremented by
         the I/O domain at admission, decremented by the owning worker
         at pick (or by the admission purge). *)
}

let now () = Mono.now ()
let conn_list st = Hashtbl.to_seq_values st.conns |> List.of_seq
let sweep_period st = Float.max 0.01 (Lease.ttl_s st.leases /. 10.)

(* ------------------------------------------------------------------ *)
(* Worker domains: each owns one shard and loops on its queue. *)

(* Hand a completion to the I/O domain, waking it at most once per
   loop pass.  The push happens before the exchange, and the loop resets
   [wake_pending] before it drains the outbox.  So an exchange that sees
   [true] comes before that reset, and the drain after the reset picks
   this completion up; an exchange that sees [false] pokes, and the poke
   wakes a pass that resets and drains. *)
let complete st op =
  Q.push st.outbox op;
  if not (Atomic.exchange st.wake_pending true) then begin
    Atomic.incr st.wakeups;
    poke st.wake_w
  end

let worker_loop st i =
  let q = st.workers.(i) in
  let continue = ref true in
  while !continue do
    match Q.pop_blocking q with
    | Quit -> continue := false
    | Acquire_job { conn; id; client; token; deadline; admitted } ->
      Atomic.decr st.acq_depth.(i);
      let picked = now () in
      let waited_ms = Float.max 0. ((picked -. admitted) *. 1000.) in
      (* Deadline check before the allocator: work the client has
         already timed out on is shed, not served — executing it would
         burn a slot nobody will release promptly. *)
      if picked > deadline then begin
        complete st
          (Did_acquire
             { conn; id; client; token; name = None; expired = true; waited_ms })
      end
      else begin
        let name =
          try Shard.acquire st.pool ~shard:i ~client
          with e ->
            st.cfg.log
              (Printf.sprintf "worker %d: acquire raised %s" i
                 (Printexc.to_string e));
            None
        in
        complete st
          (Did_acquire
             { conn; id; client; token; name; expired = false; waited_ms })
      end
    | Release_job { conn; id; name; drain } ->
      (try Shard.release st.pool ~name
       with e ->
         st.cfg.log
           (Printf.sprintf "worker %d: release %d raised %s" i name
              (Printexc.to_string e)));
      complete st (Did_release { conn; id; name; drain })
  done

(* ------------------------------------------------------------------ *)
(* Replies *)

let send_response st c r =
  if not c.dead then begin
    let mode = Option.value (Session.mode c.session) ~default:Wire.Binary in
    Buffer.clear st.enc;
    Wire.encode_response mode st.enc r;
    Session.append_out c.session st.enc;
    (match r with Wire.Error _ -> st.errors <- st.errors + 1 | _ -> ())
  end

let enqueue_job st ~shard job =
  st.inflight_total <- st.inflight_total + 1;
  (match job with
  | Acquire_job _ -> Atomic.incr st.acq_depth.(shard)
  | Release_job _ | Quit -> ());
  Q.push st.workers.(shard) job

(* Return a cell to the pool through its owner worker without a client
   reply (lease expiry, rollback, drain). *)
let enqueue_auto_release st name =
  match Shard.shard_of_name st.pool name with
  | None -> st.cfg.log (Printf.sprintf "drain: name %d outside namespace" name)
  | Some shard ->
    enqueue_job st ~shard (Release_job { conn = -1; id = 0; name; drain = true })

(* Auto-release a name that no live session will ever release (granted
   to a dead connection, or left on a ledger at shutdown). *)
let enqueue_drain_release st name =
  st.drained_releases <- st.drained_releases + 1;
  enqueue_auto_release st name

(* ------------------------------------------------------------------ *)
(* Admission control *)

let settle_conn st cid =
  match Hashtbl.find_opt st.conns cid with
  | None -> ()
  | Some c ->
    c.inflight <- c.inflight - 1;
    if c.dead && c.inflight = 0 then Hashtbl.remove st.conns c.cid

let max_queue_depth st =
  Array.fold_left (fun m d -> max m (Atomic.get d)) 0 st.acq_depth

(* Oldest-expired-first shed: a full shard queue is relieved of every
   queued acquire whose deadline has already passed (the queue keeps
   arrival order, so expired entries come out oldest first).  They are
   answered [err_expired] — work nobody is waiting for anymore never
   reaches the allocator. *)
let purge_expired st ~shard =
  let t = now () in
  let purged =
    Q.remove_if st.workers.(shard) (function
      | Acquire_job { deadline; _ } -> t > deadline
      | Release_job _ | Quit -> false)
  in
  List.iter
    (function
      | Acquire_job { conn; id; _ } ->
        Atomic.decr st.acq_depth.(shard);
        st.inflight_total <- st.inflight_total - 1;
        st.shed_expired <- st.shed_expired + 1;
        (match Hashtbl.find_opt st.conns conn with
        | Some c when not c.dead ->
          send_response st c
            (Wire.Error
               {
                 id;
                 op = Wire.Op_acquire;
                 code = Wire.err_expired;
                 msg = "deadline expired in queue";
               })
        | _ -> ());
        settle_conn st conn
      | Release_job _ | Quit -> ())
    purged;
  List.length purged

(* ------------------------------------------------------------------ *)
(* Journal + lease plumbing (I/O domain only) *)

(* Queue a record for this pass's commit.  Push order is decision
   order, and the commit writes the batch in that order: a [Release]
   of a name always lands before the [Grant] that re-wins it. *)
let journal_push st r =
  if Option.is_some st.journal then st.pending <- r :: st.pending

(* Remove [name]'s lease and queue its release record. *)
let release_lease st name =
  match Lease.epoch_of st.leases ~name with
  | None -> ()
  | Some epoch ->
    ignore (Lease.release st.leases ~name ~epoch);
    journal_push st (Journal.Release { name; epoch })

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Tear down a connection's I/O; its record stays in the table until
   in-flight jobs settle so late completions can be drained. *)
let disconnect st c =
  if not c.dead then begin
    c.dead <- true;
    Hashtbl.remove st.by_fd c.fd;
    close_fd c.fd;
    Session.clear_out c.session;
    List.iter
      (fun name ->
        Session.note_released c.session name;
        release_lease st name;
        enqueue_drain_release st name)
      (Session.held c.session);
    if c.inflight = 0 then Hashtbl.remove st.conns c.cid
  end

(* The expiry sweep: the only thing that kills a lease on time grounds.
   A reclaimed name leaves its holder's ledger too, so a late release
   from that client is answered [err_not_held] instead of freeing a
   cell somebody else may have re-won. *)
let sweep st tnow =
  List.iter
    (fun (name, epoch, holder, _token) ->
      st.expired_leases <- st.expired_leases + 1;
      (match holder with
      | Some cid -> (
        match Hashtbl.find_opt st.conns cid with
        | Some c when not c.dead -> Session.note_released c.session name
        | _ -> ())
      | None -> ());
      journal_push st (Journal.Expire { name; epoch });
      enqueue_auto_release st name)
    (Lease.expire_due st.leases ~now:tnow)

(* ------------------------------------------------------------------ *)
(* Request handling (I/O domain only) *)

let stats_json st =
  let pool_fields = Jsonu.obj (Shard.stats st.pool) in
  let held =
    List.fold_left
      (fun acc c -> acc + Session.held_count c.session)
      0 (conn_list st)
  in
  Jsonu.Obj
    ([ ("kind", Jsonu.Str "renamed-stats"); ("schema", Jsonu.Int 1) ]
    @ pool_fields
    @ [
        ("held_by_sessions", Jsonu.Int held);
        ("leases", Jsonu.Int (Lease.held st.leases));
        ("lease_ttl_ms", Jsonu.Int (Lease.ttl_ms st.leases));
        ("renews", Jsonu.Int st.renews);
        ("expired_leases", Jsonu.Int st.expired_leases);
        ("dedup_hits", Jsonu.Int st.dedup_hits);
        ("recovered", Jsonu.Int st.recovered);
        ("journal", Jsonu.Bool (Option.is_some st.journal));
        ("journal_commits", Jsonu.Int st.journal_commits);
        ("journal_records", Jsonu.Int st.journal_records);
        ("socket_writes", Jsonu.Int st.socket_writes);
        ("wakeups", Jsonu.Int (Atomic.get st.wakeups));
        ("conns", Jsonu.Int (Hashtbl.length st.conns));
        ("conns_served", Jsonu.Int st.conns_served);
        ("requests", Jsonu.Int st.requests);
        ("shed_busy", Jsonu.Int st.shed_busy);
        ("shed_expired", Jsonu.Int st.shed_expired);
        ("stalled_conns", Jsonu.Int st.stalled_conns);
        ("queue_peak", Jsonu.Int st.queue_peak);
        ( "overload",
          Overload.to_json st.overload ~queue_depth:(max_queue_depth st)
            ~queue_bound:st.cfg.max_queue );
        ("uptime_s", Jsonu.Num (now () -. st.started));
      ])

let handle_request st c (r : Wire.request) =
  st.requests <- st.requests + 1;
  let id = Wire.request_id r in
  let op = Wire.request_op r in
  if st.phase <> Serving then
    send_response st c
      (Wire.Error { id; op; code = Wire.err_shutdown; msg = "shutting down" })
  else
    match r with
    | Wire.Acquire { id; client; token; deadline_ms } -> (
      (* Idempotent retry: a nonzero token still bound to a live lease
         re-delivers the original grant — but only when that lease is
         unclaimed (an orphan from recovery or a reply lost in flight to
         a dead connection) or already ours.  A token colliding with
         another live connection's lease is a fresh acquire. *)
      let dedup =
        match Lease.find_token st.leases ~token with
        | None -> None
        | Some (name, _) when List.exists (fun g -> g.name = name) st.held ->
          (* Its grant is not durable yet and may still be rolled back:
             re-delivering it now could acknowledge a name the commit
             then frees.  Serve the retry as a fresh acquire. *)
          None
        | Some (name, epoch) ->
          let ours =
            match Lease.holder_of st.leases ~name with
            | Some None -> true
            | Some (Some h) -> (
              h = c.cid
              || match Hashtbl.find_opt st.conns h with
                 | Some holder -> holder.dead
                 | None -> true)
            | None -> false
          in
          if ours && Lease.rebind st.leases ~now:(now ()) ~name ~epoch ~holder:c.cid
          then Some name
          else None
      in
      match dedup with
      | Some name ->
        st.dedup_hits <- st.dedup_hits + 1;
        Session.note_acquired c.session name;
        send_response st c
          (Wire.Acquired { id; name; lease_ms = Lease.ttl_ms st.leases })
      | None ->
        let shard = Shard.shard_of_client st.pool client in
        let depth = Atomic.get st.acq_depth.(shard) in
        st.queue_peak <- max st.queue_peak depth;
        let busy depth =
          st.shed_busy <- st.shed_busy + 1;
          send_response st c
            (Wire.Busy
               {
                 id;
                 op = Wire.Op_acquire;
                 retry_after_ms =
                   Overload.retry_after_ms st.overload ~queue_depth:depth;
               })
        in
        if Overload.level st.overload = Overload.Shedding then
          (* Graceful degradation: while shedding, no new acquire is
             admitted at all, but releases/renews/stats below still
             execute — held names keep draining, which is the path
             back to health. *)
          busy depth
        else begin
          let depth =
            if depth >= st.cfg.max_queue then begin
              ignore (purge_expired st ~shard);
              Atomic.get st.acq_depth.(shard)
            end
            else depth
          in
          if depth >= st.cfg.max_queue then busy depth
          else begin
            let t = now () in
            let deadline =
              if deadline_ms > 0 then t +. (float_of_int deadline_ms /. 1000.)
              else infinity
            in
            c.inflight <- c.inflight + 1;
            enqueue_job st ~shard
              (Acquire_job
                 { conn = c.cid; id; client; token; deadline; admitted = t })
          end
        end)
    | Wire.Release { id; client = _; name } ->
      if Session.holds c.session name then begin
        (* The ledger entry goes now, not at completion: a second
           release of the same name racing the first must already see
           it gone, or it would free a re-acquired cell.  The lease and
           its journal record go with it. *)
        Session.note_released c.session name;
        release_lease st name;
        c.inflight <- c.inflight + 1;
        match Shard.shard_of_name st.pool name with
        | Some shard ->
          enqueue_job st ~shard
            (Release_job { conn = c.cid; id; name; drain = false })
        | None -> assert false (* ledger only ever holds granted names *)
      end
      else
        send_response st c
          (Wire.Error
             { id; op; code = Wire.err_not_held; msg = "name not held here" })
    | Wire.Renew { id; client = _ } ->
      st.renews <- st.renews + 1;
      let count = Lease.renew st.leases ~now:(now ()) ~holder:c.cid in
      send_response st c (Wire.Renewed { id; count })
    | Wire.Stats { id } ->
      send_response st c (Wire.Stats_reply { id; stats = stats_json st })
    | Wire.Shutdown { id } ->
      send_response st c (Wire.Shutting_down { id });
      stop st.handle

let handle_done st op =
  st.inflight_total <- st.inflight_total - 1;
  let find cid = Hashtbl.find_opt st.conns cid in
  let settle cid = settle_conn st cid in
  match op with
  | Did_acquire { conn; id; client; token; name; expired; waited_ms } -> (
    Overload.note_latency st.overload waited_ms;
    if expired then begin
      st.shed_expired <- st.shed_expired + 1;
      (match find conn with
      | Some c when not c.dead ->
        send_response st c
          (Wire.Error
             {
               id;
               op = Wire.Op_acquire;
               code = Wire.err_expired;
               msg = "deadline expired before execution";
             })
      | _ -> ())
    end
    else
    (match (find conn, name) with
    | Some c, Some name when not c.dead ->
      (* Write-ahead: the lease and its record are decided now, but the
         client sees [Acquired] only after [commit] has made the record
         durable, so an acknowledged name is always recovered. *)
      let epoch =
        Lease.grant st.leases ~now:(now ()) ~name ~holder:(Some c.cid) ~token
      in
      journal_push st (Journal.Grant { name; epoch; client; token });
      st.held <- { holder = c; id; name; epoch } :: st.held
    | _, Some name ->
      (* Granted to a connection that died while the job was in
         flight: never journaled, never leased — nobody will release
         it, so the server must. *)
      st.acquires <- st.acquires + 1;
      enqueue_drain_release st name
    | Some c, None when not c.dead ->
      send_response st c
        (Wire.Error
           {
             id;
             op = Wire.Op_acquire;
             code = Wire.err_capacity;
             msg = "namespace exhausted";
           })
    | _, None -> ());
    settle conn)
  | Did_release { conn; id; name = _; drain } ->
    st.releases <- st.releases + 1;
    if not drain then begin
      (match find conn with
      | Some c when not c.dead -> send_response st c (Wire.Released { id })
      | _ -> ());
      settle conn
    end

(* Group commit: one write + fsync for every record this pass decided,
   run after the pass's reads and outbox drain and before it writes a
   byte to any client.  Only then do the held grants become [Acquired].
   A failed batch aborts every grant in it: roll the lease back, return
   the slot, tell the client the truth.  Its releases and expiries are
   tolerated as lost — after recovery such a grant comes back as an
   orphan lease and expires one TTL later, a delay, never a double
   grant. *)
let commit st =
  let records = List.rev st.pending and grants = List.rev st.held in
  st.pending <- [];
  st.held <- [];
  let outcome =
    match (st.journal, records) with
    | None, _ | _, [] -> Ok ()
    | Some j, _ -> (
      try
        Journal.append_batch j records;
        st.journal_commits <- st.journal_commits + 1;
        st.journal_records <- st.journal_records + List.length records;
        Ok ()
      with
      | Engine.Io_fault.Injected m -> Error m
      | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | Sys_error m -> Error m)
  in
  match outcome with
  | Ok () ->
    List.iter
      (fun { holder = c; id; name; epoch = _ } ->
        st.acquires <- st.acquires + 1;
        if c.dead then begin
          (* The connection died after the grant was decided: nobody
             will release the name, so the server must. *)
          release_lease st name;
          enqueue_drain_release st name
        end
        else begin
          Session.note_acquired c.session name;
          send_response st c
            (Wire.Acquired { id; name; lease_ms = Lease.ttl_ms st.leases })
        end)
      grants
  | Error m ->
    st.cfg.log
      (Printf.sprintf
         "journal: batch of %d record(s) not recorded (%s); %d grant(s) \
          aborted, lease expiry reclaims its releases after recovery"
         (List.length records) m (List.length grants));
    List.iter
      (fun { holder = c; id; name; epoch } ->
        ignore (Lease.release st.leases ~name ~epoch);
        enqueue_auto_release st name;
        send_response st c
          (Wire.Error
             {
               id;
               op = Wire.Op_acquire;
               code = Wire.err_internal;
               msg = "journal append failed";
             }))
      grants

(* ------------------------------------------------------------------ *)
(* I/O *)

let on_readable st c =
  match Unix.read c.fd st.scratch 0 (Bytes.length st.scratch) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> disconnect st c
  | 0 -> disconnect st c
  | n -> (
    match Session.feed c.session ~buf:st.scratch ~len:n with
    | Ok reqs -> List.iter (handle_request st c) reqs
    | Error msg ->
      send_response st c
        (Wire.Error
           { id = 0; op = Wire.Op_acquire; code = Wire.err_proto; msg });
      c.closing <- true)

(* Everything queued for [c] goes out in one write.  Only a backlog
   past the 64 KiB one write takes, or a peer whose socket buffer
   takes less, costs more: the loop writes until the backlog is gone or
   the socket refuses (EAGAIN). *)
let on_writable st c =
  try
    let continue = ref true in
    while !continue do
      match Session.peek_out c.session with
      | None -> continue := false
      | Some (buf, off, len) ->
        st.socket_writes <- st.socket_writes + 1;
        (* repro-lint: allow journal-write — client socket, not a journal fd *)
        let n = Unix.single_write c.fd buf off len in
        Session.advance_out c.session n;
        if n > 0 then c.last_progress <- now () else continue := false
    done
  with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | Unix.Unix_error _ -> disconnect st c

let accept_ready st listen_fd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true listen_fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error (e, _, _) ->
      st.cfg.log (Printf.sprintf "accept: %s" (Unix.error_message e));
      continue := false
    | fd, _ ->
      if Hashtbl.length st.conns >= st.cfg.max_conns then begin
        st.cfg.log "accept: connection limit reached, refusing";
        close_fd fd
      end
      else begin
        Unix.set_nonblock fd;
        let cid = st.next_cid in
        st.next_cid <- cid + 1;
        st.conns_served <- st.conns_served + 1;
        let c =
          {
            fd;
            cid;
            session = Session.create ();
            inflight = 0;
            closing = false;
            dead = false;
            last_progress = now ();
          }
        in
        Hashtbl.replace st.conns cid c;
        Hashtbl.replace st.by_fd fd c
      end
  done

(* ------------------------------------------------------------------ *)
(* Startup: bind, reclaiming a stale socket file if the daemon behind
   it is gone (the failure mode `repro_cli doctor` audits). *)

let bind_socket cfg =
  let path = cfg.socket_path in
  let stale_or_error () =
    let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    let verdict =
      match Unix.connect probe (ADDR_UNIX path) with
      | () -> Error (Printf.sprintf "%s: a daemon is already serving" path)
      | exception Unix.Unix_error (ECONNREFUSED, _, _) -> Ok `Stale
      | exception Unix.Unix_error (ENOENT, _, _) -> Ok `Gone
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    in
    close_fd probe;
    verdict
  in
  let ready =
    match Unix.stat path with
    | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()
    | { st_kind = S_SOCK; _ } -> (
      match stale_or_error () with
      | Error _ as e -> e
      | Ok `Gone -> Ok ()
      | Ok `Stale ->
        cfg.log (Printf.sprintf "reclaiming stale socket file %s" path);
        Unix.unlink path;
        Ok ())
    | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
  in
  match ready with
  | Error _ as e -> e
  | Ok () -> (
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    match
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd cfg.backlog;
      Unix.set_nonblock fd
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      close_fd fd;
      Error (Printf.sprintf "bind %s: %s" path (Unix.error_message e)))

(* ------------------------------------------------------------------ *)
(* Journal recovery (before the socket exists: a daemon that will
   refuse to serve should never accept a connection). *)

let recover_journal cfg ~pool ~leases =
  match cfg.journal_path with
  | None -> Ok (None, 0)
  | Some path ->
    if not (Sys.file_exists path) then (
      match Journal.open_append ~path with
      | Ok j -> Ok (Some j, 0)
      | Error e -> Error e)
    else (
      match Journal.scan ~path with
      | Error e -> Error e
      | Ok s ->
        if s.Journal.damaged > 0 then
          Error
            (Printf.sprintf
               "journal %s: %d damaged record(s); refusing to serve from a \
                corrupt ledger (repro_cli doctor shows the damage)"
               path s.Journal.damaged)
        else begin
          if s.Journal.torn_tail then
            cfg.log
              (Printf.sprintf "journal %s: torn tail dropped (crash artifact)"
                 path);
          let live = Journal.replay s.Journal.records in
          let n = List.length live.Journal.grants in
          if n > 0 && not cfg.recover then
            Error
              (Printf.sprintf
                 "%s journal %s replays %d live grant(s); restart with \
                  --recover to re-occupy them"
                 recovery_required_prefix path n)
          else begin
            let restored = ref 0 in
            List.iter
              (fun (name, (epoch, _client, token)) ->
                match Shard.retake pool ~name with
                | `Taken ->
                  Lease.restore leases ~now:(now ()) ~name ~epoch ~token;
                  incr restored
                | `Already ->
                  cfg.log
                    (Printf.sprintf
                       "recovery: name %d doubly granted in the journal" name)
                | `Outside ->
                  cfg.log
                    (Printf.sprintf
                       "recovery: name %d outside the pool geometry \
                        (shards/capacity changed?)"
                       name))
              live.Journal.grants;
            Lease.set_next_epoch leases live.Journal.next_epoch;
            if live.Journal.double_grants > 0 then
              cfg.log
                (Printf.sprintf "recovery: replay counted %d double grant(s)"
                   live.Journal.double_grants);
            match Journal.rewrite ~path live.Journal.grants with
            | Error e -> Error e
            | Ok () -> (
              match Journal.open_append ~path with
              | Error e -> Error e
              | Ok j ->
                if !restored > 0 || s.Journal.torn_tail then
                  cfg.log
                    (Printf.sprintf
                       "recovered %d live grant(s) from %s (journal compacted)"
                       !restored path);
                Ok (Some j, !restored))
          end
        end)

(* ------------------------------------------------------------------ *)
(* The serving loop *)

let select_step st =
  let reads = ref [ st.wake_r ] in
  let writes = ref [] in
  (match (st.phase, st.listen_fd) with
  | Serving, Some fd when Hashtbl.length st.conns < st.cfg.max_conns ->
    reads := fd :: !reads
  | _ -> ());
  List.iter
    (fun c ->
      if not c.dead then begin
        (* Read-pausing backpressure: a peer whose outbound backlog is
           over the bound stops being read — it cannot submit more work
           until it drains what it already owes us. *)
        if
          st.phase = Serving && (not c.closing)
          && Session.out_bytes c.session <= st.cfg.max_out_bytes
        then reads := c.fd :: !reads;
        if out_pending c then writes := c.fd :: !writes
      end)
    (conn_list st);
  match Unix.select !reads !writes [] 0.1 with
  | exception Unix.Unix_error (EINTR, _, _) -> ([], [])
  | r, w, _ -> (r, w)

let run ?handle cfg =
  if cfg.shards < 1 then invalid_arg "Server.run: shards < 1";
  if cfg.capacity < 1 then invalid_arg "Server.run: capacity < 1";
  if cfg.max_queue < 1 then invalid_arg "Server.run: max_queue < 1";
  if cfg.max_out_bytes < 1 then invalid_arg "Server.run: max_out_bytes < 1";
  let handle = match handle with Some h -> h | None -> create_handle () in
  let pool =
    Shard.create ~shards:cfg.shards ~capacity:cfg.capacity ~seed:cfg.seed ()
  in
  let leases = Lease.create ~ttl_s:cfg.lease_ttl_s () in
  match recover_journal cfg ~pool ~leases with
  | Error _ as e -> e
  | Ok (journal, recovered) -> (
    let close_journal () =
      match journal with Some j -> Journal.close j | None -> ()
    in
    match bind_socket cfg with
    | Error _ as e ->
      close_journal ();
      e
    | Ok listen_fd ->
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      Atomic.set handle.wake (Some wake_w);
      let st =
        {
          cfg;
          pool;
          leases;
          journal;
          recovered;
          handle;
          workers = Array.init cfg.shards (fun _ -> Q.create ());
          outbox = Q.create ();
          wake_r;
          wake_w;
          conns = Hashtbl.create 64;
          by_fd = Hashtbl.create 64;
          started = now ();
          scratch = Bytes.create 65536;
          enc = Buffer.create 256;
          wake_pending = Atomic.make false;
          wakeups = Atomic.make 0;
          overload =
            Overload.create ?config:cfg.overload ~queue_bound:cfg.max_queue ();
          listen_fd = Some listen_fd;
          phase = Serving;
          next_cid = 0;
          inflight_total = 0;
          next_sweep = 0.;
          conns_served = 0;
          requests = 0;
          acquires = 0;
          releases = 0;
          errors = 0;
          drained_releases = 0;
          renews = 0;
          expired_leases = 0;
          dedup_hits = 0;
          shed_busy = 0;
          shed_expired = 0;
          stalled_conns = 0;
          queue_peak = 0;
          flush_deadline = 0.;
          pending = [];
          held = [];
          journal_commits = 0;
          journal_records = 0;
          socket_writes = 0;
          acq_depth = Array.init cfg.shards (fun _ -> Atomic.make 0);
        }
      in
      (* The only Domain.spawn outside lib/shm and the engine pool: the
         serving substrate owns its shard workers the same way the runner
         owns its domains.  They are joined on every exit path below. *)
      let domains =
        Array.init cfg.shards (fun i ->
            Domain.spawn (fun () -> worker_loop st i))
      in
      cfg.log
        (Printf.sprintf
           "serving on %s: %d shard(s), capacity %d, namespace %d, lease TTL \
            %.3fs%s"
           cfg.socket_path cfg.shards cfg.capacity (Shard.namespace pool)
           (Lease.ttl_s leases)
           (match cfg.journal_path with
           | Some p -> Printf.sprintf ", journal %s" p
           | None -> ""));
      let fd_conn fd = Hashtbl.find_opt st.by_fd fd in
      let close_listener () =
        match st.listen_fd with
        | None -> ()
        | Some fd ->
          st.listen_fd <- None;
          close_fd fd;
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
      in
      let running = ref true in
      while !running do
        let readable, writable = select_step st in
        (* Wake bytes carry no data; drain and discard.  Then re-arm the
           workers' poke before draining the outbox (see [complete]). *)
        if List.mem st.wake_r readable then (
          try
            while Unix.read st.wake_r st.scratch 0 512 > 0 do
              ()
            done
          with Unix.Unix_error _ -> ());
        Atomic.set st.wake_pending false;
        List.iter (handle_done st) (Q.drain st.outbox);
        (match st.listen_fd with
        | Some fd when List.mem fd readable -> accept_ready st fd
        | _ -> ());
        List.iter
          (fun fd ->
            if fd <> st.wake_r && Some fd <> st.listen_fd then
              match fd_conn fd with Some c -> on_readable st c | None -> ())
          readable;
        commit st;
        List.iter
          (fun fd ->
            match fd_conn fd with Some c -> on_writable st c | None -> ())
          writable;
        (* Connections asked to close (protocol corruption): flush, drop. *)
        List.iter
          (fun c ->
            if
              c.closing && (not c.dead)
              && (not (out_pending c))
              && c.inflight = 0
            then disconnect st c)
          (conn_list st);
        (* Slow-reader stall: over the outbound bound AND no byte has
           drained for stall_s — the peer is gone or wedged, so cut it
           loose (its ledger auto-releases through the drain path). *)
        (let t = now () in
         List.iter
           (fun c ->
             if
               (not c.dead)
               && Session.out_bytes c.session > st.cfg.max_out_bytes
               && t -. c.last_progress > st.cfg.stall_s
             then begin
               st.stalled_conns <- st.stalled_conns + 1;
               st.cfg.log
                 (Printf.sprintf
                    "conn %d stalled: %d unsent byte(s), no progress for \
                     %.1fs; disconnecting"
                    c.cid
                    (Session.out_bytes c.session)
                    (t -. c.last_progress));
               disconnect st c
             end)
           (conn_list st));
        (* Lease expiry sweep + overload machine tick *)
        (if st.phase = Serving then
           let t = now () in
           let depth = max_queue_depth st in
           st.queue_peak <- max st.queue_peak depth;
           ignore (Overload.observe st.overload ~now:t ~queue_depth:depth);
           if t >= st.next_sweep then begin
             sweep st t;
             st.next_sweep <- t +. sweep_period st
           end);
        (* Phase transitions *)
        (match st.phase with
        | Serving when stop_requested handle ->
          cfg.log "stop requested: draining in-flight jobs";
          close_listener ();
          st.phase <- Draining_jobs
        | Serving -> ()
        | Draining_jobs when st.inflight_total = 0 ->
          let drained = ref 0 in
          List.iter
            (fun c ->
              List.iter
                (fun name ->
                  Session.note_released c.session name;
                  release_lease st name;
                  enqueue_drain_release st name;
                  incr drained)
                (Session.held c.session))
            (conn_list st);
          (* Orphan leases (recovered grants nobody reclaimed) hold
             real cells but sit on no session ledger; release them too
             or the conservation check would call them a leak. *)
          List.iter
            (fun (name, epoch, _holder, _token) ->
              journal_push st (Journal.Release { name; epoch });
              enqueue_drain_release st name;
              incr drained)
            (Lease.expire_due st.leases ~now:infinity);
          cfg.log
            (Printf.sprintf "drained jobs; auto-releasing %d held name(s)"
               !drained);
          st.phase <- Draining_ledgers
        | Draining_jobs -> ()
        | Draining_ledgers when st.inflight_total = 0 ->
          st.phase <- Flushing;
          st.flush_deadline <- now () +. 5.
        | Draining_ledgers -> ()
        | Flushing ->
          let unflushed =
            List.exists (fun c -> (not c.dead) && out_pending c) (conn_list st)
          in
          if (not unflushed) || now () > st.flush_deadline then running := false);
        ()
      done;
      (* Teardown: commit what the last pass decided, close clients,
         stop workers, check slot conservation. *)
      commit st;
      List.iter (fun c -> if not c.dead then close_fd c.fd) (conn_list st);
      Hashtbl.reset st.conns;
      Hashtbl.reset st.by_fd;
      Array.iter (fun q -> Q.push q Quit) st.workers;
      Array.iter Domain.join domains;
      close_listener ();
      close_journal ();
      Atomic.set handle.wake None;
      close_fd wake_r;
      close_fd wake_w;
      let taken_at_exit = Shard.taken_count pool in
      if taken_at_exit <> 0 then
        cfg.log
          (Printf.sprintf "LEAK: %d cell(s) still taken at exit" taken_at_exit);
      Ok
        {
          conns_served = st.conns_served;
          requests = st.requests;
          acquires = st.acquires;
          releases = st.releases;
          errors = st.errors;
          drained_releases = st.drained_releases;
          renews = st.renews;
          expired_leases = st.expired_leases;
          dedup_hits = st.dedup_hits;
          recovered = st.recovered;
          shed_busy = st.shed_busy;
          shed_expired = st.shed_expired;
          stalled_conns = st.stalled_conns;
          queue_peak = st.queue_peak;
          taken_at_exit;
          wall_s = now () -. st.started;
        })

(* ------------------------------------------------------------------ *)
(* Embedding *)

type spawned = {
  sh : handle;
  dom : (report, string) result Domain.t;
}

let spawn ?handle cfg =
  let sh = match handle with Some h -> h | None -> create_handle () in
  { sh; dom = Domain.spawn (fun () -> run ~handle:sh cfg) }

let spawned_handle s = s.sh
let join s = Domain.join s.dom
