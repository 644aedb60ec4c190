(** The renaming daemon's serving loop.

    Architecture (the async-front-end-over-pure-core layering the
    frenetic exemplar uses, realized with what OCaml 5 + Unix give us):

    - {b One I/O domain} runs a [select] event loop over the
      Unix-domain listening socket, every client connection and a
      self-pipe.  It owns all sessions (framing + held-name ledgers),
      the lease table and the journal, and handles [stats]/[renew]/
      [shutdown] inline.
    - {b One worker domain per shard} owns that shard's
      {!Renaming.Long_lived} instance and executes acquires/releases
      against the shared {!Shm.Atomic_space} — the genuinely parallel
      part.  Jobs arrive on a per-worker queue; completions return on a
      shared outbox.

    Responses therefore complete out of order across shards; the wire
    protocol's request ids make that safe.

    {b One wake-up and one write per pass.}  However many requests a
    pass of the event loop carries, it costs at most one self-pipe poke
    and one socket write per connection:
    - {e one poke per drain}: a worker pokes the self-pipe only if no
      poke is pending since the loop last drained the outbox (an atomic
      [wake_pending] flag, set by the poking worker, cleared by the loop
      before each drain).  A completion that finds a poke pending is
      picked up by the drain that poke triggers;
    - {e one write per connection}: every reply a pass queues for a
      connection is appended to that connection's single outbound
      buffer ({!Session}), and the loop sends the whole unsent region
      with one [write] when the socket is writable.  Writes
      happen only after the pass's journal commit.

    {b Leases.}  Every grant carries a TTL ([lease_ttl_s]).  Clients
    keep their names with the [renew] heartbeat; the expiry sweep
    (at most every [max 10ms (ttl/10)]) reclaims names whose holders
    went silent while still connected, removing them from the holder's
    ledger so a late release is answered [err_not_held] instead of
    freeing a reissued cell.  Renew-vs-expiry races are settled by a
    monotonic lease epoch ({!Lease}).

    {b Journal.}  With [journal_path] set, every grant is journaled
    {e before} the client sees [Acquired] (write-ahead; a failed append
    aborts the grant with [err_internal]), and every release/expiry is
    journaled as it happens.  Records are group-committed: everything
    one pass of the event loop decides (grants completed by the
    workers, releases read from clients, expiries, drain releases) goes
    to disk as one {!Journal.append_batch} — one write and one [fsync]
    per pass, not per record.  Two invariants keep this as safe as a
    per-record fsync: file order equals decision order, so a name's
    [Release] always precedes the [Grant] that re-wins it and replay
    never sees a double grant; and the commit runs after the pass's
    reads and completions but before it writes any byte to a client,
    so no [Acquired] leaves before the fsync that covers its grant.  A
    failed commit aborts every grant in its batch, and whatever part of
    the batch reached the file is cut off again, so the daemon keeps
    serving on a journal that replays clean.  On restart the
    journal is replayed: live grants are re-occupied in the shard pool
    and restored as orphan leases keeping their epochs, so a
    [SIGKILL]-ed daemon never double-grants a name a client still
    holds.  Restarting over live grants without [recover] is refused
    (see {!recovery_refused}); a damaged journal (CRC/framing failure
    before the tail) is always refused.  Journaling costs one [fsync]
    per loop pass and is off by default.

    {b Overload.}  Admission is bounded end to end: each shard queue
    holds at most [max_queue] jobs (a full queue purges its
    already-expired acquires oldest-first, then refuses with
    {!Wire.Busy} + a [retry_after_ms] hint), workers drop
    deadline-expired work before touching the allocator
    ([err_expired]), slow readers are paused past [max_out_bytes] of
    unsent responses and disconnected after [stall_s] without
    progress, and an {!Overload} state machine (healthy -> degraded ->
    shedding, with hysteresis) short-circuits every new acquire to
    {!Wire.Busy} while shedding — releases, renews and stats always
    execute, so the system drains itself back to health.  All deadline
    arithmetic runs on the monotonic clock ({!Mono}).

    {b Stats.}  A [stats] request is answered inline with a
    [renamed-stats] JSON object: the shard pool's counters ([taken]
    and friends), lease and session holdings, request and shed
    counters, the overload snapshot, and the journal's group-commit
    counters [journal_commits] (batches made durable, one [fsync]
    each) and [journal_records] (records in them), whose ratio is the
    records per fsync of a live daemon.  Both stay 0 without a journal.
    Two syscall counters show what a request costs the I/O domain:
    [socket_writes] counts [write] calls on client sockets and
    [wakeups] counts self-pipe pokes by workers.  Divided by
    [requests], they read the writes and wake-ups per request of a live
    daemon, without [/proc]; under pipelined load both fall far below
    one.

    {b Graceful shutdown} ([SIGTERM]/[SIGINT] via {!stop}, or a client
    [shutdown] request): the loop stops accepting connections and new
    work (late requests get {!Wire.err_shutdown}), drains every
    in-flight job, auto-releases every name still on a session ledger
    or lease table (journaling the releases), flushes and closes, joins
    the workers, and finally checks the slot-conservation law: a clean
    exit has [taken_at_exit = 0] — the same leak accounting the chaos
    invariant monitor enforces. *)

type config = {
  socket_path : string;
  shards : int;  (** worker domains = allocator shards, >= 1 *)
  capacity : int;  (** concurrent holders per shard *)
  seed : int;
  backlog : int;  (** listen backlog *)
  max_conns : int;  (** accepted connections beyond this are refused *)
  lease_ttl_s : float;  (** grant TTL; renew or lose the name *)
  journal_path : string option;  (** crash-safe grant journal (off = None) *)
  recover : bool;  (** replay live journal grants instead of refusing *)
  max_queue : int;
      (** per-shard admission-queue bound: an acquire arriving at a
          full queue is first relieved by purging already-expired
          entries, then refused with {!Wire.Busy} *)
  max_out_bytes : int;
      (** per-connection outbound buffer bound: above it the peer's
          reads pause (backpressure) and the stall clock runs *)
  stall_s : float;
      (** a peer over the outbound bound that drains nothing for this
          long is disconnected; its ledger auto-releases *)
  overload : Overload.config option;
      (** overload state-machine thresholds
          ([None] = {!Overload.default_config} over [max_queue]) *)
  log : string -> unit;  (** operator log lines (renamed sends to stderr) *)
}

val default_config : socket_path:string -> config
(** 2 shards, capacity 4096, seed 1, backlog 64, max_conns 1024,
    lease TTL 30 s, no journal, no recover, max_queue 1024,
    max_out_bytes 256 KiB, stall 5 s, default overload thresholds,
    silent log. *)

type report = {
  conns_served : int;
  requests : int;
  acquires : int;
  releases : int;
  errors : int;  (** error responses sent *)
  drained_releases : int;
      (** names auto-released for dead connections and at shutdown *)
  renews : int;  (** renew requests served *)
  expired_leases : int;  (** names reclaimed by the expiry sweep *)
  dedup_hits : int;  (** acquires answered from a token's live lease *)
  recovered : int;  (** grants re-occupied from the journal at boot *)
  shed_busy : int;  (** acquires refused with {!Wire.Busy} at admission *)
  shed_expired : int;
      (** acquires dropped because their deadline passed before a
          worker reached them (purged from a full queue or checked at
          pickup); never executed *)
  stalled_conns : int;  (** slow readers disconnected past [stall_s] *)
  queue_peak : int;  (** deepest shard queue observed *)
  taken_at_exit : int;  (** slot-conservation residue; 0 on a clean exit *)
  wall_s : float;
}

val report_clean : report -> bool
(** [taken_at_exit = 0] — the daemon's exit-0 condition. *)

val recovery_refused : string -> bool
(** True of {!run}'s [Error] when a journal holds live grants and
    [recover] was false — the operator must rerun with [--recover]
    (renamed exits 2 on this, 1 on other startup failures). *)

type handle
(** Out-of-band stop control, safe to trigger from a signal handler
    (an [Atomic] flag plus a self-pipe write). *)

val create_handle : unit -> handle
val stop : handle -> unit
val stop_requested : handle -> bool

val run : ?handle:handle -> config -> (report, string) result
(** Bind, serve until {!stop} or a [shutdown] request, drain, and
    report.  [Error] covers startup failures only (socket in use by a
    live daemon, bind permission, journal damage, refused recovery);
    once serving, [run] always returns [Ok] with the drain report.  A
    stale socket file (no listener behind it) is reclaimed with a log
    note — the failure mode [repro_cli doctor] audits. *)

(** {1 Embedding} *)

type spawned
(** A server running on its own domain (tests, in-process tools). *)

val spawn : ?handle:handle -> config -> spawned
(** {!run} on a fresh domain.  Trigger the drain with {!stop} on
    {!spawned_handle} (or a [shutdown] request), then {!join}. *)

val spawned_handle : spawned -> handle

val join : spawned -> (report, string) result
(** Wait for the serving loop to finish and return {!run}'s result. *)
