(** The daemon's crash-safe grant journal.

    An append-only binary file recording every lease event the server
    acknowledges: [Grant] before the client ever sees [Acquired]
    (write-ahead — an acknowledged grant is always recoverable),
    [Release] before the slot returns to the pool, [Expire] when the
    sweep reclaims a silent holder.  Replaying the file reproduces the
    set of live grants, so a [SIGKILL]-ed daemon restarts without ever
    double-granting a name some client still holds.

    {b Framing.}  Each record is [u32 length | u32 CRC-32 | payload],
    big-endian.  Records are appended in batches ({e group commit}):
    {!append_batch} frames a whole batch into one buffer and writes it
    as one {!Engine.Io_fault.guarded_write} (the same injectable
    write/fsync discipline the engine's stores are tested under)
    followed by one [fsync].  A crash mid-append therefore leaves a
    clean prefix of the batch and at most one torn record, only at the
    tail; {!scan} tolerates it.  A failed append the process survives
    leaves nothing: the batch is cut off again (see {!append_batch}).
    A CRC mismatch on a {e complete} record is real damage — recovery
    refuses it, [repro_cli doctor] reports it.

    {b Batch contract.}  The server collects every record one pass of
    its event loop decides and commits them together, before that
    pass writes a byte to any client.  Two invariants make this as safe
    as one fsync per record:
    - file order equals decision order, so the [Release] of a name
      always precedes the [Grant] that re-wins it and replay never sees
      a double grant;
    - no reply that depends on a record (an [Acquired]) leaves before
      the fsync covering that record has returned.

    {b Compaction} happens at boot: after a successful replay the file
    is rewritten to just the live grants (atomically, via rename), so
    the journal's size tracks held names, not operation history. *)

type record =
  | Grant of { name : int; epoch : int; client : int; token : int }
  | Release of { name : int; epoch : int }
  | Expire of { name : int; epoch : int }

type t
(** an open journal, append position at end-of-file *)

val open_append : path:string -> (t, string) result
(** Open (creating if absent) for appending. *)

val append_batch : t -> record list -> unit
(** Frame every record, in list order, into a buffer owned by [t]
    (reused across batches), then one write, flush and [fsync].  The
    empty batch touches nothing.  @raise Engine.Io_fault.Injected
    under an armed fault; @raise Sys_error/[Unix.Unix_error] on real
    I/O failure.  Either way no record of the batch may be treated as
    durable.  Before re-raising, the file is truncated back to the end
    of the last durable batch ([t] tracks that offset), so a prefix the
    failed write left behind (a short write, or a whole batch whose
    [fsync] failed) is gone and the next batch follows the durable ones
    directly: a daemon that survives a failed batch keeps a journal
    that {!scan}s with no damage and no torn tail.  If the truncation
    itself fails, the next {!append_batch} retries it first and raises
    rather than append after torn bytes.  Only a process killed
    mid-write leaves a torn tail.  The caller decides policy: a failed
    batch must abort its [Grant]s, while its [Release]/[Expire] records
    are lost (the stale grant is reclaimed by lease expiry after
    recovery). *)

val append : t -> record -> unit
(** [append t r] is [append_batch t [r]]. *)

val close : t -> unit

(** {1 Reading} *)

type scan = {
  records : record list;  (** every intact record, in file order *)
  torn_tail : bool;  (** incomplete final record (crash artifact) *)
  damaged : int;  (** complete records failing CRC or framing — real damage *)
  bytes : int;  (** file size *)
}

val scan : path:string -> (scan, string) result
(** [Error] only if the file cannot be read at all. *)

type live = {
  grants : (int * (int * int * int)) list;
      (** [(name, (epoch, client, token))], sorted by name *)
  next_epoch : int;  (** max journaled epoch + 1 *)
  double_grants : int;
      (** [Grant] records for an already-live name — must be zero; the
          kill/restart soak's duplicate-grant assertion *)
  stale_releases : int;
      (** [Release]/[Expire] whose epoch missed the live lease *)
}

val replay : record list -> live

val rewrite : path:string -> (int * (int * int * int)) list -> (unit, string) result
(** Atomically replace the journal with one [Grant] per live entry
    (write to a temp file, [fsync], rename) — boot-time compaction. *)
