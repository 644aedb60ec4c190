(** Per-connection protocol state.

    A session owns the connection's read buffer and framing mode and
    turns an arbitrary byte-stream chop (partial reads, several frames
    per read, frames split across reads) into whole {!Wire.request}s.
    It also keeps the connection's {e held-name ledger}: every name the
    server has granted this connection and not yet seen released.  The
    ledger is what makes release validation ([err_not_held]) and
    crash/shutdown cleanup possible — when a connection dies, exactly
    the names on its ledger are returned to the pool, so a misbehaving
    client cannot leak slots.

    The first byte of the connection selects the mode: ['{'] is a JSON
    session, anything else binary (see {!Wire.mode}). *)

type t

val create : unit -> t

val mode : t -> Wire.mode option
(** [None] until the first byte arrives. *)

val feed : t -> buf:Bytes.t -> len:int -> (Wire.request list, string) result
(** [feed t ~buf ~len] appends [buf.[0, len)] to the session buffer and
    drains every complete frame, in order.  [Error] means the stream is
    corrupt (bad framing, oversized frame, invalid JSON) and the
    connection must be closed; a session never recovers from [Error]. *)

val buffered : t -> int
(** Bytes waiting for the rest of their frame (tests/diagnostics). *)

(** {1 Outbound buffer}

    Encoded responses waiting for the peer to drain them, kept as one
    contiguous byte region per connection (a growable buffer with start
    and fill offsets, compacted on append like the inbound side).
    Everything the server queues in one pass of its event loop is
    therefore sent with a single [write], however many responses it
    holds.  The buffer starts at 4 KiB; a slow reader's backlog grows it
    by doubling, and once the backlog drains it returns to 4 KiB, so a
    connection never keeps its high-water mark.

    The region itself is unbounded — the {e server} enforces the bound
    by reading {!out_bytes} and pausing reads / disconnecting past its
    limits (backpressure policy is the server's job; byte accounting is
    the session's). *)

val append_out : t -> Buffer.t -> unit
(** Append the buffer's contents to the unsent region (the buffer is
    copied, not kept: the caller may clear and reuse it). *)

val out_pending : t -> bool
val out_bytes : t -> int
(** Unsent bytes — the backpressure signal. *)

val peek_out : t -> (Bytes.t * int * int) option
(** [Some (buf, off, len)]: every unsent byte, as [buf.[off, off+len)].
    The bytes are the session's own and are valid only until the next
    {!append_out}, {!advance_out} or {!clear_out}. *)

val advance_out : t -> int -> unit
(** Consume the first [n] unsent bytes ([0 <= n <= out_bytes]). *)

val clear_out : t -> unit
(** Drop everything unsent (connection teardown). *)

val out_capacity : t -> int
(** Size of the outbound backing store (tests/diagnostics). *)

(** {1 Held-name ledger} *)

val note_acquired : t -> int -> unit
val note_released : t -> int -> unit
val holds : t -> int -> bool
val held : t -> int list
(** Names currently held, in no particular order. *)

val held_count : t -> int
