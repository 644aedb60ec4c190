(* A byte FIFO over one growable buffer: the live bytes are
   [bytes.[start, fill)].  The inbound side keeps bytes waiting for the
   rest of their frame, the outbound side encoded responses waiting for
   the peer. *)
type window = {
  mutable bytes : Bytes.t;
  mutable start : int;  (* first live byte *)
  mutable fill : int;  (* one past the last live byte *)
}

let window n = { bytes = Bytes.create n; start = 0; fill = 0 }
let live w = w.fill - w.start

(* Make room for [extra] bytes at [fill]: compact the live region to the
   front, growing the backing store only when compaction is not
   enough. *)
let reserve w extra =
  let live = live w in
  if w.fill + extra > Bytes.length w.bytes then begin
    let needed = live + extra in
    let target =
      if needed <= Bytes.length w.bytes then Bytes.length w.bytes
      else
        let n = ref (Bytes.length w.bytes) in
        while !n < needed do
          n := !n * 2
        done;
        !n
    in
    let dst =
      if target = Bytes.length w.bytes then w.bytes else Bytes.create target
    in
    Bytes.blit w.bytes w.start dst 0 live;
    w.bytes <- dst;
    w.start <- 0;
    w.fill <- live
  end

(* Both windows start at this size.  The inbound live region is bounded
   by max_frame + header, so it never grows far; the outbound one grows
   with a slow reader's backlog and shrinks back once it drains. *)
let initial_size = 4096

type t = {
  mutable mode : Wire.mode option;
  inb : window;
  out : window;
  mutable corrupt : string option;
  held : (int, unit) Hashtbl.t;
}

let create () =
  {
    mode = None;
    inb = window initial_size;
    out = window initial_size;
    corrupt = None;
    held = Hashtbl.create 16;
  }

let mode t = t.mode
let buffered t = live t.inb

let feed t ~buf ~len =
  match t.corrupt with
  | Some msg -> Result.Error msg
  | None ->
    let w = t.inb in
    if len > 0 then begin
      reserve w len;
      Bytes.blit buf 0 w.bytes w.fill len;
      w.fill <- w.fill + len
    end;
    if t.mode = None && w.fill > w.start then
      t.mode <-
        Some (if Bytes.get w.bytes w.start = '{' then Wire.Json else Wire.Binary);
    let out = ref [] in
    let err = ref None in
    (match t.mode with
    | None -> ()
    | Some mode ->
      let continue = ref true in
      while !continue do
        match
          Wire.decode_request mode w.bytes ~pos:w.start ~len:(live w)
        with
        | Wire.Frame (r, consumed) ->
          w.start <- w.start + consumed;
          out := r :: !out
        | Wire.Need_more -> continue := false
        | Wire.Corrupt msg ->
          t.corrupt <- Some msg;
          err := Some msg;
          continue := false
      done);
    (match !err with
    | Some msg -> Result.Error msg
    | None ->
      if w.start = w.fill then begin
        w.start <- 0;
        w.fill <- 0
      end;
      Result.Ok (List.rev !out))

(* Outbound buffering lives with the session so the server can account
   for a slow reader's backlog in one place: [out_bytes] is the number
   the backpressure policy compares against its bound.  Every response
   a pass queues lands in one contiguous region, so the server sends
   them all with one write. *)

let append_out t b =
  let n = Buffer.length b in
  if n > 0 then begin
    let w = t.out in
    reserve w n;
    Buffer.blit b 0 w.bytes w.fill n;
    w.fill <- w.fill + n
  end

let out_pending t = live t.out > 0
let out_bytes t = live t.out

let peek_out t =
  let w = t.out in
  if live w = 0 then None else Some (w.bytes, w.start, live w)

(* Rewind an empty outbound window, returning a backing store a slow
   reader grew to its initial size: otherwise every connection would
   keep its high-water mark for life. *)
let reset_out w =
  w.start <- 0;
  w.fill <- 0;
  if Bytes.length w.bytes > initial_size then w.bytes <- Bytes.create initial_size

let advance_out t n =
  let w = t.out in
  if n < 0 then invalid_arg "Session.advance_out: negative";
  if n > live w then invalid_arg "Session.advance_out: past the unsent bytes";
  w.start <- w.start + n;
  if w.start = w.fill then reset_out w

let clear_out t = reset_out t.out
let out_capacity t = Bytes.length t.out.bytes

let note_acquired t name = Hashtbl.replace t.held name ()
let note_released t name = Hashtbl.remove t.held name
let holds t name = Hashtbl.mem t.held name
let held t = Hashtbl.to_seq_keys t.held |> List.of_seq
let held_count t = Hashtbl.length t.held
