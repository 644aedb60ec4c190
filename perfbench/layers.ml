(* In-process timings of the served path's sub-microsecond layers, on
   one domain, outside the daemon: [Service.Shard], [Service.Wire] and
   [Service.Journal].  Shard and wire calls are timed per batch, since a
   clock read per call would cost more than the call. *)

let batch = 10_000

(* Closed-loop geometry: 2 connections x 16 in flight hold at most 32
   names of one shard with the daemon's capacity. *)
let occupancy = 32

(* Acquire a fresh name, release the oldest: returns ns per
   acquire+release, minor words per op, probes per acquire. *)
let shard ~spans ~seed ~seconds =
  let layer = Spans.layer spans "shard.batch" in
  let open Service in
  let t = Shard.create ~shards:1 ~capacity:4096 ~seed () in
  let take () =
    match Shard.acquire t ~shard:0 ~client:0 with
    | Some n -> n
    | None -> failwith "shard: namespace exhausted"
  in
  let ring = Array.init occupancy (fun _ -> take ()) in
  let a0 = Shard.acquires t and p0 = Shard.probes t in
  let ops = ref 0 and ns = ref 0 in
  let w0 = Gc.minor_words () in
  let deadline = Util.now () +. seconds in
  while Util.now () < deadline do
    let t0 = Util.now_ns () in
    for i = !ops to !ops + batch - 1 do
      let slot = i land (occupancy - 1) in
      let fresh = take () in
      Shard.release t ~name:ring.(slot);
      ring.(slot) <- fresh
    done;
    let t1 = Util.now_ns () in
    Spans.record spans ~layer ~id:(-1) ~t0 ~t1 ~calls:batch;
    ns := !ns + (t1 - t0);
    ops := !ops + batch
  done;
  let words = Gc.minor_words () -. w0 in
  let probes = float_of_int (Shard.probes t - p0) /. float_of_int (Shard.acquires t - a0) in
  Array.iter (fun name -> Shard.release t ~name) ring;
  if Shard.taken_count t <> 0 then failwith "shard: cells still taken after releasing every name";
  ( float_of_int !ns /. float_of_int !ops,
    words /. float_of_int !ops,
    probes )

(* Encode and decode, in binary mode, the four frames of one
   acquire -> release cycle.  Returns ns per cycle and bytes per cycle. *)
let wire ~spans ~seconds =
  let layer = Spans.layer spans "wire.batch" in
  let open Service.Wire in
  let b = Buffer.create 64 and bytes = Bytes.create 256 in
  let frame_bytes = ref 0 in
  let stage () =
    let len = Buffer.length b in
    Buffer.blit b 0 bytes 0 len;
    frame_bytes := !frame_bytes + len;
    len
  in
  let req r =
    Buffer.clear b;
    encode_request Binary b r;
    let len = stage () in
    match decode_request Binary bytes ~pos:0 ~len with
    | Frame (r', _) when request_id r' = request_id r -> ()
    | _ -> failwith "wire: request did not round-trip"
  in
  let resp r =
    Buffer.clear b;
    encode_response Binary b r;
    let len = stage () in
    match decode_response Binary bytes ~pos:0 ~len with
    | Frame (r', _) when response_id r' = response_id r -> ()
    | _ -> failwith "wire: response did not round-trip"
  in
  let ops = ref 0 and ns = ref 0 in
  let deadline = Util.now () +. seconds in
  while Util.now () < deadline do
    frame_bytes := 0;
    let t0 = Util.now_ns () in
    for i = !ops to !ops + batch - 1 do
      let id = i land 0xffffff and name = i land 4095 in
      req (Acquire { id; client = i land 63; token = 0; deadline_ms = 0 });
      resp (Acquired { id; name; lease_ms = 30_000 });
      req (Release { id = id + 1; client = i land 63; name });
      resp (Released { id = id + 1 })
    done;
    let t1 = Util.now_ns () in
    Spans.record spans ~layer ~id:(-1) ~t0 ~t1 ~calls:batch;
    ns := !ns + (t1 - t0);
    ops := !ops + batch
  done;
  (float_of_int !ns /. float_of_int !ops, float_of_int !frame_bytes /. float_of_int batch)

(* [Journal.append] (write + fsync) on a temporary file with the daemon's
   record mix: one grant and one release per acquire cycle.  Each
   append is slow enough to time on its own.  Returns microseconds per
   append. *)
let journal_append ~spans ~dir ~seconds =
  let layer = Spans.layer spans "journal.append" in
  let open Service.Journal in
  let path = Filename.concat dir "append.journal" in
  Util.remove_if_exists path;
  let j = match open_append ~path with Ok j -> j | Error e -> failwith e in
  let n = ref 0 and ns = ref 0 in
  let deadline = Util.now () +. seconds in
  while !n < 20 || Util.now () < deadline do
    let name = !n / 2 land 4095 and epoch = (!n / 2) + 1 in
    let r =
      if !n land 1 = 0 then Grant { name; epoch; client = 5; token = 0 }
      else Release { name; epoch }
    in
    let t0 = Util.now_ns () in
    append j r;
    let t1 = Util.now_ns () in
    Spans.record spans ~layer ~id:(-1) ~t0 ~t1 ~calls:1;
    ns := !ns + (t1 - t0);
    incr n
  done;
  close j;
  Util.remove_if_exists path;
  float_of_int !ns /. float_of_int !n /. 1000.
