(* The renaming service: wire codec (round-trip + adversarial
   truncation), session framing, the sharded allocator, the HDR latency
   histogram, the bench artifact, and end-to-end daemon behavior
   (sync ops, JSON fallback, graceful SIGTERM drain, open-loop load). *)

open Service

(* ------------------------------------------------------------------ *)
(* Codec helpers and generators *)

let encode_req mode r =
  let b = Buffer.create 64 in
  Wire.encode_request mode b r;
  Buffer.contents b

let encode_resp mode r =
  let b = Buffer.create 64 in
  Wire.encode_response mode b r;
  Buffer.contents b

let decode_req mode s =
  Wire.decode_request mode (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let decode_resp mode s =
  Wire.decode_response mode (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let show_req = function
  | Wire.Acquire { id; client; token; deadline_ms } ->
    Printf.sprintf "Acquire{id=%d;client=%d;token=%d;deadline_ms=%d}" id
      client token deadline_ms
  | Wire.Release { id; client; name } ->
    Printf.sprintf "Release{id=%d;client=%d;name=%d}" id client name
  | Wire.Renew { id; client } -> Printf.sprintf "Renew{id=%d;client=%d}" id client
  | Wire.Stats { id } -> Printf.sprintf "Stats{id=%d}" id
  | Wire.Shutdown { id } -> Printf.sprintf "Shutdown{id=%d}" id

let show_resp = function
  | Wire.Acquired { id; name; lease_ms } ->
    Printf.sprintf "Acquired{id=%d;name=%d;lease_ms=%d}" id name lease_ms
  | Wire.Released { id } -> Printf.sprintf "Released{id=%d}" id
  | Wire.Renewed { id; count } -> Printf.sprintf "Renewed{id=%d;count=%d}" id count
  | Wire.Stats_reply { id; stats } ->
    Printf.sprintf "Stats_reply{id=%d;stats=%s}" id (Jsonu.to_string stats)
  | Wire.Shutting_down { id } -> Printf.sprintf "Shutting_down{id=%d}" id
  | Wire.Error { id; op; code; msg } ->
    Printf.sprintf "Error{id=%d;op=%s;code=%d;msg=%S}" id (Wire.op_string op)
      code msg
  | Wire.Busy { id; op; retry_after_ms } ->
    Printf.sprintf "Busy{id=%d;op=%s;retry_after_ms=%d}" id
      (Wire.op_string op) retry_after_ms

let u32_gen = QCheck.Gen.int_range 0 ((1 lsl 32) - 1)

let req_gen =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun ((id, client), (token, deadline_ms)) ->
          Wire.Acquire { id; client; token; deadline_ms })
        (pair (pair u32_gen u32_gen) (pair u32_gen u32_gen));
      map3
        (fun id client name -> Wire.Release { id; client; name })
        u32_gen u32_gen u32_gen;
      map2 (fun id client -> Wire.Renew { id; client }) u32_gen u32_gen;
      map (fun id -> Wire.Stats { id }) u32_gen;
      map (fun id -> Wire.Shutdown { id }) u32_gen;
    ]

let msg_gen =
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 80))

let op_gen =
  QCheck.Gen.oneofl
    [
      Wire.Op_acquire; Wire.Op_release; Wire.Op_renew; Wire.Op_stats;
      Wire.Op_shutdown;
    ]

let resp_gen =
  let open QCheck.Gen in
  oneof
    [
      map3
        (fun id name lease_ms -> Wire.Acquired { id; name; lease_ms })
        u32_gen u32_gen u32_gen;
      map (fun id -> Wire.Released { id }) u32_gen;
      map2 (fun id count -> Wire.Renewed { id; count }) u32_gen u32_gen;
      map2
        (fun id taken ->
          Wire.Stats_reply
            { id; stats = Jsonu.Obj [ ("taken", Jsonu.Int taken) ] })
        u32_gen (int_range 0 1000);
      map (fun id -> Wire.Shutting_down { id }) u32_gen;
      map (fun ((id, op), (code, msg)) -> Wire.Error { id; op; code; msg })
        (pair (pair u32_gen op_gen) (pair (int_range 0 255) msg_gen));
      map
        (fun ((id, op), retry_after_ms) ->
          Wire.Busy { id; op; retry_after_ms })
        (pair (pair u32_gen op_gen) u32_gen);
    ]

let req_arb = QCheck.make ~print:show_req req_gen
let resp_arb = QCheck.make ~print:show_resp resp_gen
let mode_arb = QCheck.make (QCheck.Gen.oneofl [ Wire.Binary; Wire.Json ])

(* ------------------------------------------------------------------ *)
(* Wire: round-trips *)

let qcheck_req_roundtrip =
  QCheck.Test.make ~name:"request round-trips in both modes" ~count:500
    (QCheck.pair mode_arb req_arb)
    (fun (mode, r) ->
      let s = encode_req mode r in
      match decode_req mode s with
      | Wire.Frame (r', consumed) -> r' = r && consumed = String.length s
      | _ -> false)

let qcheck_resp_roundtrip =
  QCheck.Test.make ~name:"response round-trips in both modes" ~count:500
    (QCheck.pair mode_arb resp_arb)
    (fun (mode, r) ->
      let s = encode_resp mode r in
      match decode_resp mode s with
      | Wire.Frame (r', consumed) -> r' = r && consumed = String.length s
      | _ -> false)

(* Every strict prefix of a valid frame must yield Need_more: a partial
   read is normal, never corruption. *)
let qcheck_req_truncation =
  QCheck.Test.make ~name:"every strict request prefix is Need_more" ~count:200
    (QCheck.pair mode_arb req_arb)
    (fun (mode, r) ->
      let s = encode_req mode r in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        match decode_req mode (String.sub s 0 cut) with
        | Wire.Need_more -> ()
        | _ -> ok := false
      done;
      !ok)

let qcheck_resp_truncation =
  QCheck.Test.make ~name:"every strict response prefix is Need_more" ~count:200
    (QCheck.pair mode_arb resp_arb)
    (fun (mode, r) ->
      let s = encode_resp mode r in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        match decode_resp mode (String.sub s 0 cut) with
        | Wire.Need_more -> ()
        | _ -> ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Wire: adversarial input *)

let corrupt = function Wire.Corrupt _ -> true | _ -> false

let test_oversized_binary () =
  (* A length prefix beyond max_frame must be rejected before any
     allocation, even though the payload never arrives. *)
  let b = Buffer.create 8 in
  Buffer.add_string b "\x00\x01\x00\x01";
  (* 65537 *)
  Alcotest.(check bool)
    "oversized length prefix is Corrupt" true
    (corrupt (decode_req Wire.Binary (Buffer.contents b)));
  Alcotest.(check bool)
    "oversized response prefix is Corrupt" true
    (corrupt (decode_resp Wire.Binary (Buffer.contents b)))

let test_oversized_json () =
  let line = String.make (Wire.max_frame + 10) 'x' in
  Alcotest.(check bool)
    "overlong JSON line without newline is Corrupt" true
    (corrupt (decode_req Wire.Json line))

let test_unknown_opcode () =
  let b = Buffer.create 16 in
  Buffer.add_string b "\x00\x00\x00\x05";
  Buffer.add_string b "\x09\x00\x00\x00\x01";
  Alcotest.(check bool)
    "unknown opcode is Corrupt" true
    (corrupt (decode_req Wire.Binary (Buffer.contents b)))

let test_bad_payload_length () =
  (* Valid opcode (acquire = 1) but a stats-sized payload. *)
  let b = Buffer.create 16 in
  Buffer.add_string b "\x00\x00\x00\x05";
  Buffer.add_string b "\x01\x00\x00\x00\x01";
  Alcotest.(check bool)
    "wrong payload length for opcode is Corrupt" true
    (corrupt (decode_req Wire.Binary (Buffer.contents b)));
  Alcotest.(check bool)
    "empty frame is Corrupt" true
    (corrupt (decode_req Wire.Binary "\x00\x00\x00\x00"))

let test_bad_json_line () =
  Alcotest.(check bool)
    "non-JSON line is Corrupt" true
    (corrupt (decode_req Wire.Json "not json at all\n"));
  Alcotest.(check bool)
    "JSON with unknown op is Corrupt" true
    (corrupt (decode_req Wire.Json "{\"id\":1,\"op\":\"frobnicate\"}\n"));
  Alcotest.(check bool)
    "JSON with missing field is Corrupt" true
    (corrupt (decode_req Wire.Json "{\"op\":\"acquire\"}\n"))

(* ------------------------------------------------------------------ *)
(* Session: framing over arbitrary byte chops *)

let feed_string sess s =
  Session.feed sess ~buf:(Bytes.of_string s) ~len:(String.length s)

let reqs_equal = Alcotest.(check (list string))

let test_session_byte_at_a_time mode () =
  let reqs =
    [
      Wire.Acquire { id = 1; client = 7; token = 0; deadline_ms = 0 };
      Wire.Release { id = 2; client = 7; name = 42 };
      Wire.Renew { id = 3; client = 7 };
      Wire.Stats { id = 4 };
      Wire.Shutdown { id = 5 };
    ]
  in
  let stream = String.concat "" (List.map (encode_req mode) reqs) in
  let sess = Session.create () in
  let out = ref [] in
  String.iter
    (fun c ->
      match feed_string sess (String.make 1 c) with
      | Ok rs -> out := !out @ rs
      | Error e -> Alcotest.failf "unexpected corruption: %s" e)
    stream;
  reqs_equal "all frames recovered byte-at-a-time"
    (List.map show_req reqs)
    (List.map show_req !out);
  Alcotest.(check int) "no residue buffered" 0 (Session.buffered sess)

let test_session_many_per_feed () =
  let reqs =
    List.init 50 (fun i ->
        Wire.Acquire { id = i; client = i; token = 0; deadline_ms = 0 })
  in
  let stream = String.concat "" (List.map (encode_req Wire.Binary) reqs) in
  let sess = Session.create () in
  match feed_string sess stream with
  | Error e -> Alcotest.failf "unexpected corruption: %s" e
  | Ok rs ->
    reqs_equal "one feed drains every complete frame"
      (List.map show_req reqs) (List.map show_req rs)

let test_session_mode_detection () =
  let s1 = Session.create () in
  ignore (feed_string s1 (encode_req Wire.Binary (Wire.Stats { id = 1 })));
  Alcotest.(check bool)
    "binary first byte selects Binary" true
    (Session.mode s1 = Some Wire.Binary);
  let s2 = Session.create () in
  ignore (feed_string s2 "{");
  Alcotest.(check bool)
    "'{' selects Json" true
    (Session.mode s2 = Some Wire.Json)

let test_session_corrupt_latch () =
  let sess = Session.create () in
  (match feed_string sess "\x00\x01\x00\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* Once corrupt, always corrupt — even for bytes that would parse. *)
  match feed_string sess (encode_req Wire.Binary (Wire.Stats { id = 1 })) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "session recovered from corruption"

let test_session_ledger () =
  let sess = Session.create () in
  Session.note_acquired sess 5;
  Session.note_acquired sess 9;
  Alcotest.(check bool) "holds 5" true (Session.holds sess 5);
  Alcotest.(check int) "held count" 2 (Session.held_count sess);
  Session.note_released sess 5;
  Alcotest.(check bool) "5 released" false (Session.holds sess 5);
  Alcotest.(check (list int)) "ledger content" [ 9 ] (Session.held sess)

(* The outbound buffer: one contiguous unsent region whose size is
   [out_bytes] after every step, whatever mix of appends and partial
   writes produced it. *)
let test_session_outbound () =
  let sess = Session.create () in
  let b = Buffer.create 64 in
  let expect = Buffer.create 64 in
  let check what =
    Alcotest.(check int) (what ^ ": out_bytes") (Buffer.length expect)
      (Session.out_bytes sess);
    Alcotest.(check bool) (what ^ ": out_pending")
      (Buffer.length expect > 0) (Session.out_pending sess);
    match Session.peek_out sess with
    | None -> Alcotest.(check int) (what ^ ": nothing unsent") 0 (Buffer.length expect)
    | Some (buf, off, len) ->
      Alcotest.(check string) (what ^ ": the unsent region")
        (Buffer.contents expect) (Bytes.sub_string buf off len)
  in
  let append s =
    Buffer.clear b;
    Buffer.add_string b s;
    Session.append_out sess b;
    Buffer.add_string expect s
  in
  let advance n =
    Session.advance_out sess n;
    let rest = Buffer.sub expect n (Buffer.length expect - n) in
    Buffer.clear expect;
    Buffer.add_string expect rest
  in
  let initial = Session.out_capacity sess in
  check "fresh";
  Buffer.clear b;
  Session.append_out sess b;
  check "empty append";
  (* Interleaved appends and partial writes. *)
  append "alpha";
  append "beta";
  check "two appends";
  advance 3;
  check "partial write inside the first response";
  append "gamma";
  advance 4;
  check "partial write across a response boundary";
  advance 0;
  check "zero-byte write";
  (* Compaction: the unsent region moves to the front instead of the
     buffer growing, while it still fits. *)
  append (String.make (initial - 20) 'x');
  advance (initial - 30);
  append (String.make 100 'y');
  check "append past the end compacts";
  Alcotest.(check int) "compaction did not grow the buffer" initial
    (Session.out_capacity sess);
  (* A slow reader's backlog grows the buffer past its initial size... *)
  for i = 1 to 10 do
    append (String.make 1000 (Char.chr (Char.code 'a' + i)))
  done;
  check "backlog past the initial size";
  Alcotest.(check bool) "grown past the initial size" true
    (Session.out_capacity sess > initial);
  advance 5000;
  check "partial drain keeps the rest";
  Alcotest.(check bool) "still grown while bytes are unsent" true
    (Session.out_capacity sess > initial);
  (* ...and returns it to that size once it drains. *)
  advance (Session.out_bytes sess);
  check "drained";
  Alcotest.(check int) "shrunk back after the drain" initial
    (Session.out_capacity sess);
  append "after";
  check "usable after the shrink";
  for _ = 1 to 3 do
    append (String.make 3000 'z')
  done;
  Session.clear_out sess;
  Buffer.clear expect;
  check "clear_out drops everything";
  Alcotest.(check int) "clear_out shrinks too" initial
    (Session.out_capacity sess);
  Alcotest.check_raises "advance past the unsent bytes"
    (Invalid_argument "Session.advance_out: past the unsent bytes")
    (fun () -> Session.advance_out sess 1)

(* ------------------------------------------------------------------ *)
(* Hdr histogram *)

let qcheck_hdr_relative_error =
  QCheck.Test.make ~name:"hdr quantile error is within 1/64" ~count:500
    QCheck.(int_range 0 (1 lsl 40))
    (fun v ->
      let h = Stats.Hdr.create () in
      Stats.Hdr.record h v;
      let q = Stats.Hdr.quantile h 1.0 in
      q >= v && float_of_int q <= (float_of_int v *. (1. +. (1. /. 64.))) +. 1.)

let qcheck_hdr_quantiles_ordered =
  QCheck.Test.make ~name:"hdr quantiles are monotone" ~count:100
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 1_000_000)))
    (fun (_, vs) ->
      let h = Stats.Hdr.create () in
      List.iter (Stats.Hdr.record h) vs;
      let q = Stats.Hdr.quantile h in
      q 0.5 <= q 0.99 && q 0.99 <= q 0.999 && q 0.999 <= q 1.0)

let test_hdr_exact () =
  let h = Stats.Hdr.create () in
  for v = 1 to 1000 do
    Stats.Hdr.record h v
  done;
  Alcotest.(check int) "count" 1000 (Stats.Hdr.count h);
  Alcotest.(check int) "min" 1 (Stats.Hdr.min_value h);
  Alcotest.(check int) "max" 1000 (Stats.Hdr.max_value h);
  Alcotest.(check (float 0.001)) "mean" 500.5 (Stats.Hdr.mean h);
  let p50 = Stats.Hdr.quantile h 0.5 in
  if p50 < 500 || p50 > 508 then Alcotest.failf "p50 = %d" p50;
  (* Sub-64 values are exact. *)
  let h2 = Stats.Hdr.create () in
  List.iter (Stats.Hdr.record h2) [ 3; 3; 7 ];
  Alcotest.(check int) "exact small median" 3 (Stats.Hdr.quantile h2 0.5)

let test_hdr_merge () =
  let a = Stats.Hdr.create () and b = Stats.Hdr.create () in
  for v = 1 to 100 do
    Stats.Hdr.record a v
  done;
  for v = 101 to 200 do
    Stats.Hdr.record b v
  done;
  Stats.Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" 200 (Stats.Hdr.count a);
  Alcotest.(check int) "merged max" 200 (Stats.Hdr.max_value a);
  Alcotest.(check (float 0.001)) "merged mean" 100.5 (Stats.Hdr.mean a)

let test_hdr_edges () =
  let h = Stats.Hdr.create () in
  Stats.Hdr.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Stats.Hdr.quantile h 1.0);
  Alcotest.(check int) "empty quantile" 0 (Stats.Hdr.quantile (Stats.Hdr.create ()) 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Hdr.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Hdr.quantile h 1.5))

(* ------------------------------------------------------------------ *)
(* Shard pool *)

let test_shard_uniqueness () =
  let p = Shard.create ~shards:3 ~capacity:64 ~seed:7 () in
  let seen = Hashtbl.create 128 in
  let granted = ref [] in
  for round = 1 to 40 do
    ignore round;
    for s = 0 to Shard.shards p - 1 do
      match Shard.acquire p ~shard:s ~client:s with
      | None -> Alcotest.fail "acquire failed below capacity"
      | Some name ->
        if Hashtbl.mem seen name then
          Alcotest.failf "name %d granted twice" name;
        Hashtbl.replace seen name ();
        (match Shard.shard_of_name p name with
        | Some s' when s' = s -> ()
        | _ -> Alcotest.failf "name %d does not map back to shard %d" name s);
        granted := name :: !granted
    done
  done;
  Alcotest.(check int) "taken = granted" 120 (Shard.taken_count p);
  Alcotest.(check int) "no leak while held" 0 (Shard.leaked p ~held:120);
  List.iter (fun name -> Shard.release p ~name) !granted;
  Alcotest.(check int) "all cells returned" 0 (Shard.taken_count p);
  Alcotest.(check int) "acquire counter" 120 (Shard.acquires p);
  Alcotest.(check int) "release counter" 120 (Shard.releases p)

let test_shard_exhaustion () =
  let p = Shard.create ~shards:1 ~capacity:4 ~seed:3 () in
  let m = Shard.per_shard_namespace p in
  let successes = ref 0 in
  (try
     for _ = 1 to 1000 do
       match Shard.acquire p ~shard:0 ~client:0 with
       | Some _ -> incr successes
       | None -> raise Exit
     done
   with Exit -> ());
  if !successes > m then
    Alcotest.failf "%d acquires from a namespace of %d" !successes m;
  Alcotest.(check bool) "exhaustion recorded" true (Shard.failures p > 0)

let test_shard_routing () =
  let p = Shard.create ~shards:4 ~capacity:16 ~seed:1 () in
  let counts = Array.make 4 0 in
  for client = 0 to 399 do
    let s = Shard.shard_of_client p client in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "routing is stable" s (Shard.shard_of_client p client);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "shard %d never routed to" i)
    counts;
  Alcotest.(check bool) "out-of-range name" true
    (Shard.shard_of_name p (Shard.namespace p) = None);
  Alcotest.(check bool) "negative name" true (Shard.shard_of_name p (-1) = None)

(* ------------------------------------------------------------------ *)
(* Bench artifact *)

let sample_artifact () =
  {
    Service_bench.shards = 2;
    capacity = 128;
    conns = 4;
    clients = 64;
    rate = 1000.;
    duration_s = 5.;
    seed = 1;
    wall_s = 5.1;
    offered = 5000;
    acquired = 5000;
    acquire_failures = 0;
    released = 5000;
    errors = 0;
    timeouts = 0;
    violations = 0;
    leaked = 0;
    reconnects = 0;
    throughput = 1960.;
    lat_p50 = 120_000;
    lat_p99 = 900_000;
    lat_p999 = 2_500_000;
    lat_mean = 180_000.;
    lat_max = 3_000_000;
  }

let test_artifact_roundtrip () =
  let a = sample_artifact () in
  let a' = Service_bench.of_json (Service_bench.to_json a) in
  Alcotest.(check bool) "artifact round-trips" true (a = a');
  (* Parse through the canonical string form too. *)
  match Jsonu.parse (Jsonu.to_string (Service_bench.to_json a)) with
  | None -> Alcotest.fail "canonical form does not parse"
  | Some j ->
    Alcotest.(check bool) "string round-trip" true (Service_bench.of_json j = a)

let test_artifact_schema_rejects () =
  Alcotest.check_raises "wrong kind" Jsonu.Malformed (fun () ->
      ignore
        (Service_bench.of_json
           (Jsonu.Obj [ ("kind", Jsonu.Str "bench"); ("schema", Jsonu.Int 1) ])))

let test_artifact_check () =
  let base = sample_artifact () in
  Alcotest.(check (list string))
    "clean run passes" []
    (Service_bench.check ~threshold:0.5 ~baseline:base ~current:base);
  let bad = { base with violations = 1; leaked = 2; errors = 3 } in
  Alcotest.(check int) "audit failures are findings" 3
    (List.length (Service_bench.check ~threshold:0.5 ~baseline:base ~current:bad));
  let slow = { base with throughput = base.throughput /. 4. } in
  Alcotest.(check int) "throughput collapse is a finding" 1
    (List.length
       (Service_bench.check ~threshold:0.5 ~baseline:base ~current:slow));
  let within = { base with throughput = base.throughput *. 0.6 } in
  Alcotest.(check (list string))
    "throughput within threshold passes" []
    (Service_bench.check ~threshold:0.5 ~baseline:base ~current:within)

(* ------------------------------------------------------------------ *)
(* End-to-end: a real serving loop on its own domain (fork is
   unavailable once any test has created a domain; the real-process
   SIGTERM path is covered by CI's service-smoke job against the
   renamed binary). *)

let fresh_socket_path () =
  let path = Filename.temp_file "renamed_test" ".sock" in
  Unix.unlink path;
  path

let start_server ?(shards = 2) ?(capacity = 128) path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    { (Server.default_config ~socket_path:path) with shards; capacity }
  in
  let s = Server.spawn cfg in
  (* Wait for the socket to accept. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Client.connect ~path () with
    | Ok c ->
      Client.close c;
      s
    | Error _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server did not come up within 10s"
      else begin
        ignore (Unix.select [] [] [] 0.02);
        wait ()
      end
  in
  wait ()

(* Drain and map the report onto renamed's exit convention: 0 clean,
   1 leaked, 2 startup failure. *)
let wait_exit s =
  match Server.join s with
  | Error _ -> 2
  | Ok r -> if Server.report_clean r then 0 else 1

let stop_server s =
  Server.stop (Server.spawned_handle s);
  wait_exit s

let get cl = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" cl e

let getf cl = function
  | Ok v -> v
  | Error f -> Alcotest.failf "%s: %s" cl (Client.failure_message f)

let test_e2e_sync_ops () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let names =
        List.init 10 (fun i -> getf "acquire" (Client.acquire c ~client:i))
      in
      let distinct = List.sort_uniq Int.compare names in
      Alcotest.(check int) "10 distinct names" 10 (List.length distinct);
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "server sees 10 taken" 10 (Jsonu.int_ stats "taken");
      Alcotest.(check int) "ledger sees 10 held" 10
        (Jsonu.int_ stats "held_by_sessions");
      List.iter
        (fun name -> getf "release" (Client.release c ~client:0 ~name))
        names;
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "all returned" 0 (Jsonu.int_ stats "taken");
      (* Releasing a name we do not hold is refused, not crashed — and
         surfaces as a typed server error, not a transport failure. *)
      (match Client.release c ~client:0 ~name:3 with
      | Error (Client.Remote { code; _ }) ->
        Alcotest.(check int) "err_not_held surfaces" Wire.err_not_held code
      | Error (Client.Transport e) ->
        Alcotest.failf "transport failure instead of err_not_held: %s" e
      | Error (Client.Busy _) -> Alcotest.fail "release refused as busy"
      | Ok () -> Alcotest.fail "release of unheld name succeeded");
      Client.close c);
  ()

let test_e2e_json_mode () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~mode:Wire.Json ~path ()) in
      let name = getf "acquire" (Client.acquire c ~client:5) in
      getf "release" (Client.release c ~client:5 ~name);
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "json session, zero taken" 0
        (Jsonu.int_ stats "taken");
      Client.close c)

let test_e2e_shutdown_request () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  let c = get "connect" (Client.connect ~path ()) in
  ignore (getf "acquire" (Client.acquire c ~client:1));
  getf "shutdown" (Client.shutdown c);
  Client.close c;
  (* The held name is auto-released in the drain: exit must be clean. *)
  Alcotest.(check int) "clean exit after shutdown request" 0 (wait_exit pid);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_e2e_sigterm_drains () =
  let path = fresh_socket_path () in
  let s = start_server path in
  (* The signal glue renamed installs: SIGTERM triggers the stop
     handle, which must drain and release everything still held. *)
  let prev =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Server.stop (Server.spawned_handle s)))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.signal Sys.sigterm prev))
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* Hold 20 names and never release: the drain must return every
         slot and exit clean (leak accounting = 0). *)
      let names =
        List.init 20 (fun i -> getf "acquire" (Client.acquire c ~client:i))
      in
      Alcotest.(check int) "20 distinct held" 20
        (List.length (List.sort_uniq Int.compare names));
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* Make sure the handler has run before blocking in join. *)
      let rec spin n =
        if (not (Server.stop_requested (Server.spawned_handle s))) && n > 0
        then begin
          ignore (Unix.select [] [] [] 0.01);
          spin (n - 1)
        end
      in
      spin 500;
      Alcotest.(check bool) "signal reached the stop handle" true
        (Server.stop_requested (Server.spawned_handle s));
      (match Server.join s with
      | Error e -> Alcotest.failf "server failed: %s" e
      | Ok r ->
        Alcotest.(check int) "every held name auto-released" 20
          r.Server.drained_releases;
        Alcotest.(check int) "no slots leaked at exit" 0 r.Server.taken_at_exit;
        Alcotest.(check bool) "clean report" true (Server.report_clean r));
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
      Client.close c)

let test_e2e_dead_client_cleanup () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      ignore (getf "acquire" (Client.acquire c ~client:1));
      ignore (getf "acquire" (Client.acquire c ~client:2));
      (* Die without releasing: the server must reclaim our slots. *)
      Client.close c;
      let c2 = get "connect" (Client.connect ~path ()) in
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        let stats = Jsonu.obj (getf "stats" (Client.stats c2)) in
        if Jsonu.int_ stats "taken" = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "slots not reclaimed: %d still taken"
            (Jsonu.int_ stats "taken")
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait ()
        end
      in
      wait ();
      Client.close c2)

let test_e2e_protocol_corruption () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* An oversized length prefix: the server must answer with an
         err_proto error and close, not crash. *)
      let fd = Client.fd c in
      ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
      (match Client.recv c ~timeout:5. with
      | Ok (Some (Wire.Error { code; _ })) ->
        Alcotest.(check int) "err_proto" Wire.err_proto code
      | other ->
        Alcotest.failf "expected protocol error, got %s"
          (match other with
          | Ok (Some r) -> show_resp r
          | Ok None -> "timeout"
          | Error e -> "connection error: " ^ e));
      Client.close c;
      (* The daemon is still alive for new clients. *)
      let c2 = get "connect" (Client.connect ~path ()) in
      ignore (getf "stats" (Client.stats c2));
      Client.close c2)

let test_e2e_stale_socket_reclaim () =
  let path = fresh_socket_path () in
  (* Plant a stale socket file with no daemon behind it. *)
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.close fd;
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect over reclaimed socket" (Client.connect ~path ()) in
      ignore (getf "stats" (Client.stats c));
      Client.close c)

let test_e2e_load_gen () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let cfg =
        {
          (Load_gen.default_config ~path) with
          conns = 2;
          clients = 16;
          rate = 400.;
          duration_s = 1.0;
          seed = 11;
        }
      in
      match Load_gen.run cfg with
      | Error e -> Alcotest.failf "load_gen: %s" e
      | Ok r ->
        Alcotest.(check int) "no violations" 0 r.Load_gen.violations;
        Alcotest.(check int) "no leaks" 0 r.Load_gen.leaked;
        Alcotest.(check int) "no errors" 0 r.Load_gen.errors;
        Alcotest.(check int) "no timeouts" 0 r.Load_gen.timeouts;
        Alcotest.(check bool) "audit is ok" true (Load_gen.ok r);
        Alcotest.(check int) "acquired = released" r.Load_gen.acquired
          r.Load_gen.released;
        Alcotest.(check bool) "work was done" true (r.Load_gen.acquired > 0);
        Alcotest.(check int) "every latency recorded" r.Load_gen.acquired
          (Stats.Hdr.count r.Load_gen.latency))

(* Post every request (each built from a fresh id) with one flush, then
   collect as many replies, in arrival order. *)
let exchange c reqs =
  let ids =
    List.map
      (fun mk ->
        let id = Client.fresh_id c in
        Client.post c (mk id);
        id)
      reqs
  in
  get "flush" (Client.flush c);
  let replies =
    List.map
      (fun _ ->
        match get "recv" (Client.recv c ~timeout:10.) with
        | Some r -> r
        | None -> Alcotest.fail "a pipelined request went unanswered")
      ids
  in
  (ids, replies)

let acquires n =
  List.init n (fun i id ->
      Wire.Acquire { id; client = i; token = 0; deadline_ms = 0 })

let releases_of replies =
  List.map
    (function
      | Wire.Acquired { name; _ } -> fun id -> Wire.Release { id; client = 0; name }
      | r -> Alcotest.failf "unexpected reply %s" (show_resp r))
    replies

(* 256 acquires pipelined in one write, then 256 releases: every
   request id is answered exactly once however the server batches the
   completions and coalesces the replies into writes. *)
let test_e2e_pipelined_exactly_once () =
  let path = fresh_socket_path () in
  let pid = start_server ~capacity:512 path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let n = 256 in
      let exactly_once (ids, replies) =
        Alcotest.(check (list int)) "every id answered exactly once"
          (List.sort compare ids)
          (List.sort compare (List.map Wire.response_id replies));
        replies
      in
      let granted = exactly_once (exchange c (acquires n)) in
      Alcotest.(check int) "256 distinct names" n
        (List.length
           (List.sort_uniq compare
              (List.filter_map
                 (function Wire.Acquired { name; _ } -> Some name | _ -> None)
                 granted)));
      List.iter
        (function
          | Wire.Released _ -> ()
          | r -> Alcotest.failf "unexpected reply %s" (show_resp r))
        (exactly_once (exchange c (releases_of granted)));
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "all returned" 0 (Jsonu.int_ stats "taken");
      (* 512 replies and 512 completions: writes and wake-ups are
         shared between them, not paid once each (a run reads ~15 of
         each; the bound is one per two). *)
      let writes = Jsonu.int_ stats "socket_writes"
      and wakeups = Jsonu.int_ stats "wakeups" in
      if writes >= n then
        Alcotest.failf "%d socket writes for %d replies" writes (2 * n);
      if wakeups >= n then
        Alcotest.failf "%d wake-ups for %d completions" wakeups (2 * n);
      Client.close c)

(* Lost-wake-up guard: a completion whose worker skipped the self-pipe
   poke waits for the loop's 100 ms select timeout.  2,000 sequential
   round trips, each a single request, must all finish under it; so
   must 10,000 bursts of 8 pipelined acquires then 8 releases over both
   shards, where completions race the loop's re-arming of the poke (a
   re-arm moved after the outbox drain failed here in 10 runs of 10). *)
let test_e2e_no_lost_wakeup () =
  let path = fresh_socket_path () in
  let pid = start_server path in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let timed what i f =
        let t0 = Mono.now () in
        f ();
        let took = Mono.now () -. t0 in
        if took >= 0.1 then
          Alcotest.failf "%s %d took %.1f ms: a wake-up was lost" what i
            (took *. 1000.)
      in
      let held = ref None in
      for i = 1 to 2000 do
        timed "round trip" i (fun () ->
            match !held with
            | None -> held := Some (getf "acquire" (Client.acquire c ~client:i))
            | Some name ->
              getf "release" (Client.release c ~client:i ~name);
              held := None)
      done;
      for b = 1 to 10_000 do
        timed "burst" b (fun () ->
            let _, granted = exchange c (acquires 8) in
            ignore (exchange c (releases_of granted)))
      done;
      Client.close c)

(* ------------------------------------------------------------------ *)

let suite =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  [
    ( "service.wire",
      [
        qc qcheck_req_roundtrip;
        qc qcheck_resp_roundtrip;
        qc qcheck_req_truncation;
        qc qcheck_resp_truncation;
        tc "oversized binary frame" `Quick test_oversized_binary;
        tc "oversized json line" `Quick test_oversized_json;
        tc "unknown opcode" `Quick test_unknown_opcode;
        tc "bad payload length" `Quick test_bad_payload_length;
        tc "bad json line" `Quick test_bad_json_line;
      ] );
    ( "service.session",
      [
        tc "byte-at-a-time binary" `Quick (test_session_byte_at_a_time Wire.Binary);
        tc "byte-at-a-time json" `Quick (test_session_byte_at_a_time Wire.Json);
        tc "many frames per feed" `Quick test_session_many_per_feed;
        tc "mode detection" `Quick test_session_mode_detection;
        tc "corruption latches" `Quick test_session_corrupt_latch;
        tc "held-name ledger" `Quick test_session_ledger;
        tc "outbound buffer" `Quick test_session_outbound;
      ] );
    ( "service.hdr",
      [
        qc qcheck_hdr_relative_error;
        qc qcheck_hdr_quantiles_ordered;
        tc "exact counts" `Quick test_hdr_exact;
        tc "merge" `Quick test_hdr_merge;
        tc "edge cases" `Quick test_hdr_edges;
      ] );
    ( "service.shard",
      [
        tc "uniqueness and release" `Quick test_shard_uniqueness;
        tc "exhaustion" `Quick test_shard_exhaustion;
        tc "client routing" `Quick test_shard_routing;
      ] );
    ( "service.bench",
      [
        tc "artifact round-trip" `Quick test_artifact_roundtrip;
        tc "artifact schema rejects" `Quick test_artifact_schema_rejects;
        tc "regression check" `Quick test_artifact_check;
      ] );
    ( "service.e2e",
      [
        tc "sync ops" `Quick test_e2e_sync_ops;
        tc "json mode" `Quick test_e2e_json_mode;
        tc "shutdown request" `Quick test_e2e_shutdown_request;
        tc "sigterm drains held names" `Quick test_e2e_sigterm_drains;
        tc "dead client cleanup" `Quick test_e2e_dead_client_cleanup;
        tc "protocol corruption" `Quick test_e2e_protocol_corruption;
        tc "stale socket reclaim" `Quick test_e2e_stale_socket_reclaim;
        tc "open-loop load audit" `Quick test_e2e_load_gen;
        tc "pipelined replies exactly once" `Quick test_e2e_pipelined_exactly_once;
        tc "no lost wake-up" `Quick test_e2e_no_lost_wakeup;
      ] );
  ]
