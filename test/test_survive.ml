(* Service survivability: the lease table's epoch machinery (including
   the QCheck TTL-boundary race property), the crash journal (codec
   round-trip, torn tails, CRC damage, replay, compaction, Io_fault
   kill-point sweeps over single appends and group-commit batches), and
   end-to-end daemon behavior — lease expiry, renew heartbeats,
   idempotent-acquire dedup, journal write-ahead and batch rollback,
   name recycling across a SIGKILL, crash recovery, and the durable
   client's reconnect. *)

open Service

(* ------------------------------------------------------------------ *)
(* Lease: unit coverage of the epoch tie-breaker *)

let test_lease_grant_release () =
  let t = Lease.create ~ttl_s:1.0 () in
  let e = Lease.grant t ~now:0. ~name:5 ~holder:(Some 1) ~token:7 in
  Alcotest.(check bool) "epoch positive" true (e > 0);
  Alcotest.(check (option int)) "epoch_of" (Some e) (Lease.epoch_of t ~name:5);
  Alcotest.(check int) "one live lease" 1 (Lease.held t);
  (match Lease.release t ~name:5 ~epoch:e with
  | `Released -> ()
  | _ -> Alcotest.fail "matching epoch must release");
  (match Lease.release t ~name:5 ~epoch:e with
  | `Unknown -> ()
  | _ -> Alcotest.fail "released name must be Unknown");
  Alcotest.(check int) "empty" 0 (Lease.held t)

let test_lease_expiry_and_monotonicity () =
  let t = Lease.create ~ttl_s:1.0 () in
  let e1 = Lease.grant t ~now:0. ~name:1 ~holder:(Some 9) ~token:3 in
  Alcotest.(check (list (triple int int (option int))))
    "nothing due before the TTL" []
    (List.map
       (fun (n, e, h, _) -> (n, e, h))
       (Lease.expire_due t ~now:0.5));
  (match Lease.expire_due t ~now:1.5 with
  | [ (1, e, Some 9, 3) ] when e = e1 -> ()
  | other ->
    Alcotest.failf "expected the one expired lease, got %d entries"
      (List.length other));
  let e2 = Lease.grant t ~now:2. ~name:1 ~holder:(Some 9) ~token:4 in
  Alcotest.(check bool) "epochs strictly increase across reissue" true (e2 > e1)

let test_lease_renew_extends () =
  let t = Lease.create ~ttl_s:1.0 () in
  ignore (Lease.grant t ~now:0. ~name:2 ~holder:(Some 4) ~token:0);
  Alcotest.(check int) "renew touches the holder's lease" 1
    (Lease.renew t ~now:0.9 ~holder:4);
  Alcotest.(check (list int)) "renewed lease outlives the old deadline" []
    (List.map (fun (n, _, _, _) -> n) (Lease.expire_due t ~now:1.5));
  (* A lease past its TTL but not yet swept is still renewable: it is
     the sweep, not the clock, that kills it. *)
  Alcotest.(check int) "late renew still lands" 1
    (Lease.renew t ~now:3.0 ~holder:4);
  Alcotest.(check int) "lease survives" 1 (Lease.held t)

let test_lease_token_binding () =
  let t = Lease.create ~ttl_s:1.0 () in
  let e = Lease.grant t ~now:0. ~name:8 ~holder:(Some 1) ~token:42 in
  Alcotest.(check (option (pair int int)))
    "token resolves to its lease" (Some (8, e))
    (Lease.find_token t ~token:42);
  Alcotest.(check bool) "rebind with the live epoch succeeds" true
    (Lease.rebind t ~now:0.5 ~name:8 ~epoch:e ~holder:2);
  (match Lease.holder_of t ~name:8 with
  | Some (Some 2) -> ()
  | _ -> Alcotest.fail "rebind must move the holder");
  Alcotest.(check bool) "rebind with a dead epoch fails" false
    (Lease.rebind t ~now:0.5 ~name:8 ~epoch:(e + 1) ~holder:3);
  ignore (Lease.expire_due t ~now:10.);
  Alcotest.(check (option (pair int int)))
    "token binding dies with the lease" None
    (Lease.find_token t ~token:42)

let test_lease_restore () =
  let t = Lease.create ~ttl_s:1.0 () in
  Lease.restore t ~now:0. ~name:3 ~epoch:10 ~token:6;
  Alcotest.(check (option int)) "original epoch kept" (Some 10)
    (Lease.epoch_of t ~name:3);
  (match Lease.holder_of t ~name:3 with
  | Some None -> ()
  | _ -> Alcotest.fail "restored lease must be an orphan");
  Alcotest.(check (option (pair int int)))
    "restored token still matches" (Some (3, 10))
    (Lease.find_token t ~token:6);
  let e = Lease.grant t ~now:0. ~name:4 ~holder:None ~token:0 in
  Alcotest.(check bool) "epoch counter bumped past the restore" true (e > 10)

(* The renew-vs-expiry race at the TTL boundary, driven deterministically:
   once a lease expires and its name is reissued, the stale holder's
   epoch can neither release nor rebind (dedup-match) the new lease, and
   its token no longer resolves. *)
let qcheck_lease_ttl_boundary =
  QCheck.Test.make ~name:"stale epoch never frees or steals a reissued name"
    ~count:500
    QCheck.(
      quad (float_range 0.01 10.) (float_range 0. 1000.) (int_range 0 4096)
        (int_range 1 1_000_000))
    (fun (ttl, now0, name, token) ->
      let t = Lease.create ~ttl_s:ttl () in
      let ttl = Lease.ttl_s t in
      let e1 = Lease.grant t ~now:now0 ~name ~holder:(Some 1) ~token in
      (* Probe strictly inside, then strictly past, the TTL window. *)
      let inside = now0 +. (ttl /. 2.) in
      let past = now0 +. (ttl *. 2.) +. 0.001 in
      let not_due = Lease.expire_due t ~now:inside = [] in
      let renewed = Lease.renew t ~now:inside ~holder:1 = 1 in
      let expired =
        match Lease.expire_due t ~now:(past +. ttl) with
        | [ (n, e, Some 1, tok) ] -> n = name && e = e1 && tok = token
        | _ -> false
      in
      let e2 = Lease.grant t ~now:past ~name ~holder:(Some 2) ~token:(token + 1) in
      let stale_release =
        match Lease.release t ~name ~epoch:e1 with `Stale -> true | _ -> false
      in
      let stale_rebind = not (Lease.rebind t ~now:past ~name ~epoch:e1 ~holder:1) in
      let stale_token = Lease.find_token t ~token = None in
      let live_release =
        match Lease.release t ~name ~epoch:e2 with
        | `Released -> true
        | _ -> false
      in
      not_due && renewed && expired && e2 > e1 && stale_release && stale_rebind
      && stale_token && live_release)

(* ------------------------------------------------------------------ *)
(* Journal: codec, damage tolerance, replay, compaction *)

let temp_journal () =
  let path = Filename.temp_file "journal_test" ".journal" in
  Sys.remove path;
  path

let with_journal path f =
  match Journal.open_append ~path with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok j -> Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)

let sample_records =
  [
    Journal.Grant { name = 0; epoch = 1; client = 7; token = 99 };
    Journal.Grant
      {
        name = (1 lsl 32) - 1;
        epoch = 1 lsl 40;
        client = (1 lsl 32) - 1;
        token = (1 lsl 32) - 1;
      };
    Journal.Release { name = 0; epoch = 1 };
    Journal.Expire { name = (1 lsl 32) - 1; epoch = 1 lsl 40 };
  ]

let scan_ok path =
  match Journal.scan ~path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s -> s

let test_journal_roundtrip () =
  let path = temp_journal () in
  with_journal path (fun j -> List.iter (Journal.append j) sample_records);
  let s = scan_ok path in
  Alcotest.(check bool) "no torn tail" false s.Journal.torn_tail;
  Alcotest.(check int) "no damage" 0 s.Journal.damaged;
  Alcotest.(check bool) "records round-trip in order" true
    (s.Journal.records = sample_records);
  Sys.remove path

let truncate_file path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (max 0 (size - n));
  Unix.close fd

let test_journal_torn_tail () =
  let path = temp_journal () in
  with_journal path (fun j -> List.iter (Journal.append j) sample_records);
  truncate_file path 3;
  let s = scan_ok path in
  Alcotest.(check bool) "torn tail detected" true s.Journal.torn_tail;
  Alcotest.(check int) "a torn tail is not damage" 0 s.Journal.damaged;
  Alcotest.(check bool) "intact prefix recovered" true
    (s.Journal.records
    = List.filteri (fun i _ -> i < List.length sample_records - 1)
        sample_records);
  Sys.remove path

let test_journal_crc_damage () =
  let path = temp_journal () in
  with_journal path (fun j -> List.iter (Journal.append j) sample_records);
  (* Flip one payload byte inside the first record (8 bytes of framing,
     then the payload). *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let s = scan_ok path in
  Alcotest.(check bool) "damage on a complete record is reported" true
    (s.Journal.damaged > 0);
  Sys.remove path

let test_journal_replay () =
  let open Journal in
  let live =
    replay
      [
        Grant { name = 1; epoch = 1; client = 10; token = 5 };
        Grant { name = 2; epoch = 2; client = 11; token = 0 };
        Release { name = 1; epoch = 1 };
        Expire { name = 2; epoch = 2 };
        Grant { name = 1; epoch = 7; client = 12; token = 8 };
      ]
  in
  Alcotest.(check bool) "one live grant" true
    (live.grants = [ (1, (7, 12, 8)) ]);
  Alcotest.(check int) "next epoch past the max" 8 live.next_epoch;
  Alcotest.(check int) "no double grants" 0 live.double_grants;
  Alcotest.(check int) "no stale releases" 0 live.stale_releases;
  let dup =
    replay
      [
        Grant { name = 3; epoch = 1; client = 0; token = 0 };
        Grant { name = 3; epoch = 2; client = 1; token = 0 };
      ]
  in
  Alcotest.(check int) "double grant of a live name counted" 1
    dup.double_grants;
  let stale =
    replay
      [
        Grant { name = 4; epoch = 9; client = 0; token = 0 };
        Release { name = 4; epoch = 3 };
      ]
  in
  Alcotest.(check int) "stale release counted" 1 stale.stale_releases;
  Alcotest.(check bool) "stale release frees nothing" true
    (stale.grants = [ (4, (9, 0, 0)) ])

let test_journal_rewrite () =
  let path = temp_journal () in
  let grants = [ (3, (7, 1, 0)); (9, (8, 2, 55)) ] in
  (match Journal.rewrite ~path grants with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rewrite: %s" e);
  let s = scan_ok path in
  Alcotest.(check int) "compacted to the live grants" 2
    (List.length s.Journal.records);
  let live = Journal.replay s.Journal.records in
  Alcotest.(check bool) "replay of the compaction is the input" true
    (live.Journal.grants = grants);
  Sys.remove path

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

(* Kill-point sweep: fail every append in every way the engine's I/O
   fault shim knows, keep appending after the failure, and require that
   the journal holds exactly the records whose append succeeded — no
   damage, no torn tail, whatever prefix the failed write left behind
   (After_append's whole record included) cut off again. *)
let test_journal_kill_point_sweep () =
  let records =
    List.init 5 (fun i ->
        Journal.Grant { name = i; epoch = i + 1; client = i; token = i })
  in
  let kinds =
    [
      Engine.Io_fault.Drop;
      Engine.Io_fault.Short 1;
      Engine.Io_fault.Short 9;
      Engine.Io_fault.Short 20;
      Engine.Io_fault.After_append;
    ]
  in
  Fun.protect ~finally:Engine.Io_fault.disarm (fun () ->
      List.iter
        (fun kind ->
          for op = 0 to List.length records - 1 do
            let path = temp_journal () in
            Engine.Io_fault.arm { Engine.Io_fault.op; kind };
            let failed = ref 0 in
            with_journal path (fun j ->
                List.iter
                  (fun r ->
                    try Journal.append j r
                    with Engine.Io_fault.Injected _ -> incr failed)
                  records);
            Engine.Io_fault.disarm ();
            Alcotest.(check int) "the armed append failed" 1 !failed;
            let s = scan_ok path in
            Alcotest.(check int) "a failed append never leaves damage" 0
              s.Journal.damaged;
            Alcotest.(check bool) "nor a torn tail" false s.Journal.torn_tail;
            Alcotest.(check bool)
              "exactly the successful appends, in order" true
              (s.Journal.records = List.filteri (fun i _ -> i <> op) records);
            Sys.remove path
          done)
        kinds)

(* The same sweep over one group-commit batch of mixed records, on top
   of an already-committed batch: Short k at every frame boundary and
   at cuts inside every frame, Drop and After_append.  A process that
   survives the failure keeps exactly the committed records and appends
   the next batch right after them.  A process killed at the same point
   leaves the committed records plus the first k bytes of the batch
   (built here byte for byte): {!Journal.scan} must read the committed
   records, then a clean prefix of the batch — exactly the frames that
   fit in the bytes written — and a torn tail only when the cut fell
   inside a frame. *)
let test_journal_batch_kill_point_sweep () =
  let committed =
    [
      Journal.Grant { name = 3; epoch = 1; client = 1; token = 0 };
      Journal.Grant { name = 4; epoch = 2; client = 1; token = 11 };
    ]
  in
  let batch =
    [
      Journal.Release { name = 3; epoch = 1 };
      Journal.Grant { name = 3; epoch = 3; client = 2; token = 12 };
      Journal.Expire { name = 4; epoch = 2 };
      Journal.Grant { name = 4; epoch = 4; client = 2; token = 0 };
      Journal.Release { name = 3; epoch = 3 };
    ]
  in
  let next = [ Journal.Grant { name = 5; epoch = 5; client = 3; token = 0 } ] in
  let frame_bytes = function
    | Journal.Grant _ -> 8 + 21
    | Journal.Release _ | Journal.Expire _ -> 8 + 13
  in
  (* Byte offsets within the batch where each frame ends. *)
  let total, rev_ends =
    List.fold_left
      (fun (o, acc) r ->
        let o = o + frame_bytes r in
        (o, o :: acc))
      (0, []) batch
  in
  let ends = List.rev rev_ends in
  let starts = 0 :: List.rev (List.tl rev_ends) in
  (* The file a clean run writes: the committed batch, then [batch]. *)
  let clean =
    let path = temp_journal () in
    with_journal path (fun j ->
        Journal.append_batch j committed;
        Journal.append_batch j batch);
    let bytes = file_bytes path in
    Sys.remove path;
    bytes
  in
  let base = String.length clean - total in
  let survive ~what kind =
    let path = temp_journal () in
    with_journal path (fun j ->
        Journal.append_batch j committed;
        Engine.Io_fault.arm { Engine.Io_fault.op = 0; kind };
        (match Journal.append_batch j batch with
        | () -> Alcotest.fail "armed batch append did not fail"
        | exception Engine.Io_fault.Injected _ -> Engine.Io_fault.disarm ());
        Alcotest.(check int) (what ^ ": cut back to the committed bytes") base
          (String.length (file_bytes path));
        Journal.append_batch j next);
    let s = scan_ok path in
    Sys.remove path;
    Alcotest.(check int) (what ^ ": no damage") 0 s.Journal.damaged;
    Alcotest.(check bool) (what ^ ": no torn tail") false s.Journal.torn_tail;
    Alcotest.(check bool)
      (what ^ ": the committed records, then the next batch") true
      (s.Journal.records = committed @ next)
  in
  let crash ~written =
    let what = Printf.sprintf "killed after %d byte(s)" written in
    let path = temp_journal () in
    write_file path (String.sub clean 0 (base + written));
    let s = scan_ok path in
    Sys.remove path;
    let whole = List.length (List.filter (fun e -> e <= written) ends) in
    Alcotest.(check int) (what ^ ": no damage") 0 s.Journal.damaged;
    Alcotest.(check bool)
      (what ^ ": committed records, then a clean prefix of the batch")
      true
      (s.Journal.records
      = committed @ List.filteri (fun i _ -> i < whole) batch);
    Alcotest.(check bool) (what ^ ": torn only mid-frame") true
      (s.Journal.torn_tail = (written > 0 && not (List.mem written ends)))
  in
  Fun.protect ~finally:Engine.Io_fault.disarm (fun () ->
      survive ~what:"Drop" Engine.Io_fault.Drop;
      survive ~what:"After_append" Engine.Io_fault.After_append;
      (* Each frame boundary, plus cuts inside each frame's header,
         at the header/payload seam and one byte short of its end. *)
      let cuts =
        List.concat_map (fun o -> [ o; o + 1; o + 4; o + 8 ]) starts
        @ List.map pred ends @ [ total ]
      in
      List.iter
        (fun k ->
          survive ~what:(Printf.sprintf "Short %d" k) (Engine.Io_fault.Short k);
          crash ~written:k)
        (List.sort_uniq compare cuts))

(* ------------------------------------------------------------------ *)
(* End-to-end: leases, dedup, write-ahead, recovery, reconnect *)

let fresh_socket_path () =
  let path = Filename.temp_file "renamed_survive" ".sock" in
  Unix.unlink path;
  path

let base_cfg ?(shards = 2) ?(capacity = 128) ?(lease_ttl = 30.) ?journal
    ?(recover = false) path =
  {
    (Server.default_config ~socket_path:path) with
    shards;
    capacity;
    lease_ttl_s = lease_ttl;
    journal_path = journal;
    recover;
  }

let start_server cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s = Server.spawn cfg in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Client.connect ~path:cfg.Server.socket_path () with
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

let stop_server s =
  Server.stop (Server.spawned_handle s);
  Server.join s

let get cl = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" cl e

let getf cl = function
  | Ok v -> v
  | Error f -> Alcotest.failf "%s: %s" cl (Client.failure_message f)

let stat_int c key = Jsonu.int_ (Jsonu.obj (getf "stats" (Client.stats c))) key

let wait_for ?(deadline_s = 10.) what pred =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      ignore (Unix.select [] [] [] 0.03);
      go ()
    end
  in
  go ()

let test_e2e_lease_expiry () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg ~lease_ttl:0.2 path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server s) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let name = getf "acquire" (Client.acquire c ~client:1) in
      Alcotest.(check int) "held" 1 (stat_int c "taken");
      (* Go silent without disconnecting: the sweep, driven by the lease
         TTL, must reclaim the slot out from under us. *)
      wait_for "the expiry sweep" (fun () -> stat_int c "taken" = 0);
      Alcotest.(check bool) "expiry counted" true
        (stat_int c "expired_leases" >= 1);
      (* Our claim is dead: releasing the reissued/reclaimed name must
         be refused, never honoured. *)
      (match Client.release c ~client:1 ~name with
      | Error (Client.Remote { code; _ }) ->
        Alcotest.(check int) "stale release refused" Wire.err_not_held code
      | Error (Client.Transport e) -> Alcotest.failf "transport: %s" e
      | Error (Client.Busy _) -> Alcotest.fail "release refused as busy"
      | Ok () -> Alcotest.fail "stale release succeeded");
      Client.close c)

let test_e2e_renew_keeps_alive () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg ~lease_ttl:0.3 path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server s) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let name = getf "acquire" (Client.acquire c ~client:2) in
      (* Heartbeat through 4 TTLs: the lease must never lapse. *)
      for _ = 1 to 12 do
        Unix.sleepf 0.1;
        Alcotest.(check int) "renew extends our one lease" 1
          (getf "renew" (Client.renew c ~client:2))
      done;
      Alcotest.(check int) "still held after 4 TTLs of heartbeats" 1
        (stat_int c "taken");
      getf "release" (Client.release c ~client:2 ~name);
      Alcotest.(check int) "released" 0 (stat_int c "taken");
      Client.close c)

let test_e2e_token_dedup () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server s) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let n1 = getf "acquire" (Client.acquire ~token:77 c ~client:3) in
      (* A retry carrying the same token must re-deliver the original
         grant, not take a second slot. *)
      let n2 = getf "acquire" (Client.acquire ~token:77 c ~client:3) in
      Alcotest.(check int) "same name re-delivered" n1 n2;
      Alcotest.(check int) "one slot taken" 1 (stat_int c "taken");
      Alcotest.(check int) "dedup counted" 1 (stat_int c "dedup_hits");
      (* A different token is a different logical acquire. *)
      let n3 = getf "acquire" (Client.acquire ~token:78 c ~client:3) in
      Alcotest.(check bool) "fresh token, fresh name" true (n3 <> n1);
      Client.close c)

let test_e2e_journal_write_ahead () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  let s = start_server (base_cfg ~journal path) in
  Fun.protect
    ~finally:(fun () ->
      Engine.Io_fault.disarm ();
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* Fail the next journal append: the grant must be rolled back
         before the client ever sees it. *)
      Engine.Io_fault.arm { Engine.Io_fault.op = 0; kind = Engine.Io_fault.Drop };
      (match Client.acquire c ~client:1 with
      | Error (Client.Remote { code; _ }) ->
        Alcotest.(check int) "unjournaled grant is err_internal"
          Wire.err_internal code
      | Error (Client.Transport e) -> Alcotest.failf "transport: %s" e
      | Error (Client.Busy _) -> Alcotest.fail "acquire refused as busy"
      | Ok n -> Alcotest.failf "grant %d acknowledged without a journal" n);
      Engine.Io_fault.disarm ();
      (* The rollback release runs on the shard worker, so it can land
         just after the error reply: poll, don't snapshot. *)
      wait_for "the grant rollback" (fun () -> stat_int c "taken" = 0);
      (* With the fault gone the same client acquires normally, and the
         grant is on disk before the reply. *)
      let name = getf "acquire" (Client.acquire c ~client:1) in
      let scan =
        match Journal.scan ~path:journal with
        | Ok s -> s
        | Error e -> Alcotest.failf "scan: %s" e
      in
      let live = Journal.replay scan.Journal.records in
      Alcotest.(check bool) "the acknowledged grant is journaled" true
        (List.mem_assoc name live.Journal.grants);
      Client.close c)

(* Group-commit rollback: 16 acquires pipelined in one write, and the
   first journal batch they produce fails.  Every grant in that batch
   must be answered [err_internal] and returned to the pool; the rest
   are acknowledged, and every acknowledged name is in the journal. *)
let test_e2e_journal_batch_rollback () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  let s = start_server (base_cfg ~shards:1 ~journal path) in
  Fun.protect
    ~finally:(fun () ->
      Engine.Io_fault.disarm ();
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let n = 16 in
      Engine.Io_fault.arm { Engine.Io_fault.op = 0; kind = Engine.Io_fault.Drop };
      for i = 1 to n do
        Client.post c
          (Wire.Acquire { id = Client.fresh_id c; client = i; token = 0; deadline_ms = 0 })
      done;
      get "flush" (Client.flush c);
      let acked = ref [] and aborted = ref 0 in
      for _ = 1 to n do
        match get "recv" (Client.recv c ~timeout:10.) with
        | Some (Wire.Acquired { name; _ }) -> acked := name :: !acked
        | Some (Wire.Error { code; _ }) when code = Wire.err_internal ->
          incr aborted
        | Some _ -> Alcotest.fail "unexpected reply to a pipelined acquire"
        | None -> Alcotest.fail "pipelined acquire went unanswered"
      done;
      Engine.Io_fault.disarm ();
      Alcotest.(check bool) "the failed batch aborted its grants" true
        (!aborted >= 1);
      Alcotest.(check int) "every acquire answered" n
        (List.length !acked + !aborted);
      (* Only committed records count: the aborted grants never reached
         the journal, the acknowledged ones all did. *)
      Alcotest.(check int) "journal_records counts the acknowledged grants"
        (List.length !acked)
        (stat_int c "journal_records");
      let live =
        Journal.replay (scan_ok journal).Journal.records
      in
      List.iter
        (fun name ->
          if not (List.mem_assoc name live.Journal.grants) then
            Alcotest.failf "acknowledged name %d missing from the journal" name)
        !acked;
      wait_for "the batch rollback" (fun () ->
          stat_int c "taken" = List.length !acked);
      List.iter
        (fun name -> getf "release" (Client.release c ~client:1 ~name))
        !acked;
      wait_for "every slot back" (fun () -> stat_int c "taken" = 0);
      Client.close c)

(* A short write inside a multi-record batch, survived.  The failed
   batch's grants are aborted, and its torn prefix must not stay in the
   file: the daemon keeps serving and journaling after it, the journal
   scans clean and replays to exactly the names clients hold, and a
   --recover restart over it (a copy taken while the daemon is live, as
   a SIGKILL would leave it) re-occupies them and serves. *)
let test_e2e_short_write_keeps_serving () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  let copy = temp_journal () in
  let s = start_server (base_cfg ~shards:1 ~journal path) in
  Fun.protect
    ~finally:(fun () ->
      Engine.Io_fault.disarm ();
      (try ignore (stop_server s) with _ -> ());
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ journal; copy ])
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let held = ref [] in
      let release name =
        getf "release" (Client.release c ~client:1 ~name);
        held := List.filter (( <> ) name) !held
      in
      (* 16 pipelined acquires; the first journal batch they produce is
         cut 10 bytes into its second frame.  Returns how many grants
         that batch aborted. *)
      let faulted_burst () =
        Engine.Io_fault.arm
          { Engine.Io_fault.op = 0; kind = Engine.Io_fault.Short (29 + 10) };
        for i = 1 to 16 do
          let id = Client.fresh_id c in
          Client.post c (Wire.Acquire { id; client = i; token = 0; deadline_ms = 0 })
        done;
        get "flush" (Client.flush c);
        let aborted = ref 0 in
        for _ = 1 to 16 do
          match get "recv" (Client.recv c ~timeout:10.) with
          | Some (Wire.Acquired { name; _ }) -> held := name :: !held
          | Some (Wire.Error { code; _ }) when code = Wire.err_internal ->
            incr aborted
          | Some _ -> Alcotest.fail "unexpected reply to a pipelined acquire"
          | None -> Alcotest.fail "pipelined acquire went unanswered"
        done;
        Engine.Io_fault.disarm ();
        !aborted
      in
      (* A committed grant first, so the cut lands past committed bytes. *)
      held := [ getf "acquire" (Client.acquire c ~client:1) ];
      (* The batch must hold at least two grants for the cut to fall
         inside it; a single-grant batch is retried. *)
      let rec until_multi tries =
        if tries = 0 then Alcotest.fail "no multi-grant batch in 50 bursts"
        else if faulted_burst () < 2 then begin
          List.iter release (List.tl (List.rev !held));
          until_multi (tries - 1)
        end
      in
      until_multi 50;
      (* Keep serving: more grants and releases land after the cut. *)
      let more =
        List.init 8 (fun i ->
            getf "acquire" (Client.acquire c ~client:(100 + i)))
      in
      held := more @ !held;
      List.iteri (fun i name -> if i mod 2 = 0 then release name) more;
      let sc = scan_ok journal in
      Alcotest.(check int) "no damaged record" 0 sc.Journal.damaged;
      Alcotest.(check bool) "no torn tail" false sc.Journal.torn_tail;
      let live = Journal.replay sc.Journal.records in
      Alcotest.(check int) "no double grants" 0 live.Journal.double_grants;
      Alcotest.(check (list int)) "replay = the names clients hold"
        (List.sort compare !held)
        (List.map fst live.Journal.grants);
      Alcotest.(check int) "taken = the names clients hold" (List.length !held)
        (stat_int c "taken");
      (* Every reply is in, so the file is the decided state: a copy of
         it is what a SIGKILL now would leave. *)
      write_file copy (file_bytes journal);
      let path2 = fresh_socket_path () in
      let s2 =
        start_server (base_cfg ~shards:1 ~journal:copy ~recover:true path2)
      in
      Fun.protect
        ~finally:(fun () -> try ignore (stop_server s2) with _ -> ())
        (fun () ->
          let c2 = get "connect" (Client.connect ~path:path2 ()) in
          Alcotest.(check int) "recovered the held names" (List.length !held)
            (stat_int c2 "recovered");
          let fresh =
            List.init 4 (fun i -> getf "acquire" (Client.acquire c2 ~client:i))
          in
          List.iter
            (fun n ->
              if List.mem n !held then
                Alcotest.failf "held name %d granted again" n)
            fresh;
          Client.close c2);
      Client.close c)

(* Name recycling under group commit, against a real process killed
   with SIGKILL.  On a 4-holder pool a closed loop releases each name as
   soon as it is granted and asks for another in the same write, while
   a silent connection's two names expire under it, so client releases
   and sweep expiries (pushed after a pass's commit) both feed names
   back to re-grants.  The journal the kill leaves must replay with no
   double grant and no stale release, and a --recover restart must
   re-occupy exactly the names the loop still held. *)
let renamed_exe = Filename.concat (Filename.concat ".." "bin") "renamed.exe"

let spawn_renamed ~sock ~journal extra =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args =
    Array.of_list
      ([ renamed_exe; "--socket"; sock; "--shards"; "1"; "--capacity"; "4";
         "--journal"; journal; "--quiet" ]
      @ extra)
  in
  let pid = Unix.create_process renamed_exe args Unix.stdin devnull devnull in
  Unix.close devnull;
  wait_for "renamed to listen" (fun () ->
      match Client.connect ~path:sock () with
      | Ok c ->
        Client.close c;
        true
      | Error _ -> false);
  pid

let test_e2e_recycle_sigkill_recover () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = fresh_socket_path () in
  let journal = temp_journal () in
  let ttl = 1.0 in
  let pid = ref (Some (spawn_renamed ~sock ~journal [ "--lease-ttl"; "1" ])) in
  let kill signal =
    match !pid with
    | None -> None
    | Some p ->
      pid := None;
      (try Unix.kill p signal with Unix.Unix_error _ -> ());
      Some (snd (Unix.waitpid [] p))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (kill Sys.sigkill);
      (try Sys.remove journal with Sys_error _ -> ());
      try Unix.unlink sock with Unix.Unix_error _ -> ())
    (fun () ->
      let silent = get "connect" (Client.connect ~path:sock ()) in
      for i = 1 to 2 do
        ignore (getf "silent acquire" (Client.acquire silent ~client:i))
      done;
      let c = get "connect" (Client.connect ~path:sock ()) in
      let acquire () =
        Client.post c
          (Wire.Acquire { id = Client.fresh_id c; client = 1; token = 0; deadline_ms = 0 })
      in
      (* Churn past the silent names' TTL plus a sweep period. *)
      let churn_until = Unix.gettimeofday () +. (1.6 *. ttl) in
      let window = 2 in
      for _ = 1 to window do acquire () done;
      get "flush" (Client.flush c);
      let held = ref [] and outstanding = ref window in
      while !outstanding > 0 do
        (match get "recv" (Client.recv c ~timeout:10.) with
        | Some (Wire.Acquired { name; _ }) ->
          decr outstanding;
          if Unix.gettimeofday () < churn_until then begin
            Client.post c
              (Wire.Release { id = Client.fresh_id c; client = 1; name });
            acquire ();
            outstanding := !outstanding + 2
          end
          else held := name :: !held
        | Some (Wire.Released _) -> decr outstanding
        | Some (Wire.Error { code; _ }) when code = Wire.err_capacity ->
          (* every cell taken until the silent names expire: ask again *)
          acquire ()
        | Some _ -> Alcotest.fail "unexpected reply in the recycle loop"
        | None -> Alcotest.fail "recycle loop stalled");
        get "flush" (Client.flush c)
      done;
      Alcotest.(check int) "the window ends held" window (List.length !held);
      Alcotest.(check bool) "the silent names expired and recycled" true
        (stat_int c "expired_leases" >= 2);
      Alcotest.(check bool) "group commit batched the records" true
        (stat_int c "journal_records" > stat_int c "journal_commits");
      (* Every reply is in: each Released came after the commit of its
         record, so the journal on disk is exactly the decided state. *)
      (match kill Sys.sigkill with
      | Some (Unix.WSIGNALED _) -> ()
      | _ -> Alcotest.fail "renamed did not die of SIGKILL");
      Client.close c;
      Client.close silent;
      let s = scan_ok journal in
      Alcotest.(check int) "no damage" 0 s.Journal.damaged;
      let live = Journal.replay s.Journal.records in
      Alcotest.(check int) "no double grants" 0 live.Journal.double_grants;
      Alcotest.(check int) "no stale releases" 0 live.Journal.stale_releases;
      Alcotest.(check (list int)) "the journal holds exactly the held names"
        (List.sort compare !held)
        (List.map fst live.Journal.grants);
      pid := Some (spawn_renamed ~sock ~journal [ "--recover" ]);
      let c = get "connect" (Client.connect ~path:sock ()) in
      Alcotest.(check int) "recovered the held names" window
        (stat_int c "recovered");
      Alcotest.(check int) "and occupies nothing else" window
        (stat_int c "taken");
      Client.close c;
      Alcotest.(check (list int)) "compacted to the held names"
        (List.sort compare !held)
        (List.map fst (Journal.replay (scan_ok journal).Journal.records).Journal.grants);
      match kill Sys.sigterm with
      | Some (Unix.WEXITED 0) -> ()
      | _ -> Alcotest.fail "recovered daemon did not drain cleanly")

(* Craft a journal holding live grants, as a SIGKILL-ed daemon leaves
   behind. *)
let craft_journal ?(epochs = [ (0, 5); (1, 7); (2, 9) ]) path =
  (match Journal.open_append ~path with
  | Error e -> Alcotest.failf "craft: %s" e
  | Ok j ->
    List.iter
      (fun (name, epoch) ->
        Journal.append j (Journal.Grant { name; epoch; client = 99; token = 0 }))
      epochs;
    Journal.close j);
  List.map fst epochs

let test_e2e_recovery () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  let names = craft_journal journal in
  let s = start_server (base_cfg ~lease_ttl:0.6 ~journal ~recover:true path) in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      Alcotest.(check int) "journaled grants re-occupied"
        (List.length names) (stat_int c "recovered");
      Alcotest.(check int) "recovered slots are taken" (List.length names)
        (stat_int c "taken");
      (* While the restored leases live, no client may be granted a
         recovered name — that would be a double grant. *)
      let granted =
        List.init 30 (fun i -> getf "acquire" (Client.acquire c ~client:i))
      in
      List.iter
        (fun n ->
          if List.mem n names then
            Alcotest.failf "recovered name %d double-granted" n)
        granted;
      List.iteri
        (fun i n -> getf "release" (Client.release c ~client:i ~name:n))
        granted;
      (* Nobody renews the orphans: one TTL later the sweep frees them,
         and the namespace is whole again. *)
      wait_for "orphan leases to expire" (fun () -> stat_int c "taken" = 0);
      Client.close c;
      match stop_server s with
      | Error e -> Alcotest.failf "drain: %s" e
      | Ok r ->
        Alcotest.(check int) "report counts recovery" (List.length names)
          r.Server.recovered;
        Alcotest.(check bool) "clean exit" true (Server.report_clean r))

let test_e2e_recovery_refused () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  ignore (craft_journal journal);
  let s = Server.spawn (base_cfg ~journal ~recover:false path) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      match Server.join s with
      | Ok _ -> Alcotest.fail "booted over live grants without --recover"
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error is the recovery-required refusal: %s" e)
          true
          (Server.recovery_refused e))

let test_e2e_damaged_journal_refused () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  ignore (craft_journal journal);
  (* Corrupt a complete record: recovery must refuse even with
     --recover — this is damage, not a crash artifact. *)
  let fd = Unix.openfile journal [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 12 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xde" 0 1);
  Unix.close fd;
  let s = Server.spawn (base_cfg ~journal ~recover:true path) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      match Server.join s with
      | Ok _ -> Alcotest.fail "booted over a damaged journal"
      | Error e ->
        Alcotest.(check bool) "damage is not the recovery-required case"
          false
          (Server.recovery_refused e))

let test_e2e_recovery_compacts () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  (* Live grants buried under released/expired history. *)
  (match Journal.open_append ~path:journal with
  | Error e -> Alcotest.failf "craft: %s" e
  | Ok j ->
    for i = 0 to 19 do
      Journal.append j
        (Journal.Grant { name = i; epoch = i + 1; client = 1; token = 0 });
      if i >= 2 then
        Journal.append j (Journal.Release { name = i; epoch = i + 1 })
    done;
    Journal.close j);
  let s = start_server (base_cfg ~lease_ttl:0.5 ~journal ~recover:true path) in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      Alcotest.(check int) "only the live grants recovered" 2
        (stat_int c "recovered");
      Client.close c;
      (* Boot-time compaction rewrote history down to the live set. *)
      let scan =
        match Journal.scan ~path:journal with
        | Ok sc -> sc
        | Error e -> Alcotest.failf "scan: %s" e
      in
      let grants, others =
        List.partition
          (function Journal.Grant _ -> true | _ -> false)
          scan.Journal.records
      in
      Alcotest.(check int) "compacted journal starts from two grants" 2
        (List.length grants);
      (* Anything after compaction is this boot's own activity (the
         orphans' expiry records), never stale history. *)
      List.iter
        (function
          | Journal.Expire _ | Journal.Release _ -> ()
          | Journal.Grant _ -> ())
        others)

let test_e2e_durable_reconnect () =
  let path = fresh_socket_path () in
  let s1 = start_server (base_cfg path) in
  let d = Client.Durable.create ~path ~seed:5 () in
  Fun.protect
    ~finally:(fun () -> Client.Durable.close d)
    (fun () ->
      ignore (getf "acquire" (Client.Durable.acquire d ~client:1));
      (* The daemon goes away (graceful here; the SIGKILL variant is the
         chaos soak's job) and a new one takes over the socket: the
         durable client must ride across with backoff, not fail. *)
      (match stop_server s1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "first daemon: %s" e);
      let s2 = start_server (base_cfg path) in
      Fun.protect
        ~finally:(fun () -> try ignore (stop_server s2) with _ -> ())
        (fun () ->
          ignore (getf "acquire again" (Client.Durable.acquire d ~client:1));
          Alcotest.(check bool) "the reconnect was counted" true
            (Client.Durable.reconnects d >= 1)))

(* ------------------------------------------------------------------ *)

let suite =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  [
    ( "survive.lease",
      [
        tc "grant and release" `Quick test_lease_grant_release;
        tc "expiry and epoch monotonicity" `Quick
          test_lease_expiry_and_monotonicity;
        tc "renew extends" `Quick test_lease_renew_extends;
        tc "token binding" `Quick test_lease_token_binding;
        tc "restore" `Quick test_lease_restore;
        qc qcheck_lease_ttl_boundary;
      ] );
    ( "survive.journal",
      [
        tc "round-trip" `Quick test_journal_roundtrip;
        tc "torn tail" `Quick test_journal_torn_tail;
        tc "crc damage" `Quick test_journal_crc_damage;
        tc "replay" `Quick test_journal_replay;
        tc "rewrite compaction" `Quick test_journal_rewrite;
        tc "kill-point sweep" `Quick test_journal_kill_point_sweep;
        tc "batch kill-point sweep" `Quick test_journal_batch_kill_point_sweep;
      ] );
    ( "survive.e2e",
      [
        tc "lease expiry reclaims silent holders" `Quick test_e2e_lease_expiry;
        tc "renew keeps names alive" `Quick test_e2e_renew_keeps_alive;
        tc "idempotent acquire dedup" `Quick test_e2e_token_dedup;
        tc "journal write-ahead rollback" `Quick test_e2e_journal_write_ahead;
        tc "group-commit batch rollback" `Quick test_e2e_journal_batch_rollback;
        tc "short write survived, journal clean" `Quick
          test_e2e_short_write_keeps_serving;
        tc "name recycling survives SIGKILL" `Quick
          test_e2e_recycle_sigkill_recover;
        tc "crash recovery re-occupies grants" `Quick test_e2e_recovery;
        tc "recovery refused without --recover" `Quick
          test_e2e_recovery_refused;
        tc "damaged journal refused" `Quick test_e2e_damaged_journal_refused;
        tc "recovery compacts the journal" `Quick test_e2e_recovery_compacts;
        tc "durable client reconnects" `Quick test_e2e_durable_reconnect;
      ] );
  ]
