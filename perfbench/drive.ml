(* The benchmark's own load generator over [Service.Client]'s pipelined
   API ([post] / [flush_nb] / [recv]), single-threaded, one select loop
   over every connection.

   - [Closed window]: each connection keeps [window] acquire -> release
     cycles in flight; a granted name is released at once and the
     release's reply posts the next acquire.  Latency runs from the
     post.  This is the capacity workload.
   - [Open]: Poisson acquire arrivals at [rate], exponential holds; an
     acquire is posted when due whatever is still in flight, and its
     latency runs from the scheduled time.  [Service.Load_gen] drives
     the untraced open-loop workload; this mode exists for the traced
     run, which needs spans around every client call and the send
     times, and [Load_gen] exposes neither.

   Both audit uniqueness from outside: a name granted while this run
   still holds it (no release posted yet) is a violation.  After the
   drain, the daemon's [taken] count is read over a connection that is
   still open: closing it first would let the server release whatever
   the session still held and hide a leak.

   [late] records how far the generator ran behind: in the open loop,
   post time minus scheduled time; in the closed loop, post time of the
   follow-up request minus the receipt of the reply that triggered it. *)

type mode = Closed of { window : int } | Open of { rate : float; hold_mean : float }

type result = {
  attempted : int;  (** acquires posted *)
  acquired : int;
  failed : int;  (** error/busy/expired replies, timeouts and violations *)
  violations : int;
  latency : Stats.Hdr.t;  (** acquire latency, ns *)
  slices : Stats.Hdr.t array;
      (** the same latencies split by when the grant arrived, one
          histogram per [slice_s] of the window *)
  late : Stats.Hdr.t;  (** generator lateness, ns *)
  taken : int option;
      (** the daemon's [taken] count after the drain, read before the
          connections close; [None] if the drain did not complete *)
}

let slice_s = 0.5

type op = Acq of { at : float; t0 : int } | Rel

(* Scheduled releases of the open loop, a binary heap on due time. *)
module Heap = struct
  type t = { mutable at : float array; mutable v : int array; mutable len : int }

  let create () = { at = Array.make 256 0.; v = Array.make 256 0; len = 0 }
  let swap h i j =
    let a = h.at.(i) and v = h.v.(i) in
    h.at.(i) <- h.at.(j);
    h.v.(i) <- h.v.(j);
    h.at.(j) <- a;
    h.v.(j) <- v

  let push h at v =
    if h.len = Array.length h.at then begin
      h.at <- Array.append h.at (Array.make h.len 0.);
      h.v <- Array.append h.v (Array.make h.len 0)
    end;
    h.at.(h.len) <- at;
    h.v.(h.len) <- v;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.at.(!i) < h.at.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let top h = h.at.(0)

  let pop h =
    let v = h.v.(0) in
    h.len <- h.len - 1;
    h.at.(0) <- h.at.(h.len);
    h.v.(0) <- h.v.(h.len);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.len && h.at.(l) < h.at.(!s) then s := l;
      if r < h.len && h.at.(r) < h.at.(!s) then s := r;
      if !s <> !i then (swap h !s !i; i := !s) else go := false
    done;
    v
end

let run ?spans ~path ~conns ~seed ~seconds mode =
  let conn =
    Array.init conns (fun _ ->
        match Service.Client.connect ~path () with
        | Ok c -> c
        | Error e -> failwith e)
  in
  let fds = Array.to_list (Array.map Service.Client.fd conn) in
  let pending = Array.init conns (fun _ -> Hashtbl.create 64) in
  let held = Hashtbl.create 256 in
  let latency = Stats.Hdr.create () and late = Stats.Hdr.create () in
  let rng = Prng.Splitmix.of_int seed in
  let heap = Heap.create () in
  let attempted = ref 0 and acquired = ref 0 in
  let failed = ref 0 and violations = ref 0 in
  let rr = ref 0 in
  let sp = Option.map (fun s -> (s, Spans.layer s "request", Spans.layer s "client.post",
                                  Spans.layer s "client.recv", Spans.layer s "client.flush",
                                  Spans.layer s "loadgen.wait")) spans in
  let gid ci id = (ci lsl 32) lor id in
  let post ci req =
    match sp with
    | None -> Service.Client.post conn.(ci) req
    | Some (s, _, l_post, _, _, _) ->
      let t0 = Util.now_ns () in
      Service.Client.post conn.(ci) req;
      Spans.record s ~layer:l_post ~id:(gid ci (Service.Wire.request_id req)) ~t0
        ~t1:(Util.now_ns ()) ~calls:1
  in
  let post_acquire ci ~at ~t_ref =
    let c = conn.(ci) in
    let id = Service.Client.fresh_id c in
    let t0 = Util.now_ns () in
    Stats.Hdr.record late (t0 - int_of_float (t_ref *. 1e9));
    Hashtbl.replace pending.(ci) id (Acq { at; t0 });
    incr attempted;
    post ci (Service.Wire.Acquire { id; client = !rr land 63; token = 0; deadline_ms = 0 });
    incr rr
  in
  let post_release ci name =
    let c = conn.(ci) in
    let id = Service.Client.fresh_id c in
    Hashtbl.remove held name;
    Hashtbl.replace pending.(ci) id Rel;
    post ci (Service.Wire.Release { id; client = 0; name })
  in
  let n_slices = int_of_float (seconds /. slice_s) in
  if n_slices = 0 then failwith (Printf.sprintf "a load window of %g s holds no %g s slice" seconds slice_s);
  let t_start = Util.now () in
  let t_end = t_start +. seconds in
  let slices = Array.init n_slices (fun _ -> Stats.Hdr.create ()) in
  let drain_deadline = t_end +. 10. in
  let next_arrival = ref infinity in
  (match mode with
  | Closed { window } ->
    for ci = 0 to conns - 1 do
      for _ = 1 to window do
        post_acquire ci ~at:(Util.now ()) ~t_ref:(Util.now ())
      done
    done
  | Open { rate; _ } ->
    next_arrival := t_start +. Prng.Dist.exponential_sample rng ~rate);
  let on_response ci ~t_rx r =
    let id = Service.Wire.response_id r in
    match Hashtbl.find_opt pending.(ci) id with
    | None -> incr failed
    | Some op -> (
      Hashtbl.remove pending.(ci) id;
      match (op, r) with
      | Acq { at; t0 }, Service.Wire.Acquired { name; _ } ->
        incr acquired;
        let ns = int_of_float ((t_rx -. at) *. 1e9) in
        Stats.Hdr.record latency ns;
        let k = int_of_float ((t_rx -. t_start) /. slice_s) in
        if k < Array.length slices then Stats.Hdr.record slices.(k) ns;
        (match sp with
        | Some (s, l_req, _, _, _, _) ->
          Spans.record s ~layer:l_req ~id:(gid ci id) ~t0 ~t1:(int_of_float (t_rx *. 1e9)) ~calls:1
        | None -> ());
        if Hashtbl.mem held name then incr violations
        else begin
          Hashtbl.replace held name ci;
          match mode with
          | Closed _ ->
            Stats.Hdr.record late (Util.now_ns () - int_of_float (t_rx *. 1e9));
            post_release ci name
          | Open { hold_mean; _ } ->
            let hold = Prng.Dist.exponential_sample rng ~rate:(1. /. hold_mean) in
            Heap.push heap (t_rx +. hold) ((name lsl 8) lor ci)
        end
      | Rel, Service.Wire.Released _ -> (
        match mode with
        | Closed _ when t_rx < t_end -> post_acquire ci ~at:(Util.now ()) ~t_ref:t_rx
        | _ -> ())
      | Acq _, _ -> (
        incr failed;
        match mode with
        | Closed _ when t_rx < t_end -> post_acquire ci ~at:(Util.now ()) ~t_ref:t_rx
        | _ -> ())
      | Rel, _ -> incr failed)
  in
  let recv ci =
    match sp with
    | None -> Service.Client.recv conn.(ci) ~timeout:0.
    | Some (s, _, _, l_recv, _, _) ->
      let t0 = Util.now_ns () in
      let r = Service.Client.recv conn.(ci) ~timeout:0. in
      let id = match r with Ok (Some r) -> gid ci (Service.Wire.response_id r) | _ -> -1 in
      Spans.record s ~layer:l_recv ~id ~t0 ~t1:(Util.now_ns ()) ~calls:1;
      r
  in
  let rec pump ci =
    match recv ci with
    | Ok (Some r) ->
      on_response ci ~t_rx:(Util.now ()) r;
      pump ci
    | Ok None -> ()
    | Error e -> failwith ("connection lost: " ^ e)
  in
  let in_flight () = Array.fold_left (fun a h -> a + Hashtbl.length h) 0 pending in
  let finished = ref false in
  while not !finished do
    let t = Util.now () in
    (match mode with
    | Open { rate; _ } ->
      while !next_arrival <= t && !next_arrival < t_end do
        let ci = !rr mod conns in
        post_acquire ci ~at:!next_arrival ~t_ref:!next_arrival;
        next_arrival := !next_arrival +. Prng.Dist.exponential_sample rng ~rate
      done;
      while heap.Heap.len > 0 && (Heap.top heap <= t || t >= t_end) do
        let v = Heap.pop heap in
        post_release (v land 0xff) (v lsr 8)
      done
    | Closed _ -> ());
    Array.iter
      (fun c ->
        if Service.Client.pending_out c then
          match sp with
          | None -> Service.Client.flush_nb c
          | Some (s, _, _, _, l_flush, _) ->
            let t0 = Util.now_ns () in
            Service.Client.flush_nb c;
            Spans.record s ~layer:l_flush ~id:(-1) ~t0 ~t1:(Util.now_ns ()) ~calls:1)
      conn;
    let t = Util.now () in
    if t >= t_end && in_flight () = 0 && heap.Heap.len = 0 then finished := true
    else if t > drain_deadline then begin
      failed := !failed + in_flight ();
      finished := true
    end
    else begin
      let timeout =
        match mode with
        | Closed _ -> 0.05
        | Open _ ->
          let next_rel = if heap.Heap.len > 0 then Heap.top heap else infinity in
          let next = if t >= t_end then next_rel else Float.min !next_arrival next_rel in
          Float.max 0. (Float.min 0.05 (next -. t))
      in
      let t0 = Util.now_ns () in
      let ready =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      (match sp with
      | Some (s, _, _, _, _, l_wait) ->
        Spans.record s ~layer:l_wait ~id:(-1) ~t0 ~t1:(Util.now_ns ()) ~calls:1
      | None -> ());
      Array.iteri (fun ci c -> if List.mem (Service.Client.fd c) ready then pump ci) conn
    end
  done;
  let taken =
    if in_flight () > 0 || heap.Heap.len > 0 then None
    else
      match Service.Client.stats ~timeout:5. conn.(0) with
      | Ok j -> Some (Daemon.int_stat (Jsonu.obj j) "taken")
      | Error f -> failwith ("stats after the drain: " ^ Service.Client.failure_message f)
  in
  Array.iter Service.Client.close conn;
  {
    attempted = !attempted;
    acquired = !acquired;
    failed = !failed + !violations;
    violations = !violations;
    latency;
    slices;
    late;
    taken;
  }
