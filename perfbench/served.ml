(* The served workloads: [renamed] as a separate process with one shard,
   loaded by this single-threaded process over 2 binary connections. *)

type spec = { mode : Drive.mode; journal : bool }

let spec = function
  | "serve_open" -> Some { mode = Drive.Open { rate = 20_000.; hold_mean = 0.001 }; journal = false }
  | "serve_closed" -> Some { mode = Drive.Closed { window = 16 }; journal = false }
  | "serve_journal" -> Some { mode = Drive.Closed { window = 16 }; journal = true }
  | _ -> None

let conns = 2

let us h q = Util.hdr_quantile h q /. 1000.

(* Closed-loop figures are medians over the run's half-second slices,
   so a stall of the shared host moves one slice, not the run. *)
let over slices f = Array.to_list (Array.map f slices)
let slice_rate slices = Util.median (over slices (fun h -> float_of_int (Stats.Hdr.count h) /. Drive.slice_s))
let slice_us slices q = Util.median (over slices (fun h -> us h q))

(* Slot conservation, read by [Drive] before its connections close:
   after the drain nothing is taken. *)
let drained (r : Drive.result) =
  match r.Drive.taken with
  | Some 0 -> []
  | Some n -> [ Printf.sprintf "daemon holds %d name(s) after the drain" n ]
  | None -> [ "drain incomplete" ]

(* Peak RSS, then SIGTERM: the daemon must drain and exit 0. *)
let finish d =
  let rss = Util.peak_rss_mb (string_of_int d.Daemon.pid) in
  let code = Daemon.stop d in
  (rss, if code <> 0 then [ Printf.sprintf "daemon exited %d" code ] else [])

type episode = {
  setup : float;
  rss : float;
  attempted : int;
  failed : int;
  problems : string list;
  latency : Stats.Hdr.t;
  slices : Stats.Hdr.t array;  (** closed loop only *)
  per_s : float;  (** open loop: grants inside the window per second *)
}

(* One fresh daemon: spawn it (the set-up time), load it for [seconds],
   audit the drain, stop it. *)
let episode ~exe ~dir ~seed ~seconds ~name ~k sp =
  let d, setup = Daemon.spawn ~exe ~dir ~tag:(Printf.sprintf "%s-%d" name k) ~seed ~journal:sp.journal in
  let gen_seed = (seed * 16) + k in
  let e =
    match sp.mode with
    | Drive.Open { rate; hold_mean } -> (
      let cfg =
        {
          (Service.Load_gen.default_config ~path:d.Daemon.socket) with
          conns;
          clients = 64;
          rate;
          duration_s = seconds;
          hold = Service.Load_gen.Exponential hold_mean;
          seed = gen_seed;
        }
      in
      match Service.Load_gen.run cfg with
      | Error e -> failwith ("load generator: " ^ e)
      | Ok r ->
        let open Service.Load_gen in
        let problems =
          (if r.violations > 0 then [ Printf.sprintf "%d uniqueness violation(s)" r.violations ] else [])
          @ (if r.leaked <> 0 then [ Printf.sprintf "leaked %d" r.leaked ] else [])
          @ if not r.drain_complete then [ "drain incomplete" ] else []
        in
        {
          setup;
          rss = 0.;
          attempted = r.offered;
          failed =
            r.shed + r.expired + r.acquire_failures + r.errors + r.timeouts + r.violations + r.dropped;
          problems;
          latency = r.latency;
          slices = [||];
          per_s = r.goodput;
        })
    | Drive.Closed _ ->
      let r = Drive.run ~path:d.Daemon.socket ~conns ~seed:gen_seed ~seconds sp.mode in
      {
        setup;
        rss = 0.;
        attempted = r.Drive.attempted;
        failed = r.Drive.failed;
        problems =
          (if r.Drive.violations > 0 then
             [ Printf.sprintf "%d uniqueness violation(s)" r.Drive.violations ]
           else [])
          @ drained r;
        latency = r.Drive.latency;
        slices = r.Drive.slices;
        per_s = 0.;
      }
  in
  let rss, p2 = finish d in
  Option.iter Util.remove_if_exists d.Daemon.journal;
  { e with rss; problems = e.problems @ p2 }

let episodes = 5

(* Spawns before each episode that only time the set-up: a spawn costs
   a few ms, and [setup_s] is the median over every spawn of the run. *)
let setup_only = 3

let spawn_only ~exe ~dir ~seed ~name ~k sp =
  let d, setup =
    Daemon.spawn ~exe ~dir ~tag:(Printf.sprintf "%s-setup-%d" name k) ~seed ~journal:sp.journal
  in
  let code = Daemon.stop d in
  Option.iter Util.remove_if_exists d.Daemon.journal;
  (setup, if code <> 0 then [ Printf.sprintf "daemon exited %d" code ] else [])

let e2e ~exe ~dir ~seed ~seconds ~name sp =
  let _, sim_handles = Simbench.setup ~seed in
  let runs =
    List.init episodes (fun k ->
        let spawns =
          List.init setup_only (fun j -> spawn_only ~exe ~dir ~seed ~name ~k:((k * setup_only) + j) sp)
        in
        let e = episode ~exe ~dir ~seed ~seconds:(seconds /. float_of_int episodes) ~name ~k sp in
        ( { e with problems = List.concat_map snd spawns @ e.problems },
          List.map fst spawns,
          Simbench.control_slice sim_handles ~seed ))
  in
  let es = List.map (fun (e, _, _) -> e) runs in
  let setups = List.concat_map (fun (e, s, _) -> e.setup :: s) runs in
  let sim =
    match List.map (fun (_, _, c) -> c) runs with
    | first :: rest -> List.fold_left Simbench.merge first rest
    | [] -> assert false
  in
  let sum f = List.fold_left (fun a e -> a + f e) 0 es in
  let p50, p90, per_s =
    match sp.mode with
    | Drive.Open _ ->
      let h = Stats.Hdr.create () in
      List.iter (fun e -> Stats.Hdr.merge ~into:h e.latency) es;
      (us h 0.5, us h 0.9, Util.median (List.map (fun e -> e.per_s) es))
    | Drive.Closed _ ->
      let slices = Array.concat (List.map (fun e -> e.slices) es) in
      (slice_us slices 0.5, slice_us slices 0.9, slice_rate slices)
  in
  let problems = List.concat_map (fun e -> e.problems) es in
  let reference_bad, _ = Simbench.references sim in
  let problems =
    if Simbench.ok sim ~reference_bad then problems else "simulator control failed its check" :: problems
  in
  {
    Util.correct = problems = [];
    attempted = sum (fun e -> e.attempted);
    failed = sum (fun e -> e.failed);
    problems;
    metrics =
      [
        ("acquire_p50_us", p50);
        ("acquire_p90_us", p90);
        ("acquires_per_s", per_s);
        ("sim_steps_per_s_small", Simbench.small_rate sim);
        ("sim_steps_per_s_large", Simbench.large_rate sim);
        ("setup_s", Util.median setups);
        ("rss_mb", Util.median (List.map (fun e -> e.rss) es));
      ];
  }

let span_layers =
  [| "request"; "client.post"; "client.recv"; "client.flush"; "loadgen.wait"; "shard.batch";
     "wire.batch"; "journal.append" |]

(* Traced run: one daemon; an untraced half (daemon, server and
   generator counters, read from outside), then a traced half (spans
   around every client call), then the in-process layer timings. *)
let traced ~exe ~dir ~seed ~seconds ~name sp =
  let spans = Spans.create span_layers in
  let d, _ = Daemon.spawn ~exe ~dir ~tag:(name ^ "-traced") ~seed ~journal:sp.journal in
  let path = d.Daemon.socket in
  let half = seconds /. 2. in
  let snap () = (Util.cpu_ns d.Daemon.pid, Util.vol_ctxsw d.Daemon.pid, Util.self_cpu_s (), Daemon.stats d) in
  let cpu0, sw0, g0, s0 = snap () in
  let ra = Drive.run ~path ~conns ~seed ~seconds:half sp.mode in
  let cpu1, sw1, g1, s1 = snap () in
  let rb = Drive.run ~spans ~path ~conns ~seed:(seed + 1) ~seconds:half sp.mode in
  let s2 = Daemon.stats d in
  let _, problems = finish d in
  let ops = float_of_int (max 1 ra.Drive.acquired) in
  let stat s k = float_of_int (Daemon.int_stat s k) in
  let journal =
    match d.Daemon.journal with
    | None -> []
    | Some p -> (
      match Service.Journal.scan ~path:p with
      | Error e -> failwith ("journal scan: " ^ e)
      | Ok sc ->
        Util.remove_if_exists p;
        let all = float_of_int (ra.Drive.acquired + rb.Drive.acquired) in
        [
          ("journal.records_per_op", float_of_int (List.length sc.Service.Journal.records) /. all);
          ("journal.bytes_per_op", float_of_int sc.Service.Journal.bytes /. all);
          ("journal.append_us", Layers.journal_append ~spans ~dir ~seconds:0.5);
        ])
  in
  let shard_ns, shard_words, shard_probes = Layers.shard ~spans ~seed ~seconds:0.5 in
  let daemon_probes = stat s2 "probes" /. stat s2 "acquires" in
  let problems =
    if Float.abs (shard_probes -. daemon_probes) > 0.05 *. daemon_probes then
      Printf.sprintf "probes per acquire: in-process shard %.4f vs daemon %.4f" shard_probes daemon_probes
      :: problems
    else problems
  in
  let wire_ns, wire_bytes = Layers.wire ~spans ~seconds:0.3 in
  let client_ns =
    Spans.total_ns spans "client.post" + Spans.total_ns spans "client.recv"
    + Spans.total_ns spans "client.flush"
  in
  let overhead =
    match sp.mode with
    | Drive.Open _ -> (us rb.Drive.latency 0.5 -. us ra.Drive.latency 0.5) /. us ra.Drive.latency 0.5
    | Drive.Closed _ ->
      let rate r = slice_rate r.Drive.slices in
      (rate ra -. rate rb) /. rate ra
  in
  Spans.write spans (Filename.concat dir (Printf.sprintf "%s-s%d.spans.tsv" name seed));
  let attempted = ra.Drive.attempted + rb.Drive.attempted in
  let failed = ra.Drive.failed + rb.Drive.failed in
  let problems =
    if ra.Drive.violations + rb.Drive.violations > 0 then "uniqueness violation" :: problems else problems
  in
  let problems = drained ra @ drained rb @ problems in
  {
    Util.correct = problems = [];
    attempted;
    failed;
    problems;
    metrics =
      [
        ("loadgen.late_p90_us", us ra.Drive.late 0.9);
        ("loadgen.cpu_us_per_op", (g1 -. g0) *. 1e6 /. ops);
        ("client.call_us_per_op", float_of_int client_ns /. 1000. /. float_of_int (max 1 rb.Drive.acquired));
        ("daemon.cpu_us_per_op", float_of_int (cpu1 - cpu0) /. 1000. /. ops);
        ("daemon.vol_ctxsw_per_op", float_of_int (sw1 - sw0) /. ops);
        ("server.requests_per_op", (stat s1 "requests" -. stat s0 "requests") /. ops);
        ("server.queue_peak", stat s2 "queue_peak");
        ("daemon.acquire_p99_us", us ra.Drive.latency 0.99);
        ("daemon.probes_per_acquire", daemon_probes);
        ("shard.acquire_release_ns", shard_ns);
        ("shard.words_per_op", shard_words);
        ("shard.probes_per_acquire", shard_probes);
        ("wire.roundtrip_ns", wire_ns);
        ("wire.bytes_per_op", wire_bytes);
        ("trace.overhead_pct", 100. *. overhead);
      ]
      @ journal;
  }
