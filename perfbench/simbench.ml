(* ReBatching with t0 = 3 (the daemon's algorithm) through the streaming
   simulator, [Sim.Fast_core.seq_create] / [seq_run], with the location
   space preallocated to 2n cells.

   Two sizes use the same layers differently: at n = 10^4 the 20 KB space
   stays in the core's caches and the transition and PRNG dominate; at
   n = 10^6 the 2 MB space overflows a core's 1 MB L2, and memory latency
   dominates.  The large size is 10^6, not 10^7: on a host whose 32 MB L3
   is shared with other tenants, a 20 MB space swung between 25 and 80 ns
   per step within minutes as neighbours evicted it, while 2 MB held
   within ~3% (see NOTES.md). *)

open Sim

let small_n = 10_000
let large_n = 1_000_000

let instance n = Renaming.Rebatching.make ~t0:3 ~n ()
let algo n = Renaming.Fast_algo.rebatching (instance n)
let namespace n = Renaming.Rebatching.size (instance n)

(* Small trials cycle through 16 seeds derived from the workload seed;
   every large trial reuses one seed, so each does identical work. *)
let small_seed seed k = (seed lsl 8) lor (k land 15)
let large_seed seed = (seed lsl 8) lor 0xff

type handles = { small : Fast_core.seq; large : Fast_core.seq }

(* A trial passes when every process finished holding a name, the names
   are distinct (one process per won cell: wins = named = n) and all lie
   below the namespace. *)
let trial_ok q ~n =
  Fast_core.seq_named q = n
  && Location_space.win_count (Fast_core.seq_space q) = n
  && Fast_core.seq_max_name q < namespace n

(* Handle creation plus the first-touch warm-up trial, at both sizes. *)
let setup ~seed =
  Gc.full_major ();
  let t0 = Util.now () in
  let small = Fast_core.seq_create ~capacity:(2 * small_n) ~algo:(algo small_n) () in
  Fast_core.seq_run small ~seed:(small_seed seed 0) ~n:small_n;
  let large = Fast_core.seq_create ~capacity:(2 * large_n) ~algo:(algo large_n) () in
  Fast_core.seq_run large ~seed:(large_seed seed) ~n:large_n;
  let dt = Util.now () -. t0 in
  if not (trial_ok small ~n:small_n && trial_ok large ~n:large_n) then
    failwith "sim: warm-up trial failed its output check";
  (dt, { small; large })

type sample = {
  rates : float list;  (** simulated steps per host second, per trial *)
  acq_rates : float list;  (** simulated acquires (processes) per host second, per trial *)
  trials : int;
  bad : int;  (** trials failing an output check *)
  steps : (int * (int * int)) list;  (** seed -> (total, max) steps, as first seen *)
}

(* Run trials on [q] until [seconds] have passed and at least [min_trials]
   ran.  A repeated seed must reproduce its first step counts. *)
let measure q ~n ~seeds ~seconds ~min_trials =
  let deadline = Util.now () +. seconds in
  let rec go i acc =
    if i >= min_trials && Util.now () >= deadline then acc
    else
      let s = seeds i in
      let t0 = Util.now () in
      Fast_core.seq_run q ~seed:s ~n;
      let dt = Util.now () -. t0 in
      let total = Fast_core.seq_total_steps q and mx = Fast_core.seq_max_steps q in
      let ok =
        trial_ok q ~n
        && match List.assoc_opt s acc.steps with
           | Some st -> st = (total, mx)
           | None -> true
      in
      go (i + 1)
        {
          rates = (float_of_int total /. dt) :: acc.rates;
          acq_rates = (float_of_int n /. dt) :: acc.acq_rates;
          trials = acc.trials + 1;
          bad = (if ok then acc.bad else acc.bad + 1);
          steps = (if List.mem_assoc s acc.steps then acc.steps else (s, (total, mx)) :: acc.steps);
        }
  in
  go 0 { rates = []; acq_rates = []; trials = 0; bad = 0; steps = [] }

(* The batch kernel ([run_sequential ~shuffled:false]) is a separate
   implementation that the streaming kernel must match: same total and
   maximum steps, distinct names below the namespace.  Checked for every
   small seed a run used, outside the measured loop.  Also returns the
   per-process step counts, which [seq_run] does not keep. *)
let reference ~n (s, (total, mx)) =
  let r = Fast_core.run_sequential_once ~shuffled:false ~seed:s ~n ~algo:(algo n) () in
  let m = namespace n in
  let seen = Bytes.make m '\000' in
  let distinct =
    Array.for_all
      (function
        | Some u when u >= 0 && u < m && Bytes.get seen u = '\000' ->
          Bytes.set seen u '\001';
          true
        | _ -> false)
      r.Runner.names
  in
  (distinct && r.Runner.total_steps = total && r.Runner.max_steps = mx, r.Runner.steps)

type rates = { at_small : sample; at_large : sample }

let run h ~seed ~small_s ~large_s ~large_min =
  let at_small =
    measure h.small ~n:small_n ~seeds:(small_seed seed) ~seconds:small_s ~min_trials:16
  in
  let at_large =
    measure h.large ~n:large_n ~seeds:(fun _ -> large_seed seed) ~seconds:large_s
      ~min_trials:large_min
  in
  { at_small; at_large }

(* Step rates are the 90th percentile of the trials' rates.  A trial
   does fixed work, so disturbance only ever slows it, and on a shared
   host it comes in phases; the fast tail is the least disturbed
   reading. *)
let small_rate r = Stats.Summary.percentile (Array.of_list r.at_small.rates) 0.9
let large_rate r = Stats.Summary.percentile (Array.of_list r.at_large.rates) 0.9

(* Run the reference check once per distinct small seed of [r], after
   the trials; returns the failures and how many processes took each
   step count (index = steps). *)
let references r =
  List.fold_left
    (fun (bad, hist) st ->
      let ok, steps = reference ~n:small_n st in
      let mx = Array.fold_left max 0 steps in
      let hist =
        if mx < Array.length hist then hist
        else Array.append hist (Array.make (mx + 1 - Array.length hist) 0)
      in
      Array.iter (fun k -> hist.(k) <- hist.(k) + 1) steps;
      ((if ok then bad else bad + 1), hist))
    (0, [||]) r.at_small.steps

let ok r ~reference_bad = r.at_small.bad = 0 && r.at_large.bad = 0 && reference_bad = 0
let trials r = r.at_small.trials + r.at_large.trials

(* Served workloads carry the same two step rates as a same-run control
   of the host's speed: one short slice after each daemon has exited,
   so the samples spread over the whole run. *)
let control_slice h ~seed = run h ~seed ~small_s:0.1 ~large_s:0.5 ~large_min:3

let merge a b =
  let m x y =
    {
      rates = x.rates @ y.rates;
      acq_rates = x.acq_rates @ y.acq_rates;
      trials = x.trials + y.trials;
      bad = x.bad + y.bad;
      steps = x.steps @ List.filter (fun (s, _) -> not (List.mem_assoc s x.steps)) y.steps;
    }
  in
  { at_small = m a.at_small b.at_small; at_large = m a.at_large b.at_large }

(* ------------------------------------------------------------------ *)
(* Traced run: the same trial re-run through the benchmark's own copy of
   the streaming loop, which records every draw, probe and TAS outcome
   per chunk of processes, then replays each chunk through one layer at
   a time:
   - prng: [Prng.Flat.seed_stream] per process + [Prng.Flat.int] per
     recorded bound;
   - space: the recorded probe sequence against a second, warm space of
     2n cells (same order, so the same outcomes);
   - algo: the [Fast_algo] transitions fed the recorded draws and
     outcomes.
   The loop itself must reproduce [seq_run]'s counts for the seed. *)

let chunk = 4096

type grow = { mutable a : int array; mutable len : int }

let push g v =
  if g.len = Array.length g.a then g.a <- Array.append g.a (Array.make g.len 0);
  Array.unsafe_set g.a g.len v;
  g.len <- g.len + 1

type layer_times = {
  n : int;
  steps : int;
  max_steps : int;
  draws : int;
  record_ns : int;  (** the recording loop itself *)
  prng_ns : int;
  space_ns : int;
  algo_ns : int;
  mismatches : int;  (** replays that diverged from the recording *)
}

let traced_trial ~spans ~n ~seed ~space ~shadow =
  let algo = algo n in
  let slots = Renaming.Fast_algo.slots algo in
  let init = algo.Renaming.Fast_algo.init and resume = algo.Renaming.Fast_algo.resume in
  let l_rec = Spans.layer spans "core.record"
  and l_prng = Spans.layer spans "prng.batch"
  and l_space = Spans.layer spans "space.batch"
  and l_algo = Spans.layer spans "algo.batch" in
  Location_space.clear space;
  Location_space.clear shadow;
  let bank = Prng.Flat.create 1 and bank2 = Prng.Flat.create 1 in
  let locs = { a = Array.make 65536 0; len = 0 } in
  let won = { a = Array.make 65536 0; len = 0 } in
  let draws = { a = Array.make 65536 0; len = 0 } in
  let bounds = { a = Array.make 65536 0; len = 0 } in
  let draw_end = Array.make chunk 0 in
  let rand =
    Renaming.Fast_algo.fixed_rand (fun _ bound ->
        let v = Prng.Flat.int bank 0 bound in
        push draws v;
        push bounds bound;
        v)
  in
  let di = ref 0 in
  let replay_rand =
    Renaming.Fast_algo.fixed_rand (fun _ _ ->
        let v = Array.unsafe_get draws.a !di in
        incr di;
        v)
  in
  let st = Array.make slots 0 and st2 = Array.make slots 0 in
  let steps = ref 0 and max_steps = ref 0 and ndraws = ref 0 in
  let record_ns = ref 0 and prng_ns = ref 0 and space_ns = ref 0 and algo_ns = ref 0 in
  let mismatches = ref 0 in
  let replay ~p0 ~k =
    (* prng *)
    let t0 = Util.now_ns () in
    let d = ref 0 and sum = ref 0 in
    for i = 0 to k - 1 do
      Prng.Flat.seed_stream bank2 ~slot:0 ~seed ~stream:(p0 + i);
      while !d < draw_end.(i) do
        sum := !sum + Prng.Flat.int bank2 0 (Array.unsafe_get bounds.a !d);
        incr d
      done
    done;
    let t1 = Util.now_ns () in
    Spans.record spans ~layer:l_prng ~id:(-1) ~t0 ~t1 ~calls:draws.len;
    prng_ns := !prng_ns + (t1 - t0);
    let expect = ref 0 in
    for i = 0 to draws.len - 1 do
      expect := !expect + draws.a.(i)
    done;
    if !sum <> !expect then incr mismatches;
    (* space *)
    let t0 = Util.now_ns () in
    let diff = ref 0 in
    for j = 0 to locs.len - 1 do
      let w = Location_space.tas shadow (Array.unsafe_get locs.a j) in
      if Bool.to_int w <> Array.unsafe_get won.a j then incr diff
    done;
    let t1 = Util.now_ns () in
    Spans.record spans ~layer:l_space ~id:(-1) ~t0 ~t1 ~calls:locs.len;
    space_ns := !space_ns + (t1 - t0);
    if !diff <> 0 then incr mismatches;
    (* algo *)
    let t0 = Util.now_ns () in
    di := 0;
    let j = ref 0 in
    for i = 0 to k - 1 do
      let pid = p0 + i in
      let a = ref (init st2 0 replay_rand pid) in
      while !a >= 0 do
        let w = Array.unsafe_get won.a !j = 1 in
        incr j;
        a := resume st2 0 replay_rand pid !a w
      done
    done;
    let t1 = Util.now_ns () in
    Spans.record spans ~layer:l_algo ~id:(-1) ~t0 ~t1 ~calls:locs.len;
    algo_ns := !algo_ns + (t1 - t0);
    if !j <> locs.len || !di <> draws.len then incr mismatches;
    locs.len <- 0;
    won.len <- 0;
    draws.len <- 0;
    bounds.len <- 0
  in
  let k = ref 0 and p0 = ref 0 in
  let t_chunk = ref (Util.now_ns ()) and chunk_steps = ref 0 in
  for pid = 0 to n - 1 do
    Prng.Flat.seed_stream bank ~slot:0 ~seed ~stream:pid;
    let a = ref (init st 0 rand pid) in
    let s = ref 0 in
    while !a >= 0 do
      incr s;
      let w = Location_space.tas space !a in
      push locs !a;
      push won (Bool.to_int w);
      a := resume st 0 rand pid !a w
    done;
    steps := !steps + !s;
    chunk_steps := !chunk_steps + !s;
    if !s > !max_steps then max_steps := !s;
    draw_end.(!k) <- draws.len;
    incr k;
    if !k = chunk || pid = n - 1 then begin
      let t1 = Util.now_ns () in
      Spans.record spans ~layer:l_rec ~id:(-1) ~t0:!t_chunk ~t1 ~calls:!chunk_steps;
      record_ns := !record_ns + (t1 - !t_chunk);
      ndraws := !ndraws + draws.len;
      replay ~p0:!p0 ~k:!k;
      p0 := pid + 1;
      k := 0;
      chunk_steps := 0;
      t_chunk := Util.now_ns ()
    end
  done;
  if Location_space.win_count shadow <> n then incr mismatches;
  {
    n;
    steps = !steps;
    max_steps = !max_steps;
    draws = !ndraws;
    record_ns = !record_ns;
    prng_ns = !prng_ns;
    space_ns = !space_ns;
    algo_ns = !algo_ns;
    mismatches = !mismatches;
  }

type traced = {
  size : layer_times;
  untraced_ns_per_step : float;  (** median of [seq_run] trials *)
  words_per_step : float;
  first_touch_s : float;
  consistent : bool;  (** own loop == [seq_run] for the seed, no replay divergence *)
}

(* One size: create (first touch), warm up, time [seq_run] trials, then
   the traced trial on the same seed. *)
let traced_size ~spans ~n ~seed ~untraced_trials =
  Gc.full_major ();
  let t0 = Util.now () in
  let q = Fast_core.seq_create ~capacity:(2 * n) ~algo:(algo n) () in
  let first_touch_s = Util.now () -. t0 in
  let shadow = Fast_core.seq_create ~capacity:(2 * n) ~algo:(algo n) () in
  Fast_core.seq_run q ~seed ~n;
  Fast_core.seq_run shadow ~seed ~n;
  let times =
    List.init untraced_trials (fun _ ->
        let t0 = Util.now () in
        Fast_core.seq_run q ~seed ~n;
        Util.now () -. t0)
  in
  let w0 = Gc.minor_words () in
  Fast_core.seq_run q ~seed ~n;
  let words = Gc.minor_words () -. w0 in
  let total = Fast_core.seq_total_steps q and mx = Fast_core.seq_max_steps q in
  let seq_ok = trial_ok q ~n in
  let size =
    traced_trial ~spans ~n ~seed ~space:(Fast_core.seq_space q)
      ~shadow:(Fast_core.seq_space shadow)
  in
  {
    size;
    untraced_ns_per_step = Util.median times *. 1e9 /. float_of_int total;
    words_per_step = words /. float_of_int total;
    first_touch_s;
    consistent = seq_ok && size.mismatches = 0 && size.steps = total && size.max_steps = mx;
  }

(* ------------------------------------------------------------------ *)
(* The workload *)

(* Set-ups per run; [setup_s] is their median.  Each set-up is followed
   by its share of the trials, so the set-ups sample the whole run. *)
let setups = 5

let e2e ~seed ~seconds =
  let share = seconds /. float_of_int setups in
  let parts =
    List.init setups (fun _ ->
        let dt, h = setup ~seed in
        (dt, run h ~seed ~small_s:(0.25 *. share) ~large_s:(0.75 *. share) ~large_min:2))
  in
  let setup_times = List.map fst parts in
  let r =
    match List.map snd parts with
    | first :: rest -> List.fold_left merge first rest
    | [] -> assert false
  in
  let reference_bad, hist = references r in
  (* Latency of one simulated acquire in host time: the quantile of the
     processes' step counts (exact for the seeds) over the step rate. *)
  let total = Array.fold_left ( + ) 0 hist in
  let us q =
    let rank = q *. float_of_int total in
    let rec go k cum =
      if k = Array.length hist - 1 || float_of_int (cum + hist.(k)) >= rank then k
      else go (k + 1) (cum + hist.(k))
    in
    float_of_int (go 0 0) *. 1e6 /. small_rate r
  in
  let attempted = trials r in
  let ok = ok r ~reference_bad in
  let failed = if ok then 0 else attempted in
  {
    Util.correct = ok;
    attempted;
    failed;
    problems = (if ok then [] else [ "a simulator trial failed its output check" ]);
    metrics =
      [
        ("acquire_p50_us", us 0.5);
        ("acquire_p90_us", us 0.9);
        ("acquires_per_s", Stats.Summary.percentile (Array.of_list r.at_small.acq_rates) 0.9);
        ("sim_steps_per_s_small", small_rate r);
        ("sim_steps_per_s_large", large_rate r);
        ("setup_s", Util.median setup_times);
        ("rss_mb", Util.peak_rss_mb "self");
      ];
  }

let span_layers = [| "core.record"; "prng.batch"; "space.batch"; "algo.batch" |]

let traced ~dir ~seed =
  let spans = Spans.create span_layers in
  let small =
    traced_size ~spans ~n:small_n ~seed:(small_seed seed 0)
      ~untraced_trials:200
  in
  let large =
    traced_size ~spans ~n:large_n ~seed:(large_seed seed)
      ~untraced_trials:10
  in
  Spans.write spans (Filename.concat dir (Printf.sprintf "sim_trials-s%d.spans.tsv" seed));
  let per_step (t : traced) ns = float_of_int ns /. float_of_int t.size.steps in
  let sz (t : traced) = t.size in
  let draws = (sz small).draws + (sz large).draws in
  let steps = (sz small).steps + (sz large).steps in
  let prng_ns = (sz small).prng_ns + (sz large).prng_ns in
  let draw_ns = float_of_int prng_ns /. float_of_int draws in
  let self (t : traced) =
    let s = sz t in
    t.untraced_ns_per_step
    -. per_step t (s.prng_ns + s.space_ns + s.algo_ns)
  in
  let untraced_ns =
    (small.untraced_ns_per_step *. float_of_int (sz small).steps)
    +. (large.untraced_ns_per_step *. float_of_int (sz large).steps)
  in
  let traced_ns = float_of_int ((sz small).record_ns + (sz large).record_ns) in
  let ok = small.consistent && large.consistent in
  let procs (t : traced) = float_of_int (sz t).n in
  {
    Util.correct = ok;
    attempted = 2;
    failed = (if ok then 0 else 2);
    problems = (if ok then [] else [ "traced loop diverged from seq_run or its replays" ]);
    metrics =
      [
        ("prng.draw_ns", draw_ns);
        ("prng.draws_per_step", float_of_int draws /. float_of_int steps);
        ("algo.steps_per_process_small", float_of_int (sz small).steps /. procs small);
        ("algo.steps_per_process_large", float_of_int (sz large).steps /. procs large);
        ("algo.max_steps_small", float_of_int (sz small).max_steps);
        ("algo.max_steps_large", float_of_int (sz large).max_steps);
        ("algo.ns_per_step_small", per_step small (sz small).algo_ns);
        ("algo.ns_per_step_large", per_step large (sz large).algo_ns);
        ("space.tas_ns_small", per_step small (sz small).space_ns);
        ("space.tas_ns_large", per_step large (sz large).space_ns);
        ("space.first_touch_s", large.first_touch_s);
        ( "core.words_per_step",
          (small.words_per_step +. large.words_per_step) /. 2. );
        ("core.self_ns_per_step_small", self small);
        ("core.self_ns_per_step_large", self large);
        ("trace.overhead_pct", 100. *. (traced_ns -. untraced_ns) /. untraced_ns);
      ];
  }
