(* Tests for lib/sim: dynset, location space, scheduler, adversaries,
   runner. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Dynset *)

let test_dynset_basic () =
  let s = Sim.Dynset.create () in
  checkb "empty" true (Sim.Dynset.is_empty s);
  Sim.Dynset.add s 3;
  Sim.Dynset.add s 5;
  Sim.Dynset.add s 3;
  (* duplicate: no-op *)
  checki "size" 2 (Sim.Dynset.size s);
  checkb "mem 3" true (Sim.Dynset.mem s 3);
  checkb "mem 4" false (Sim.Dynset.mem s 4);
  Sim.Dynset.remove s 3;
  checkb "removed" false (Sim.Dynset.mem s 3);
  Sim.Dynset.remove s 42;
  (* absent: no-op *)
  checki "size after removes" 1 (Sim.Dynset.size s)

let test_dynset_any_first () =
  let s = Sim.Dynset.create () in
  let rng = Prng.Splitmix.of_int 1 in
  Alcotest.check_raises "any empty" (Invalid_argument "Dynset.any: empty set")
    (fun () -> ignore (Sim.Dynset.any s rng));
  Alcotest.check_raises "first empty" (Invalid_argument "Dynset.first: empty set")
    (fun () -> ignore (Sim.Dynset.first s));
  for i = 0 to 9 do
    Sim.Dynset.add s (i * 10)
  done;
  for _ = 1 to 100 do
    let v = Sim.Dynset.any s rng in
    checkb "member" true (Sim.Dynset.mem s v)
  done;
  checkb "first member" true (Sim.Dynset.mem s (Sim.Dynset.first s))

let test_dynset_growth () =
  let s = Sim.Dynset.create () in
  for i = 0 to 999 do
    Sim.Dynset.add s i
  done;
  checki "size 1000" 1000 (Sim.Dynset.size s);
  for i = 0 to 999 do
    if i mod 2 = 0 then Sim.Dynset.remove s i
  done;
  checki "half left" 500 (Sim.Dynset.size s);
  checki "list size" 500 (List.length (Sim.Dynset.to_list s))

let test_dynset_negative () =
  let s = Sim.Dynset.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Dynset.add: negative element")
    (fun () -> Sim.Dynset.add s (-1))

let qcheck_dynset_model =
  (* model-based test against a reference Set *)
  QCheck.Test.make ~name:"dynset agrees with a reference set" ~count:200
    QCheck.(list (pair bool (int_range 0 50)))
    (fun ops ->
      let module IS = Set.Make (Int) in
      let s = Sim.Dynset.create () in
      let reference = ref IS.empty in
      List.iter
        (fun (is_add, v) ->
          if is_add then begin
            Sim.Dynset.add s v;
            reference := IS.add v !reference
          end
          else begin
            Sim.Dynset.remove s v;
            reference := IS.remove v !reference
          end)
        ops;
      Sim.Dynset.size s = IS.cardinal !reference
      && IS.for_all (fun v -> Sim.Dynset.mem s v) !reference
      && List.for_all (fun v -> IS.mem v !reference) (Sim.Dynset.to_list s))

(* ------------------------------------------------------------------ *)
(* Location space *)

let test_space_tas_semantics () =
  let sp = Sim.Location_space.create () in
  checkb "first wins" true (Sim.Location_space.tas sp 5);
  checkb "second loses" false (Sim.Location_space.tas sp 5);
  checkb "third loses" false (Sim.Location_space.tas sp 5);
  checkb "other loc wins" true (Sim.Location_space.tas sp 6);
  checki "probes" 4 (Sim.Location_space.probe_count sp);
  checki "wins" 2 (Sim.Location_space.win_count sp);
  checki "hwm" 7 (Sim.Location_space.high_water_mark sp)

let test_space_growth () =
  let sp = Sim.Location_space.create ~capacity:2 () in
  checkb "far location wins" true (Sim.Location_space.tas sp 100_000);
  checkb "is_taken" true (Sim.Location_space.is_taken sp 100_000);
  checkb "not taken" false (Sim.Location_space.is_taken sp 99_999);
  checki "hwm" 100_001 (Sim.Location_space.high_water_mark sp)

let test_space_reset () =
  let sp = Sim.Location_space.create () in
  ignore (Sim.Location_space.tas sp 3);
  Sim.Location_space.reset sp;
  checki "probes" 0 (Sim.Location_space.probe_count sp);
  checkb "free again" true (Sim.Location_space.tas sp 3)

let test_space_negative () =
  let sp = Sim.Location_space.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Location_space.tas: negative location") (fun () ->
      ignore (Sim.Location_space.tas sp (-1)))

let qcheck_one_winner_per_location =
  QCheck.Test.make ~name:"each location won at most once" ~count:100
    QCheck.(list (int_range 0 20))
    (fun locs ->
      let sp = Sim.Location_space.create () in
      let wins = Hashtbl.create 16 in
      List.iter
        (fun loc ->
          if Sim.Location_space.tas sp loc then begin
            if Hashtbl.mem wins loc then
              QCheck.Test.fail_report "double win";
            Hashtbl.replace wins loc ()
          end)
        locs;
      true)

(* Model test: random operation sequences against a [Hashtbl] reference,
   comparing every result and every counter after every operation.
   Locations cluster at the seams of the bit layout: byte edges (8k-1,
   8k), the dense boundary, the 65535/65536 chunk edge, and chunks
   spread over several slabs. *)

type space_op =
  | Tas of int
  | Release of int
  | Is_taken of int
  | Clear
  | Reset
  | Save
  | Restore

let space_op_print = function
  | Tas l -> Printf.sprintf "tas %d" l
  | Release l -> Printf.sprintf "release %d" l
  | Is_taken l -> Printf.sprintf "is_taken %d" l
  | Clear -> "clear"
  | Reset -> "reset"
  | Save -> "save"
  | Restore -> "restore"

type space_model = {
  taken : (int, unit) Hashtbl.t;
  mutable m_probes : int;
  mutable m_wins : int;
  mutable m_hwm : int;
}

let model_copy m = { m with taken = Hashtbl.copy m.taken }

let model_assign m src =
  Hashtbl.reset m.taken;
  Hashtbl.iter (fun l () -> Hashtbl.replace m.taken l ()) src.taken;
  m.m_probes <- src.m_probes;
  m.m_wins <- src.m_wins;
  m.m_hwm <- src.m_hwm

let model_zero m =
  Hashtbl.reset m.taken;
  m.m_probes <- 0;
  m.m_wins <- 0;
  m.m_hwm <- 0

let model_touch m l = if l >= m.m_hwm then m.m_hwm <- l + 1

let space_case_gen =
  QCheck.Gen.(
    let* cap = oneof [ oneofl [ 0; 1; 7; 9 ]; map (fun n -> (2 * n) + 3) (int_range 1 40_000) ] in
    let loc =
      oneof
        [
          int_range 0 (cap + 24);
          map (fun d -> max 0 (cap + d)) (int_range (-2) 2);
          map2 (fun k d -> (8 * k) + d) (int_range 1 ((cap / 8) + 3)) (oneofl [ -1; 0 ]);
          oneofl [ 65535; 65536; 65537; 131071; 131072 ];
          int_range 0 200_000;
          (* enough distinct chunks to fill several 8-chunk slabs *)
          map2 (fun ci off -> (ci lsl 16) + off) (int_range 0 40) (oneofl [ 0; 7; 8; 65535 ]);
          oneofl [ 1 lsl 30; (1 lsl 30) + 9 ];
        ]
    in
    let op =
      frequency
        [
          (8, map (fun l -> Tas l) loc);
          (3, map (fun l -> Release l) loc);
          (3, map (fun l -> Is_taken l) loc);
          (1, return Clear);
          (1, return Reset);
          (2, return Save);
          (2, return Restore);
        ]
    in
    pair (return cap) (list_size (int_range 1 80) op))

let space_case_print (cap, ops) =
  Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map space_op_print ops))

let qcheck_space_model =
  QCheck.Test.make ~name:"location space matches a Hashtbl model" ~count:300
    (QCheck.make ~print:space_case_print space_case_gen) (fun (cap, ops) ->
      let module L = Sim.Location_space in
      let sp = L.create ~capacity:cap () in
      let m = { taken = Hashtbl.create 64; m_probes = 0; m_wins = 0; m_hwm = 0 } in
      let saved = ref None in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let same_bool op a b =
        if a <> b then fail "%s returned %b, model %b" (space_op_print op) a b
      in
      let step op =
        (match op with
        | Tas l ->
          let won = not (Hashtbl.mem m.taken l) in
          if won then begin
            Hashtbl.replace m.taken l ();
            m.m_wins <- m.m_wins + 1
          end;
          m.m_probes <- m.m_probes + 1;
          model_touch m l;
          same_bool op (L.tas sp l) won
        | Release l ->
          if Hashtbl.mem m.taken l then begin
            Hashtbl.remove m.taken l;
            m.m_wins <- m.m_wins - 1
          end;
          model_touch m l;
          L.release sp l
        | Is_taken l -> same_bool op (L.is_taken sp l) (Hashtbl.mem m.taken l)
        | Clear ->
          model_zero m;
          L.clear sp
        | Reset ->
          model_zero m;
          L.reset sp
        | Save -> saved := Some (model_copy m, L.save sp)
        | Restore -> (
          match !saved with
          | None -> ()
          | Some (mm, snap) ->
            model_assign m mm;
            L.restore sp snap));
        let counter name a b =
          if a <> b then fail "after %s: %s %d, model %d" (space_op_print op) name a b
        in
        counter "probe_count" (L.probe_count sp) m.m_probes;
        counter "win_count" (L.win_count sp) m.m_wins;
        counter "high_water_mark" (L.high_water_mark sp) m.m_hwm
      in
      List.iter step ops;
      (* Final sweep: every location the case named, plus its neighbours. *)
      List.iter
        (function
          | Tas l | Release l | Is_taken l ->
            List.iter
              (fun l ->
                if l >= 0 && L.is_taken sp l <> Hashtbl.mem m.taken l then
                  fail "final state differs at %d" l)
              [ l - 1; l; l + 1 ]
          | Clear | Reset | Save | Restore -> ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Scheduler + runner *)

(* A trivial algorithm: probe locations pid*10, pid*10+1, ... up to 3
   probes (all free, disjoint per pid), then return the first. *)
let disjoint_algo (env : Renaming.Env.t) =
  let base = env.pid * 10 in
  let w1 = env.tas base in
  let w2 = env.tas (base + 1) in
  let w3 = env.tas (base + 2) in
  if w1 && w2 && w3 then Some base else None

let test_scheduler_trivial () =
  let r = Sim.Runner.run ~seed:1 ~n:4 ~algo:disjoint_algo () in
  Array.iteri (fun pid name -> checkb "name" true (name = Some (pid * 10))) r.names;
  Array.iter (fun s -> checki "steps" 3 s) r.steps;
  checki "total" 12 r.total_steps;
  checki "max" 3 r.max_steps

let contending_algo (env : Renaming.Env.t) =
  (* everyone fights for location 0; losers take location pid+1 *)
  if env.tas 0 then Some 0 else if env.tas (env.pid + 1) then Some (env.pid + 1) else None

let test_one_winner_under_all_adversaries () =
  List.iter
    (fun adv ->
      let r = Sim.Runner.run ~adversary:adv ~seed:7 ~n:8 ~algo:contending_algo () in
      let zero_winners =
        Array.fold_left
          (fun acc name -> if name = Some 0 then acc + 1 else acc)
          0 r.names
      in
      checki (Printf.sprintf "%s: one winner of loc 0" adv.Sim.Adversary.name) 1
        zero_winners;
      checkb
        (Printf.sprintf "%s: unique names" adv.Sim.Adversary.name)
        true
        (Sim.Runner.check_unique_names r))
    Sim.Adversary.all_builtin

let test_determinism_same_seed () =
  let algo env = Baselines.Uniform_probe.get_name env ~m:64 ~max_steps:1000 in
  let r1 = Sim.Runner.run ~seed:5 ~n:32 ~algo () in
  let r2 = Sim.Runner.run ~seed:5 ~n:32 ~algo () in
  Alcotest.(check (array (option int))) "same names" r1.names r2.names;
  Alcotest.(check (array int)) "same steps" r1.steps r2.steps;
  checki "same total" r1.total_steps r2.total_steps

let test_different_seeds_differ () =
  let algo env = Baselines.Uniform_probe.get_name env ~m:64 ~max_steps:1000 in
  let r1 = Sim.Runner.run ~seed:5 ~n:32 ~algo () in
  let r2 = Sim.Runner.run ~seed:6 ~n:32 ~algo () in
  checkb "names differ somewhere" true (r1.names <> r2.names)

let test_step_limit () =
  (* a process that loops forever on a taken location *)
  let stubborn (env : Renaming.Env.t) =
    let rec go () = if env.tas 0 then Some 0 else go () in
    go ()
  in
  Alcotest.check_raises "limit" Sim.Scheduler.Step_limit_exceeded (fun () ->
      ignore (Sim.Runner.run ~max_total_steps:100 ~seed:1 ~n:2 ~algo:stubborn ()))

let test_sequential_runner () =
  let algo env = Baselines.Linear_scan.get_name env ~m:100 in
  let r = Sim.Runner.run_sequential ~seed:3 ~n:50 ~algo () in
  checkb "unique" true (Sim.Runner.check_unique_names r);
  (* sequential linear scan assigns names exactly 0..49 *)
  checki "max name" 49 (Sim.Runner.max_name r);
  checki "total = sum steps" r.total_steps (Array.fold_left ( + ) 0 r.steps)

let test_sequential_unshuffled_order () =
  let algo env = Baselines.Linear_scan.get_name env ~m:10 in
  let r = Sim.Runner.run_sequential ~shuffled:false ~seed:3 ~n:5 ~algo () in
  (* pid i runs i-th and takes location i *)
  Array.iteri (fun pid name -> checkb "name = pid" true (name = Some pid)) r.names

let test_crash_adversary () =
  let adversary = Sim.Adversary.with_crashes ~fraction:0.4 Sim.Adversary.random in
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:64 ())
  in
  let r = Sim.Runner.run ~adversary ~seed:11 ~n:64 ~algo () in
  checkb "some crashes" true (r.crash_count > 0);
  checkb "crash bound respected" true (r.crash_count <= 26);
  checkb "survivors have unique names" true (Sim.Runner.check_unique_names r);
  Array.iteri
    (fun pid crashed -> if crashed then checkb "crashed pid has no name" true (r.names.(pid) = None))
    r.crashed

let test_crash_fraction_zero () =
  let adversary = Sim.Adversary.with_crashes ~fraction:0. Sim.Adversary.random in
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:16 ())
  in
  let r = Sim.Runner.run ~adversary ~seed:2 ~n:16 ~algo () in
  checki "no crashes" 0 r.crash_count

let test_crash_invalid_fraction () =
  Alcotest.check_raises "fraction 1"
    (Invalid_argument "Adversary.with_crashes: fraction must be in [0, 1)")
    (fun () -> ignore (Sim.Adversary.with_crashes ~fraction:1. Sim.Adversary.random))

let test_adversary_by_name () =
  List.iter
    (fun name ->
      match Sim.Adversary.by_name name with
      | Some a -> Alcotest.check Alcotest.string "name" name a.Sim.Adversary.name
      | None -> Alcotest.failf "missing adversary %s" name)
    [ "random"; "round-robin"; "layered"; "greedy"; "sequential" ];
  checkb "unknown" true (Sim.Adversary.by_name "nope" = None)

let test_greedy_hurts_uniform () =
  (* The greedy-collision adversary should never make uniform probing
     cheaper than the random scheduler does, and typically makes it
     measurably worse.  Compare total steps over a few seeds. *)
  (* A tight namespace (m = n) makes scheduling order matter. *)
  let algo env = Baselines.Uniform_probe.get_name env ~m:32 ~max_steps:10_000 in
  let total adversary seed =
    (Sim.Runner.run ~adversary ~seed ~n:32 ~algo ()).total_steps
  in
  let sum_random = ref 0 and sum_greedy = ref 0 in
  for seed = 1 to 30 do
    sum_random := !sum_random + total Sim.Adversary.random seed;
    sum_greedy := !sum_greedy + total Sim.Adversary.greedy_collision seed
  done;
  checkb
    (Printf.sprintf "greedy (%d) >= 0.9 * random (%d)" !sum_greedy !sum_random)
    true
    (float_of_int !sum_greedy >= 0.9 *. float_of_int !sum_random)

let test_event_stream_counts_match_steps () =
  let probes = ref 0 in
  let on_event ~pid:_ = function
    | Renaming.Events.Probe _ -> incr probes
    | _ -> ()
  in
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:32 ())
  in
  let r = Sim.Runner.run ~on_event ~seed:21 ~n:32 ~algo () in
  checki "every step is a probe event" r.total_steps !probes

let test_layered_adversary_runs_rebatching () =
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:128 ())
  in
  let r =
    Sim.Runner.run ~adversary:Sim.Adversary.layered ~seed:13 ~n:128 ~algo ()
  in
  checkb "unique" true (Sim.Runner.check_unique_names r)

let qcheck_sequential_adversary_equals_sequential_runner =
  (* Two independent implementations of the same schedule: the effect
     scheduler driven by the [sequential] adversary must produce exactly
     the results of the direct sequential runner (unshuffled).  This is a
     strong end-to-end check of the scheduler, the effect handler and the
     step accounting. *)
  QCheck.Test.make ~name:"effect scheduler == sequential runner on solo schedule"
    ~count:30
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      let instance = Renaming.Rebatching.make ~t0:3 ~n () in
      let algo env = Renaming.Rebatching.get_name env instance in
      let effectful =
        Sim.Runner.run ~adversary:Sim.Adversary.sequential ~seed ~n ~algo ()
      in
      let direct = Sim.Runner.run_sequential ~shuffled:false ~seed ~n ~algo () in
      effectful.names = direct.names
      && effectful.steps = direct.steps
      && effectful.total_steps = direct.total_steps)

let test_point_contention_tracking () =
  (* All-at-once: everyone is active together at some point. *)
  let algo env = Baselines.Cyclic_scan.get_name env ~m:64 in
  let r = Sim.Runner.run ~seed:31 ~n:16 ~algo () in
  checkb "high contention all-at-once" true (r.point_contention > 1);
  (* Extreme staggering: arrivals far apart => solo executions. *)
  let adversary =
    Sim.Arrivals.staggered ~interval:1000 Sim.Adversary.random
  in
  let r2 = Sim.Runner.run ~adversary ~seed:31 ~n:16 ~algo () in
  checki "solo under extreme staggering" 1 r2.point_contention;
  (* Sequential runner reports 1 by construction. *)
  let r3 = Sim.Runner.run_sequential ~seed:31 ~n:16 ~algo () in
  checki "sequential" 1 r3.point_contention

let test_round_robin_fairness () =
  (* Under round-robin with identical 3-step processes, every process
     executes the same number of steps. *)
  let r =
    Sim.Runner.run ~adversary:Sim.Adversary.round_robin ~seed:1 ~n:6
      ~algo:disjoint_algo ()
  in
  Array.iter (fun s -> checki "equal steps" 3 s) r.steps

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.dynset",
      [
        tc "basic" `Quick test_dynset_basic;
        tc "any/first" `Quick test_dynset_any_first;
        tc "growth" `Quick test_dynset_growth;
        tc "negative" `Quick test_dynset_negative;
        QCheck_alcotest.to_alcotest qcheck_dynset_model;
      ] );
    ( "sim.location_space",
      [
        tc "tas semantics" `Quick test_space_tas_semantics;
        tc "growth" `Quick test_space_growth;
        tc "reset" `Quick test_space_reset;
        tc "negative" `Quick test_space_negative;
        QCheck_alcotest.to_alcotest qcheck_one_winner_per_location;
        QCheck_alcotest.to_alcotest qcheck_space_model;
      ] );
    ( "sim.scheduler",
      [
        tc "trivial processes" `Quick test_scheduler_trivial;
        tc "one winner under all adversaries" `Quick
          test_one_winner_under_all_adversaries;
        tc "determinism" `Quick test_determinism_same_seed;
        tc "seeds differ" `Quick test_different_seeds_differ;
        tc "step limit" `Quick test_step_limit;
        tc "sequential runner" `Quick test_sequential_runner;
        tc "sequential unshuffled" `Quick test_sequential_unshuffled_order;
        tc "crash adversary" `Quick test_crash_adversary;
        tc "crash fraction zero" `Quick test_crash_fraction_zero;
        tc "crash invalid fraction" `Quick test_crash_invalid_fraction;
        tc "adversary by name" `Quick test_adversary_by_name;
        tc "greedy hurts uniform" `Quick test_greedy_hurts_uniform;
        tc "events match steps" `Quick test_event_stream_counts_match_steps;
        tc "layered runs rebatching" `Quick test_layered_adversary_runs_rebatching;
        tc "point contention tracking" `Quick test_point_contention_tracking;
        tc "round robin fairness" `Quick test_round_robin_fairness;
        QCheck_alcotest.to_alcotest
          qcheck_sequential_adversary_equals_sequential_runner;
      ] );
  ]
