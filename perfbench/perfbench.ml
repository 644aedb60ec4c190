(* perfbench: the repository benchmark.  Normally started through
   run.py, which builds this executable and the daemon first:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --renamed PATH [--rev REV] [--nproc N]

   Prints one line per metric, a context line, and as its last line the
   JSON result object.  Exits 1 when an output check failed, 2 on a
   usage or set-up error. *)

(* Metric names and units come from BENCHMARK.json at the checkout root:
   [end_to_end] for untraced runs, [per_layer] for traced ones.  A layer
   that is not on a workload's path reads 0 in that workload's traced
   run (see NOTES.md). *)
let declared key =
  let text =
    match Util.read_file "BENCHMARK.json" with
    | Some t -> t
    | None -> failwith "BENCHMARK.json not found in the working directory"
  in
  match Jsonu.parse text with
  | Some j -> (
    try
      List.map
        (fun m ->
          let m = Jsonu.obj m in
          (Jsonu.str m "name", Jsonu.str m "unit"))
        (Jsonu.arr (Jsonu.obj j) key)
    with Jsonu.Malformed -> failwith ("BENCHMARK.json: malformed " ^ key))
  | None -> failwith "BENCHMARK.json does not parse"

let workloads = [ "serve_open"; "serve_closed"; "serve_journal"; "sim_trials" ]

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 --renamed PATH [--rev REV] \
     [--nproc N]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" = 1 in
  let exe = get "renamed" in
  let rev = Option.value (List.assoc_opt "rev" kv) ~default:"unknown" in
  let nproc = Option.value (List.assoc_opt "nproc" kv) ~default:"unknown" in
  if not (List.mem workload workloads) || seconds < 1 || seed < 0 then usage ();
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: daemon executable not found: " ^ exe);
    exit 2
  end;
  let wanted =
    try declared (if trace then "per_layer" else "end_to_end")
    with Failure e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.concat ".bench_run" (Printf.sprintf "%s-s%d-p%d" workload seed (Unix.getpid ())) in
  Util.mkdir_p dir;
  let served = Served.spec workload in
  let secs = float_of_int seconds in
  let o =
    try
      match (served, trace) with
      | Some sp, false -> Served.e2e ~exe ~dir ~seed ~seconds:secs ~name:workload sp
      | Some sp, true -> Served.traced ~exe ~dir ~seed ~seconds:secs ~name:workload sp
      | None, false -> Simbench.e2e ~seed ~seconds:secs
      | None, true -> Simbench.traced ~dir ~seed
    with Failure e | Sys_error e | Invalid_argument e ->
      Printf.eprintf "perfbench: %s\n%!" e;
      exit 2
  in
  (* A run that fails a check counts all its operations as failed. *)
  let failed = if o.Util.correct then o.Util.failed else o.Util.attempted in
  let value name =
    match name with
    | "ok_ratio" | "fail_ratio" ->
      let f = float_of_int failed /. float_of_int (max 1 o.Util.attempted) in
      if name = "ok_ratio" then 1. -. f else f
    | _ -> Option.value (List.assoc_opt name o.Util.metrics) ~default:0.
  in
  let metrics = List.map (fun (name, unit_) -> Util.metric name unit_ (value name)) wanted in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  Util.print_metrics metrics;
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) o.Util.problems;
  let cpus =
    match Util.read_file "/proc/self/status" with
    | None -> "unknown"
    | Some t ->
      String.split_on_char '\n' t
      |> List.find_map (fun l ->
             match String.split_on_char '\t' l with
             | [ "Cpus_allowed_list:"; v ] -> Some (String.trim v)
             | _ -> None)
      |> Option.value ~default:"unknown"
  in
  Printf.printf
    "context: {\"nproc\": %s, \"cpus_allowed\": \"%s\", \"ocaml\": \"%s\", \"rev\": \"%s\", \"seed\": %d, \"daemon_flags\": \"%s\"}\n"
    nproc cpus Sys.ocaml_version rev seed
    (match served with
    | Some sp ->
      String.concat " "
        (Daemon.flags ~seed
           ~journal:(if sp.Served.journal then Some (Filename.concat dir "<daemon>.journal") else None))
    | None -> "none (in-process simulator)");
  (* Sockets, journals and logs go; span files stay for inspection. *)
  Array.iter
    (fun f ->
      if not (Filename.check_suffix f ".spans.tsv") then
        Util.remove_if_exists (Filename.concat dir f))
    (Sys.readdir dir);
  (try Sys.rmdir dir with Sys_error _ -> ());
  (* A value that could not be measured is a set-up error, never a
     number that might read as an improvement. *)
  List.iter
    (fun m ->
      if not (Float.is_finite m.Util.value) then begin
        Printf.eprintf "perfbench: %s measured as %g\n%!" m.Util.name m.Util.value;
        exit 2
      end)
    metrics;
  print_endline
    (Util.result_line ~correct:o.Util.correct ~attempted:o.Util.attempted ~failed metrics);
  exit (if o.Util.correct then 0 else 1)
