(* Clocks, order statistics and the result line shared by every workload. *)

let now = Service.Mono.now
let now_ns () = int_of_float (now () *. 1e9)

let median xs = Stats.Summary.percentile (Array.of_list xs) 0.5

(* [Stats.Hdr.quantile] returns a bucket's upper bound, so a steady
   latency reads the same value run after run.  This interpolates
   inside the bucket instead, assuming members spread evenly across it;
   buckets holding [2^k, 2^(k+1)) are 2^(k-6) wide, below 64 they are
   exact. *)
let hdr_quantile h q =
  let total = Stats.Hdr.count h in
  if total = 0 then invalid_arg "hdr_quantile: empty histogram"
  else
    let lower_of u =
      if u < 64 then u
      else
        let rec msb v k = if v > 1 then msb (v lsr 1) (k + 1) else k in
        u + 1 - (1 lsl (msb u 0 - 6))
    in
    let rank = q *. float_of_int total in
    let rec go cum = function
      | [] -> float_of_int (Stats.Hdr.max_value h)
      | (u, c) :: rest ->
        let cum' = cum +. float_of_int c in
        if rank <= cum' then
          let lo = float_of_int (lower_of u) in
          let width = float_of_int (u + 1) -. lo in
          lo +. ((rank -. cum) /. float_of_int c *. width)
        else go cum' rest
    in
    go 0. (Stats.Hdr.to_alist h)

(* ------------------------------------------------------------------ *)
(* Result line *)

(* What a workload reports: its raw metric values by name and the
   failures of its output checks. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  problems : string list;
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics ms =
  List.iter
    (fun m -> Printf.printf "  %-32s %20.6f %s\n" m.name m.value m.unit_)
    ms

(* The last line of standard output: exactly [correct], [attempted],
   [failed] and [metrics], values with all their digits.  The caller
   has refused non-finite values, which JSON cannot carry. *)
let result_line ~correct ~attempted ~failed ms =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name m.value
        m.unit_)
    ms;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Process introspection through /proc (Linux). *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Some (Buffer.contents b)

let status_field text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           (match String.split_on_char ' ' rest with
           | v :: _ -> int_of_string_opt v
           | [] -> None)
         | _ -> None)

(* Peak resident set of [pid] in MB ([VmHWM]). *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> nan
  | Some t -> (
    match status_field t "VmHWM" with
    | Some kb -> float_of_int kb /. 1024.
    | None -> nan)

let tasks pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | a -> Array.to_list a |> List.map (fun t -> Filename.concat dir t)

(* CPU time of every thread of [pid] in nanoseconds (schedstat's first
   field), and its voluntary context switches summed over threads.
   Threads that exited are not counted; the daemon's threads live as
   long as it does. *)
let cpu_ns pid =
  List.fold_left
    (fun acc t ->
      match read_file (Filename.concat t "schedstat") with
      | Some s -> (
        match String.split_on_char ' ' (String.trim s) with
        | v :: _ -> acc + Option.value (int_of_string_opt v) ~default:0
        | [] -> acc)
      | None -> acc)
    0 (tasks pid)

let vol_ctxsw pid =
  List.fold_left
    (fun acc t ->
      match read_file (Filename.concat t "status") with
      | Some s -> acc + Option.value (status_field s "voluntary_ctxt_switches") ~default:0
      | None -> acc)
    0 (tasks pid)

(* This process's own CPU seconds, all threads. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let remove_if_exists p = try Sys.remove p with Sys_error _ -> ()
