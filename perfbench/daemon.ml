(* The renaming daemon as a separate process, managed from outside.

   Running [renamed] out of process keeps the load generator's minor
   GCs (which stop every domain of a process in OCaml 5) from pausing
   the daemon.  Everything the benchmark learns about the daemon comes
   through its socket ([stats]), its exit code and /proc. *)

type t = {
  pid : int;
  socket : string;
  journal : string option;
}

(* Flags fixed for every served workload: one worker shard (one I/O
   domain plus one worker on the 2-core box), the default capacity,
   no log chatter. *)
let base_flags ~seed = [ "--shards"; "1"; "--capacity"; "4096"; "--seed"; string_of_int seed; "--quiet" ]

let flags ~seed ~journal =
  base_flags ~seed @ match journal with Some p -> [ "--journal"; p ] | None -> []

(* Spawned daemons not yet reaped; killed at exit if the benchmark dies
   part-way, so it never leaves a process behind. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reap pid = live := List.filter (( <> ) pid) !live

let stats_of path =
  match Service.Client.connect ~path () with
  | Error e -> Error e
  | Ok c ->
    let r = Service.Client.stats ~timeout:5. c in
    Service.Client.close c;
    (match r with
    | Ok j -> Ok (Jsonu.obj j)
    | Error f -> Error (Service.Client.failure_message f))

(* Spawn and wait until the first [stats] request is answered; returns
   the daemon and that set-up time in seconds. *)
let spawn ~exe ~dir ~tag ~seed ~journal =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let journal = if journal then Some (Filename.concat dir (tag ^ ".journal")) else None in
  Util.remove_if_exists socket;
  Option.iter Util.remove_if_exists journal;
  let args = flags ~seed ~journal in
  let log = Unix.openfile (Filename.concat dir (tag ^ ".log")) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let t0 = Util.now () in
  let pid =
    Unix.create_process exe (Array.of_list ((exe :: "--socket" :: socket :: args))) devnull log log
  in
  Unix.close devnull;
  Unix.close log;
  live := pid :: !live;
  let d = { pid; socket; journal } in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
      reap pid;
      failwith (Printf.sprintf "renamed exited during start-up (see %s.log)" tag)
    | _ ->
      if Util.now () -. t0 > 20. then failwith "renamed did not answer stats within 20 s"
      else if not (Sys.file_exists socket) then begin
        Unix.sleepf 0.0001;
        wait ()
      end
      else (
        match stats_of socket with
        | Ok _ -> Util.now () -. t0
        | Error _ ->
          Unix.sleepf 0.0001;
          wait ())
  in
  let setup = wait () in
  (d, setup)

let stats d =
  match stats_of d.socket with Ok s -> s | Error e -> failwith ("stats: " ^ e)

let int_stat s k = try Jsonu.int_ s k with Jsonu.Malformed | Not_found -> -1

(* SIGTERM (graceful drain) and wait; returns the exit code, or -1 if
   the daemon had to be killed after 20 s. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Util.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | p, st when p = d.pid -> (
      reap d.pid;
      match st with Unix.WEXITED c -> c | _ -> -1)
    | _ ->
      if Util.now () -. t0 > 20. then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        reap d.pid;
        -1
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
  in
  let code = wait () in
  Util.remove_if_exists d.socket;
  code
