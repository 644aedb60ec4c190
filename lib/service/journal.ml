type record =
  | Grant of { name : int; epoch : int; client : int; token : int }
  | Release of { name : int; epoch : int }
  | Expire of { name : int; epoch : int }

type t = {
  oc : out_channel;
  fd : Unix.file_descr;
  payload : Bytes.t;  (* one record's payload, re-encoded per record *)
  batch : Buffer.t;  (* one batch's frames; cleared, never shrunk *)
}

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected), table-driven. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 b off len =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Record codec.  Payload: u8 kind, u32 name, u64 epoch, then for
   grants u32 client and u32 token.  Fixed widths, big-endian. *)

let max_record_payload = 21

(* Int32.of_int keeps the low 32 bits, so values up to 2^32 - 1 land
   as the unsigned u32 that Wire.get_u32 reads back. *)
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let set_head b kind name epoch =
  Bytes.set_uint8 b 0 kind;
  set_u32 b 1 name;
  set_u32 b 5 (epoch lsr 32);
  set_u32 b 9 epoch

(* Encode [r] at the start of [b]; returns the payload length. *)
let encode_payload b r =
  match r with
  | Grant { name; epoch; client; token } ->
    set_head b 1 name epoch;
    set_u32 b 13 client;
    set_u32 b 17 token;
    21
  | Release { name; epoch } ->
    set_head b 2 name epoch;
    13
  | Expire { name; epoch } ->
    set_head b 3 name epoch;
    13

let get_u64 buf off = (Wire.get_u32 buf off lsl 32) lor Wire.get_u32 buf (off + 4)

let decode_payload buf off len =
  if len < 13 then None
  else
    let name = Wire.get_u32 buf (off + 1) in
    let epoch = get_u64 buf (off + 5) in
    match (Wire.get_u8 buf off, len) with
    | 1, 21 ->
      Some
        (Grant
           {
             name;
             epoch;
             client = Wire.get_u32 buf (off + 13);
             token = Wire.get_u32 buf (off + 17);
           })
    | 2, 13 -> Some (Release { name; epoch })
    | 3, 13 -> Some (Expire { name; epoch })
    | _ -> None

(* Generous bound: real payloads are <= 21 bytes, so a length above
   this is framing damage, not a future record format. *)
let max_payload = 256

(* Append [r]'s frame to [buf], encoding through the [payload]
   scratch: no allocation beyond the buffer's own growth. *)
let add_frame buf payload r =
  let len = encode_payload payload r in
  Buffer.add_int32_be buf (Int32.of_int len);
  Buffer.add_int32_be buf (Int32.of_int (crc32 payload 0 len));
  Buffer.add_subbytes buf payload 0 len

(* ------------------------------------------------------------------ *)
(* Appending *)

let open_append ~path =
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
  | oc ->
    Ok
      {
        oc;
        fd = Unix.descr_of_out_channel oc;
        payload = Bytes.create max_record_payload;
        batch = Buffer.create 1024;
      }
  | exception Sys_error e -> Error (Printf.sprintf "journal %s: %s" path e)

let append_batch t = function
  | [] -> ()
  | records ->
    Buffer.clear t.batch;
    List.iter (add_frame t.batch t.payload) records;
    (* guarded_write flushes; the fsync makes the whole batch
       power-loss durable before the caller acts on any of it
       (write-ahead). *)
    Engine.Io_fault.guarded_write ~oc:t.oc (Buffer.contents t.batch);
    Unix.fsync t.fd

let append t r = append_batch t [ r ]

let close t = try close_out t.oc with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Scanning *)

type scan = {
  records : record list;
  torn_tail : bool;
  damaged : int;
  bytes : int;
}

let scan ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error (Printf.sprintf "journal %s: %s" path e)
  | ic ->
    let len = in_channel_length ic in
    let buf = Bytes.create len in
    really_input ic buf 0 len;
    close_in ic;
    let records = ref [] in
    let damaged = ref 0 in
    let torn = ref false in
    let o = ref 0 in
    let continue = ref true in
    while !continue do
      let remaining = len - !o in
      if remaining = 0 then continue := false
      else if remaining < 8 then begin
        (* header itself is cut off: crash mid-append *)
        torn := true;
        continue := false
      end
      else begin
        let plen = Wire.get_u32 buf !o in
        if plen < 13 || plen > max_payload then begin
          (* Unframeable from here on: count the wreckage once and
             stop — doctor reports it, recovery refuses it. *)
          incr damaged;
          continue := false
        end
        else if remaining < 8 + plen then begin
          torn := true;
          continue := false
        end
        else begin
          let crc = Wire.get_u32 buf (!o + 4) in
          if crc32 buf (!o + 8) plen <> crc then incr damaged
          else begin
            match decode_payload buf (!o + 8) plen with
            | Some r -> records := r :: !records
            | None -> incr damaged
          end;
          o := !o + 8 + plen
        end
      end
    done;
    Ok { records = List.rev !records; torn_tail = !torn; damaged = !damaged; bytes = len }

(* ------------------------------------------------------------------ *)
(* Replay *)

type live = {
  grants : (int * (int * int * int)) list;
  next_epoch : int;
  double_grants : int;
  stale_releases : int;
}

let replay records =
  let live = Hashtbl.create 64 in
  let max_epoch = ref 0 in
  let doubles = ref 0 in
  let stale = ref 0 in
  let drop name epoch =
    match Hashtbl.find_opt live name with
    | Some (e, _, _) when e = epoch -> Hashtbl.remove live name
    | Some _ | None -> incr stale
  in
  List.iter
    (fun r ->
      (match r with
      | Grant { name; epoch; client; token } ->
        if Hashtbl.mem live name then incr doubles;
        Hashtbl.replace live name (epoch, client, token)
      | Release { name; epoch } | Expire { name; epoch } -> drop name epoch);
      let epoch =
        match r with
        | Grant { epoch; _ } | Release { epoch; _ } | Expire { epoch; _ } ->
          epoch
      in
      if epoch > !max_epoch then max_epoch := epoch)
    records;
  {
    grants =
      Hashtbl.to_seq live |> List.of_seq
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    next_epoch = !max_epoch + 1;
    double_grants = !doubles;
    stale_releases = !stale;
  }

(* ------------------------------------------------------------------ *)
(* Compaction *)

let rewrite ~path grants =
  let tmp = path ^ ".tmp" in
  match open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp with
  | exception Sys_error e -> Error (Printf.sprintf "journal %s: %s" tmp e)
  | oc -> (
    match
      let buf = Buffer.create 1024 in
      let payload = Bytes.create max_record_payload in
      List.iter
        (fun (name, (epoch, client, token)) ->
          add_frame buf payload (Grant { name; epoch; client; token }))
        grants;
      Buffer.output_buffer oc buf;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error e ->
      (try close_out oc with Sys_error _ -> ());
      Error (Printf.sprintf "journal compaction: %s" e)
    | exception Unix.Unix_error (e, _, _) ->
      (try close_out oc with Sys_error _ -> ());
      Error (Printf.sprintf "journal compaction: %s" (Unix.error_message e)))
