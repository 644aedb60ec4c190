(* Storage is one bit per location, in a dense preallocated prefix plus
   a two-level chunked tail, all of it in [Bigarray] byte arrays outside
   the OCaml heap.

   The adaptive algorithms place object R_i at an offset exponential in
   i, so the index space is huge and extremely sparse (a rare probe of
   R_32 must not allocate 2^33 cells): locations at or above [dense_len]
   live in chunks of 65536 bits (8 KiB) that are materialised only when
   probed.

   The dense prefix is the large-n mode: [create ~capacity] commits a
   bit per location up front, so a measured sweep at n = 10^8 never
   grows the chunk table, never allocates a chunk, and never pays the
   chunk indirection on the hot path — every probe below the boundary
   is one unsafe byte load and at most one store.  At one bit per
   location the 2n-cell space of ReBatching is 250 KB at n = 10^6, small
   enough to stay in a core's L2, and being out of the heap the major GC
   never scans or moves it. *)

type bits = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

(* Materialised chunks take consecutive slots, eight slots to a 64 KiB
   slab.  Each [Bigarray] costs a custom block on the minor heap, and the
   sparse adaptive runs materialise a chunk every ~700 steps, so one
   block per chunk would break the large-n sweeps' 0.01 words/op budget;
   one per slab stays well inside it.  A slot's bits never move except
   when the first slab grows (see [slot_for]). *)
let slab_shift = 3
let slab_chunks = 1 lsl slab_shift

(* Bytes needed to hold [n] bits. *)
let[@inline] bytes_for n = (n + 7) lsr 3

let bits_create n : bits =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (bytes_for n) in
  Bigarray.Array1.fill b '\000';
  b

let[@inline] get_bit (b : bits) i =
  Char.code (Bigarray.Array1.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Set bit [i]; [true] iff it was clear. *)
let[@inline] set_bit (b : bits) i =
  let j = i lsr 3 and m = 1 lsl (i land 7) in
  let v = Char.code (Bigarray.Array1.unsafe_get b j) in
  v land m = 0
  && begin
    Bigarray.Array1.unsafe_set b j (Char.unsafe_chr (v lor m));
    true
  end

(* Clear bit [i]; [true] iff it was set. *)
let[@inline] clear_bit (b : bits) i =
  let j = i lsr 3 and m = 1 lsl (i land 7) in
  let v = Char.code (Bigarray.Array1.unsafe_get b j) in
  v land m <> 0
  && begin
    Bigarray.Array1.unsafe_set b j (Char.unsafe_chr (v land lnot m));
    true
  end

type t = {
  dense : bits;  (* locations < dense_len *)
  dense_len : int;
  mutable slot : int array;  (* chunk index (loc lsr chunk_bits) -> 1 + slot, 0 = none *)
  mutable slabs : bits array;  (* slot s lives in slabs.(s lsr slab_shift) *)
  mutable nslots : int;
  mutable probes : int;
  mutable wins : int;
  mutable hwm : int;
}

let no_slab = bits_create 0

let create ?(capacity = 0) () =
  let dense_len = max capacity 0 in
  {
    dense = bits_create dense_len;
    dense_len;
    slot = Array.make 16 0;
    slabs = [||];
    nslots = 0;
    probes = 0;
    wins = 0;
    hwm = 0;
  }

let[@inline] slab t s = Array.unsafe_get t.slabs (s lsr slab_shift)

(* Index in [slab t s] of the first bit of slot [s], and of [loc]'s bit
   when [s] holds [loc]'s chunk. *)
let[@inline] slot_base s = (s land (slab_chunks - 1)) lsl chunk_bits
let[@inline] tail_bit s loc = slot_base s + (loc land (chunk_size - 1))

(* The slot of chunk [ci], materialising the chunk if need be. *)
let slot_for t ci =
  let top = Array.length t.slot in
  if ci >= top then begin
    let bigger = Array.make (max (ci + 1) (2 * top)) 0 in
    Array.blit t.slot 0 bigger 0 top;
    t.slot <- bigger
  end;
  let s = t.slot.(ci) - 1 in
  if s >= 0 then s
  else begin
    let s = t.nslots in
    let si = s lsr slab_shift in
    if si = Array.length t.slabs then begin
      let bigger = Array.make (max 4 (2 * si)) no_slab in
      Array.blit t.slabs 0 bigger 0 si;
      t.slabs <- bigger
    end;
    let w = s land (slab_chunks - 1) in
    if w = 0 then t.slabs.(si) <- bits_create ((if si = 0 then 1 else slab_chunks) * chunk_size)
    else begin
      (* Only the first slab is ever short: it starts at one chunk and
         doubles, so a space that probes one chunk costs 8 KiB. *)
      let old = t.slabs.(si) in
      if w lsl (chunk_bits - 3) = Bigarray.Array1.dim old then begin
        let b = bits_create (2 * w * chunk_size) in
        Bigarray.Array1.blit old (Bigarray.Array1.sub b 0 (Bigarray.Array1.dim old));
        t.slabs.(si) <- b
      end
    end;
    t.nslots <- s + 1;
    t.slot.(ci) <- s + 1;
    s
  end

let[@inline] counted t loc won =
  t.probes <- t.probes + 1;
  if loc >= t.hwm then t.hwm <- loc + 1;
  if won then t.wins <- t.wins + 1;
  won

(* Negative and tail locations, kept out of [tas] so that its dense
   path makes no call and needs no stack frame. *)
let tas_tail t loc =
  if loc < 0 then invalid_arg "Location_space.tas: negative location";
  let s = slot_for t (loc lsr chunk_bits) in
  counted t loc (set_bit (slab t s) (tail_bit s loc))

let tas t loc =
  if loc >= 0 && loc < t.dense_len then counted t loc (set_bit t.dense loc) else tas_tail t loc

let release t loc =
  if loc < 0 then invalid_arg "Location_space.release: negative location";
  if loc >= t.hwm then t.hwm <- loc + 1;
  let freed =
    if loc < t.dense_len then clear_bit t.dense loc
    else
      let s = slot_for t (loc lsr chunk_bits) in
      clear_bit (slab t s) (tail_bit s loc)
  in
  if freed then t.wins <- t.wins - 1

let is_taken t loc =
  loc >= 0
  &&
  if loc < t.dense_len then get_bit t.dense loc
  else
    let ci = loc lsr chunk_bits in
    ci < Array.length t.slot
    &&
    let s = t.slot.(ci) - 1 in
    s >= 0 && get_bit (slab t s) (tail_bit s loc)

let zero_counters t =
  t.probes <- 0;
  t.wins <- 0;
  t.hwm <- 0

let reset t =
  Bigarray.Array1.fill t.dense '\000';
  Array.fill t.slot 0 (Array.length t.slot) 0;
  t.slabs <- [||];
  t.nslots <- 0;
  zero_counters t

let clear t =
  (* Like [reset], but keeps the chunk storage: zeroing in place means a
     reused space reaches allocation-free steady state, which the
     benchmark harness relies on when it re-runs a preallocated
     [Fast_core] handle thousands of times. *)
  Bigarray.Array1.fill t.dense '\000';
  Array.iter (fun b -> Bigarray.Array1.fill b '\000') t.slabs;
  zero_counters t

let probe_count t = t.probes
let win_count t = t.wins
let high_water_mark t = t.hwm

(* Snapshots copy only the occupied prefix of each storage region (up
   to the high-water mark), so for the tiny spaces the systematic
   explorer drives (hwm of a few dozen cells) a save is a few bytes, not
   an 8 KiB copy per DFS transition.  Bits at or above the high-water
   mark are always clear, so a prefix rounded up to whole bytes carries
   no stray state. *)

type snap = {
  s_probes : int;
  s_wins : int;
  s_hwm : int;
  s_dense : Bytes.t;  (* occupied prefix of the dense region *)
  s_prefix : (int * Bytes.t) list;  (* chunk index, occupied prefix *)
}

(* Byte ranges of a bitmap: [nbits] bits from byte [base] on. *)
let copy_out (b : bits) base nbits =
  Bytes.init (bytes_for nbits) (fun j -> Bigarray.Array1.unsafe_get b (base + j))

let copy_in (b : bits) base p = Bytes.iteri (fun j c -> Bigarray.Array1.unsafe_set b (base + j) c) p

let zero (b : bits) base nbits =
  for j = base to base + bytes_for nbits - 1 do
    Bigarray.Array1.unsafe_set b j '\000'
  done

let save t =
  let pre = ref [] in
  Array.iteri
    (fun ci s1 ->
      let lo = ci lsl chunk_bits in
      if s1 > 0 && lo < t.hwm && lo + chunk_size > t.dense_len then
        let s = s1 - 1 in
        pre := (ci, copy_out (slab t s) (slot_base s lsr 3) (min chunk_size (t.hwm - lo))) :: !pre)
    t.slot;
  {
    s_probes = t.probes;
    s_wins = t.wins;
    s_hwm = t.hwm;
    s_dense = copy_out t.dense 0 (min t.dense_len t.hwm);
    s_prefix = !pre;
  }

let restore t s =
  (* Zero every byte that may have been touched since (or before) the
     snapshot, then copy the saved prefixes back. *)
  let top = max t.hwm s.s_hwm in
  zero t.dense 0 (min t.dense_len top);
  Array.iteri
    (fun ci s1 ->
      let lo = ci lsl chunk_bits in
      if s1 > 0 && lo < top then
        let s = s1 - 1 in
        zero (slab t s) (slot_base s lsr 3) (min chunk_size (top - lo)))
    t.slot;
  copy_in t.dense 0 s.s_dense;
  List.iter
    (fun (ci, p) ->
      let s = slot_for t ci in
      copy_in (slab t s) (slot_base s lsr 3) p)
    s.s_prefix;
  t.probes <- s.s_probes;
  t.wins <- s.s_wins;
  t.hwm <- s.s_hwm
