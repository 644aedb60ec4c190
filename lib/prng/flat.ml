(* A bank of SplitMix64 streams in one int64 bigarray.

   [Splitmix.t] is a heap record holding a boxed int64, which is fine for
   coarse-grained use but poisonous in a zero-allocation step loop: every
   state update boxes.  Bigarrays store int64s unboxed, and (verified on
   the 5.1 non-flambda compiler this repo targets) a load / mix / store
   sequence on locals inside a single function compiles with no heap
   traffic at all.  So the fast simulation core keeps one stream per
   simulated process (plus one for the scheduler) here, and the mixing
   arithmetic below is duplicated from [Splitmix] rather than shared —
   calling across the module boundary would re-box the int64s. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let golden_gamma = 0x9E3779B97F4A7C15L
let max_int62 = (1 lsl 62) - 1

let create n =
  if n < 1 then invalid_arg "Flat.create: need at least one stream";
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0L;
  a

let streams (t : t) = Bigarray.Array1.dim t

let reseed (t : t) ~seed =
  (* [root] replays [Splitmix.of_int seed]; stream [i] then starts exactly
     where [Splitmix.split_at root_gen i] would: child seed =
     mix64 (root + (i+1) * gamma), and [split]'s create diffuses it once
     more.  All inlined so reseeding allocates nothing (an int64 argument
     would arrive boxed). *)
  let r = Int64.add (Int64.of_int seed) golden_gamma in
  let r = Int64.mul (Int64.logxor r (Int64.shift_right_logical r 30)) 0xBF58476D1CE4E5B9L in
  let r = Int64.mul (Int64.logxor r (Int64.shift_right_logical r 27)) 0x94D049BB133111EBL in
  let root = Int64.logxor r (Int64.shift_right_logical r 31) in
  for i = 0 to Bigarray.Array1.dim t - 1 do
    let z = Int64.add root (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let z = Int64.add z golden_gamma in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Bigarray.Array1.unsafe_set t i z
  done

let set_state (t : t) i s = Bigarray.Array1.set t i s
let get_state (t : t) i = Bigarray.Array1.get t i

let seed_stream (t : t) ~slot ~seed ~stream =
  (* Exactly the state [reseed ~seed] would give stream [stream], written
     into bank position [slot].  This is what lets a large-n streaming
     run keep a single-slot bank and derive each process's stream on the
     fly instead of materialising n+1 states up front.  Same inlined
     arithmetic as [reseed]: no boxed int64 crosses a function boundary,
     so the derivation allocates nothing. *)
  if stream < 0 then invalid_arg "Flat.seed_stream: negative stream";
  let r = Int64.add (Int64.of_int seed) golden_gamma in
  let r = Int64.mul (Int64.logxor r (Int64.shift_right_logical r 30)) 0xBF58476D1CE4E5B9L in
  let r = Int64.mul (Int64.logxor r (Int64.shift_right_logical r 27)) 0x94D049BB133111EBL in
  let root = Int64.logxor r (Int64.shift_right_logical r 31) in
  let z = Int64.add root (Int64.mul (Int64.of_int (stream + 1)) golden_gamma) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let z = Int64.add z golden_gamma in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Bigarray.Array1.set t slot z

(* Advance stream [i] and return the top 62 bits, exactly as
   [Splitmix.bits].  Self-contained: the int64 locals never cross a
   function boundary, so none of them is boxed. *)
let[@inline] bits (t : t) i =
  let s = Int64.add (Bigarray.Array1.unsafe_get t i) golden_gamma in
  Bigarray.Array1.unsafe_set t i s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

(* Rejection loop as a tail-recursive top-level function: no closure, no
   ref cell.  [Splitmix.int] rejects [v >= limit], where [limit] is
   [max_int62 - max_int62 mod bound], the largest multiple of [bound] not
   above [max_int62].  With [r = v mod bound], [v - r] is the multiple of
   [bound] at or below [v], and it reaches [limit] exactly when it exceeds
   [max_int62 - bound]: the same test from the one division the draw
   needs anyway, so draws and stream positions are unchanged. *)
let rec reject t i bound =
  let v = bits t i in
  let r = v mod bound in
  if v - r > max_int62 - bound then reject t i bound else r

let[@inline] int (t : t) i bound =
  if bound <= 0 then invalid_arg "Flat.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits t i land (bound - 1) else reject t i bound

let float (t : t) i =
  let s = Int64.add (Bigarray.Array1.unsafe_get t i) golden_gamma in
  Bigarray.Array1.unsafe_set t i s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) *. 0x1p-53
