(* In-memory span recorder for the traced run.

   A span is (request id, layer, start ns, end ns, calls).  Spans of one
   request share its id; the request's root span is the one on layer
   [request] (post -> response), and every other span carrying the same
   id happened inside it.  Id [-1] marks a span that belongs to no single
   request: a poll that returned nothing, or a batch of sub-microsecond
   calls timed together, where [calls] says how many.

   Spans go to a preallocated bigarray and are written out only at the
   end; past [capacity] spans the per-layer totals keep counting but no
   more spans are stored ([dropped]). *)

let capacity = 1 lsl 17

type t = {
  layers : string array;
  buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
  mutable dropped : int;
  total_ns : int array;
}

let fields = 5

let create layers =
  {
    layers;
    buf = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (capacity * fields);
    len = 0;
    dropped = 0;
    total_ns = Array.make (Array.length layers) 0;
  }

let layer t name =
  let rec go i =
    if i = Array.length t.layers then invalid_arg ("Spans.layer: " ^ name)
    else if t.layers.(i) = name then i
    else go (i + 1)
  in
  go 0

let record t ~layer ~id ~t0 ~t1 ~calls =
  t.total_ns.(layer) <- t.total_ns.(layer) + (t1 - t0);
  if t.len < capacity then begin
    let o = t.len * fields in
    Bigarray.Array1.unsafe_set t.buf o id;
    Bigarray.Array1.unsafe_set t.buf (o + 1) layer;
    Bigarray.Array1.unsafe_set t.buf (o + 2) t0;
    Bigarray.Array1.unsafe_set t.buf (o + 3) t1;
    Bigarray.Array1.unsafe_set t.buf (o + 4) calls;
    t.len <- t.len + 1
  end
  else t.dropped <- t.dropped + 1

let total_ns t name = t.total_ns.(layer t name)

(* Tab-separated, one span per line, times relative to the earliest start. *)
let write t path =
  let oc = open_out path in
  Printf.fprintf oc "# id\tlayer\tstart_ns\tend_ns\tcalls\t(dropped %d)\n" t.dropped;
  let base = ref max_int in
  for i = 0 to t.len - 1 do
    base := min !base (Bigarray.Array1.get t.buf ((i * fields) + 2))
  done;
  let base = !base in
  for i = 0 to t.len - 1 do
    let g k = Bigarray.Array1.get t.buf ((i * fields) + k) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" (g 0) t.layers.(g 1) (g 2 - base)
      (g 3 - base) (g 4)
  done;
  close_out oc
