(* Per-layer cost ledger, kept entirely on the benchmark's side of each
   layer's public API.

   A frame is opened before a call into a layer and closed after it.
   Closing a frame adds its monotonic-clock duration and its
   [Gc.minor_words] delta to the layer's exact sums, minus what nested
   frames already claimed, so each layer is credited with its self
   time. All bookkeeping lives in preallocated int and float arrays:
   opening and closing a frame allocates nothing, so the words a layer
   is charged are the words the layer allocated.

   Spans are kept only for sampled work (the caller decides, by
   [Packet.flow_hash] for packets) in a fixed-capacity buffer; once it
   is full further spans are counted as dropped, never stored. The
   per-layer sums cover every call whether or not it was sampled. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Layer ids: indexes into the ledger's arrays. *)
let traffic_gen = 0
let packet_new = 1
let link_send = 2
let device_exec = 3
let tier_hit = 4
let tier_miss = 5
let auction_clear = 6
let tenants_admit = 7
let tenants_depart = 8
let certify = 9

let names =
  [| "traffic.gen"; "packet.new"; "link.send"; "device.exec";
     "compile.run/hit"; "compile.run/miss"; "auction.clear"; "tenants.admit";
     "tenants.depart"; "certify" |]

let layers = Array.length names
let max_depth = 16

type t = {
  calls : int array;
  total_ns : float array;
  self_ns : float array;
  self_words : float array;
  (* open frames *)
  st_layer : int array;
  st_t0 : float array;
  st_w0 : float array;
  st_child_ns : float array;
  st_child_w : float array;
  st_span : int array;
  mutable depth : int;
  mutable next_span : int;
  mutable last_span : int;
  (* sampled spans *)
  sp_layer : int array;
  sp_span : int array;
  sp_parent : int array;
  sp_id : int array;
  sp_start : float array;
  sp_end : float array;
  mutable sp_n : int;
  mutable sp_dropped : int;
  origin : float;
}

let span_capacity = 65536

let create () =
  let fa n = Array.make n 0. and ia n = Array.make n 0 in
  { calls = ia layers; total_ns = fa layers; self_ns = fa layers;
    self_words = fa layers; st_layer = ia max_depth; st_t0 = fa max_depth;
    st_w0 = fa max_depth; st_child_ns = fa max_depth;
    st_child_w = fa max_depth; st_span = ia max_depth; depth = 0;
    next_span = 0; last_span = -1; sp_layer = ia span_capacity;
    sp_span = ia span_capacity; sp_parent = ia span_capacity;
    sp_id = ia span_capacity; sp_start = fa span_capacity;
    sp_end = fa span_capacity; sp_n = 0; sp_dropped = 0; origin = now_ns () }

let enter t layer =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Ledger.enter: frames nested too deep";
  t.st_layer.(d) <- layer;
  t.st_child_ns.(d) <- 0.;
  t.st_child_w.(d) <- 0.;
  t.st_span.(d) <- t.next_span;
  t.next_span <- t.next_span + 1;
  t.depth <- d + 1;
  t.st_w0.(d) <- Gc.minor_words ();
  t.st_t0.(d) <- now_ns ()

(* Close the innermost frame. [id] >= 0 records it as a span carrying
   that shared id; [parent] names its causal parent span, or is -1 for
   the enclosing frame (none at top level). *)
let leave_span t ~id ~parent =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let layer = t.st_layer.(d) in
  let dt = t1 -. t.st_t0.(d) and dw = w1 -. t.st_w0.(d) in
  t.calls.(layer) <- t.calls.(layer) + 1;
  t.total_ns.(layer) <- t.total_ns.(layer) +. dt;
  t.self_ns.(layer) <- t.self_ns.(layer) +. (dt -. t.st_child_ns.(d));
  t.self_words.(layer) <- t.self_words.(layer) +. (dw -. t.st_child_w.(d));
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) +. dt;
    t.st_child_w.(d - 1) <- t.st_child_w.(d - 1) +. dw
  end;
  let span = t.st_span.(d) in
  t.last_span <- span;
  if id >= 0 then begin
    let n = t.sp_n in
    if n >= Array.length t.sp_span then t.sp_dropped <- t.sp_dropped + 1
    else begin
      t.sp_layer.(n) <- layer;
      t.sp_span.(n) <- span;
      t.sp_parent.(n) <-
        (if parent >= 0 then parent
         else if d > 0 then t.st_span.(d - 1)
         else -1);
      t.sp_id.(n) <- id;
      t.sp_start.(n) <- t.st_t0.(d) -. t.origin;
      t.sp_end.(n) <- t1 -. t.origin;
      t.sp_n <- n + 1
    end
  end

let leave t = leave_span t ~id:(-1) ~parent:(-1)

(* Span id of the most recently closed frame. *)
let last_span t = t.last_span

(* Charge the innermost open frame to [layer] instead: a call whose
   class is only known while it runs (a tier miss pages in through a
   hook) is retagged from inside that hook. *)
let retag t layer = t.st_layer.(t.depth - 1) <- layer

let calls t layer = t.calls.(layer)
let total_ns t layer = t.total_ns.(layer)
let self_ns t layer = t.self_ns.(layer)
let self_words t layer = t.self_words.(layer)
let spans t = t.sp_n
let spans_dropped t = t.sp_dropped

let write_spans t path =
  let oc = open_out path in
  for i = 0 to t.sp_n - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f,\"parent\":%d,\"id\":%d}\n"
      t.sp_span.(i) names.(t.sp_layer.(i)) t.sp_start.(i) t.sp_end.(i)
      t.sp_parent.(i) t.sp_id.(i)
  done;
  close_out oc
