(* One episode of a workload: set up from a seed, run the timed phase,
   check the outputs. A run repeats episodes until its time is up and
   reports medians across them, so one slow episode cannot move a
   figure. *)

(* End-to-end host time is the process's CPU time (getrusage, 1 us
   resolution). On a shared virtual machine the hypervisor steals the
   CPU now and then; wall time counts those stalls, CPU time does not,
   so CPU time reads the program rather than its neighbours. Per-layer
   spans use the monotonic clock, which is cheaper to read. *)
let cpu_s () = Sys.time ()

(* Host cost of one measured phase. *)
type phase = {
  seconds : float; (* monotonic clock *)
  cpu_s : float;
  words : float; (* allocated: minor + direct major *)
  minor_words : float;
  promoted : float;
  minor_gcs : int;
  major_gcs : int;
}

type t = {
  setup_s : float; (* host CPU time to build the net, tables or market *)
  timed : phase;
  ops : int; (* delivered packets, verified lookups or settled arrivals *)
  lat_us : float array; (* per-operation host CPU latency samples *)
  attempted : int;
  failed : int;
  errors : string list; (* failed correctness checks *)
  events : int; (* simulation events in the timed phase *)
  counts : (string * float) list; (* per-layer counts of this episode *)
  digest : string; (* output fingerprint: equal seeds, equal digest *)
}

(* Run [f], measuring its host time, allocation and GC activity. *)
let measure f =
  let s0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = Ledger.now_ns () in
  let x = f () in
  let t1 = Ledger.now_ns () in
  let c1 = cpu_s () in
  let s1 = Gc.quick_stat () in
  let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  ( x,
    { seconds = (t1 -. t0) /. 1e9;
      cpu_s = c1 -. c0;
      words = alloc s1 -. alloc s0;
      minor_words = s1.minor_words -. s0.minor_words;
      promoted = s1.promoted_words -. s0.promoted_words;
      minor_gcs = s1.minor_collections - s0.minor_collections;
      major_gcs = s1.major_collections - s0.major_collections } )

(* Host CPU time of [f] in seconds. *)
let time f =
  let t0 = cpu_s () in
  let x = f () in
  (x, cpu_s () -. t0)

(* Linear-interpolation quantile ([q] in [0, 1]) of unsorted values. *)
let quantile values q =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median values = quantile values 0.5

(* Build [builds] times and keep the last build; the setup time is the
   median of the builds' CPU times. Each workload fixes its count so
   that the builds take ~20 ms: a build of tenant_churn's one-switch
   market takes ~70 us, where the host's noise is as large as the build.
   The count is fixed rather than timed because the discarded builds'
   garbage raises the episode's top heap. A full major collection then
   clears them, so the timed phase does not sweep them. *)
let setup ~builds build =
  let times = Array.make builds 0. in
  let rec go i =
    let x, t = time build in
    times.(i) <- t;
    if i = builds - 1 then x else go (i + 1)
  in
  let x = go 0 in
  Gc.full_major ();
  (x, median times)

(* Growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end
