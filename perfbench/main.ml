(* FlexNet benchmark: command line, episode loop and report.

     main.exe --workload fabric|tiered_zipf|tenant_churn --seed N
              --seconds S --trace 0|1

   Runs episodes of the workload, each built from (seed, episode index),
   until S seconds have passed, checks every episode's outputs, prints
   the metrics by name with their units, and ends with one JSON line.
   With --trace 0 that line carries the end-to-end metrics. With
   --trace 1 each episode runs twice on the same inputs, untraced and
   then traced, and the line carries the per-layer ledger, including
   the engine residual and the tracing overhead. The traced episodes'
   sampled spans are written to perfbench/_out/spans-<workload>.jsonl.
   Exits 1 when a correctness check fails. *)

type workload = {
  name : string;
  episode : seed:int -> index:int -> ledger:Ledger.t option -> Episode.t;
  min_episodes : int;
  tail_q : float;
      (* the tail percentile, fixed per workload: every episode yields
         enough latency samples to leave >= 10 beyond it *)
  op : string; (* what one operation is *)
}

let workloads =
  [ { name = "fabric"; episode = Fabric.run_episode; min_episodes = 3;
      tail_q = 0.90; op = "delivered packet" };
    { name = "tiered_zipf"; episode = Tiered_zipf.run_episode;
      min_episodes = 3; tail_q = 0.99; op = "verified lookup" };
    { name = "tenant_churn"; episode = Tenant_churn.run_episode;
      min_episodes = 2; tail_q = 0.95; op = "settled arrival" } ]

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let enough w eps = List.length eps >= w.min_episodes

(* Episodes 1, 2, ... until the monotonic clock passes [deadline] (ns)
   and there are enough of them for [w]. Each starts after a full major
   collection so one episode's garbage does not slow the next. *)
let episodes w ~deadline run =
  let rec go i acc =
    if Ledger.now_ns () >= deadline && enough w acc then List.rev acc
    else begin
      Gc.compact ();
      go (i + 1) (run i :: acc)
    end
  in
  go 1 []

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The end-to-end episodes of a run, each in a child process of its
   own. A process's speed on a shared machine depends on where its
   memory landed: one process's episodes of tiered_zipf ran at ~1.0M
   lookups/s while the next process's ran at ~1.6M. A fresh process per
   episode draws a fresh placement each time, so a run averages over as
   many placements as it has episodes.

   The parent runs one discarded episode first, which grows the heap
   and warms lazy state, then forks a zygote. The warm-up's inputs are
   the same for every seed: every child inherits its top heap, so a
   seeded warm-up would set a different floor under [peak_heap_mb] on
   each seed. The zygote forks the episode children one at a time,
   waiting for each, so every child starts from the same state: the
   results the parent collects are not in any child's heap, and a
   child's top heap does not grow with the number of episodes before
   it. A child first allocates through its whole minor heap, so the
   copy-on-write faults of its first pass over it land before the
   set-up is timed. Children send their episode and top heap, in MB,
   back over a pipe. Returns the episodes and the median of the
   children's top heaps: the largest one would hang on the one episode
   with the heaviest tenant mix. *)
let forked_episodes w ~seconds ~warm_up run =
  ignore (warm_up ());
  Gc.compact ();
  let deadline = Ledger.now_ns () +. (seconds *. 1e9) in
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let rec zygote index =
      if index > w.min_episodes && Ledger.now_ns () >= deadline then 0
      else
        match Unix.fork () with
        | 0 ->
          (try
             for _ = 0 to (Gc.get ()).Gc.minor_heap_size / 128 do
               ignore (Sys.opaque_identity (Array.make 127 0))
             done;
             Gc.compact ();
             let (e : Episode.t) = run index in
             Marshal.to_channel oc (e, peak_heap_mb ()) [];
             flush oc;
             Unix._exit 0
           with ex ->
             prerr_endline (Printexc.to_string ex);
             Unix._exit 2)
        | pid ->
          (match Unix.waitpid [] pid with
           | _, Unix.WEXITED 0 -> zygote (index + 1)
           | _ -> 2)
    in
    Unix._exit (try zygote 1 with _ -> 2)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let rec collect acc =
      match (Marshal.from_channel ic : Episode.t * float) with
      | x -> collect (x :: acc)
      | exception End_of_file -> List.rev acc
    in
    (* on a garbled result, closing the pipe ends the zygote's next
       write, so waiting for the zygote still returns *)
    let results =
      try collect []
      with ex ->
        close_in ic;
        ignore (Unix.waitpid [] pid);
        raise ex
    in
    close_in ic;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _ -> failwith "benchmark child failed");
    (List.map fst results, Episode.median (Array.of_list (List.map snd results)))

let count (e : Episode.t) name =
  Option.value ~default:0. (List.assoc_opt name e.counts)

(* Samples beyond workload [w]'s tail percentile among [n]. *)
let beyond_tail w n = n - int_of_float (Float.ceil (w.tail_q *. float_of_int n))

(* Failed checks: the episodes' own, and any episode whose latency
   samples leave fewer than 10 beyond the tail percentile. *)
let errors w eps =
  List.concat_map
    (fun (e : Episode.t) ->
      let n = Array.length e.lat_us in
      e.errors
      @
      if beyond_tail w n >= 10 then []
      else
        [ Printf.sprintf "%s: an episode has only %d latency samples" w.name n ])
    eps

let print_json ~correct ~attempted ~failed metrics =
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let print_metrics metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-26s %14.6g %s\n" name v unit)
    metrics

let end_to_end w eps ~heap_mb =
  let ops = isum (fun (e : Episode.t) -> e.ops) eps in
  let lat = Array.concat (List.map (fun (e : Episode.t) -> e.lat_us) eps) in
  let n = Array.length lat in
  let cpu_s = sum (fun (e : Episode.t) -> e.timed.cpu_s) eps in
  let rate = float_of_int ops /. cpu_s in
  (* Latency percentiles are taken per episode and averaged. The host
     alternates between fast and slow spells lasting seconds; one
     percentile over all samples jumps from one speed to the other as
     their shares cross it, an average of per-episode ones moves
     smoothly with the shares. *)
  let per_episode q =
    sum (fun (e : Episode.t) -> Episode.quantile e.lat_us q) eps
    /. float_of_int (List.length eps)
  in
  let p50 = per_episode 0.5 and tail = per_episode w.tail_q in
  let beyond (e : Episode.t) = beyond_tail w (Array.length e.lat_us) in
  Printf.printf
    "%s: %d episodes, %d %ss in %.3f s of timed host CPU time (%.3f s wall)\n"
    w.name (List.length eps) ops w.op cpu_s
    (sum (fun (e : Episode.t) -> e.timed.seconds) eps);
  Printf.printf
    "  op latency: %d samples, %d to %d per episode; the tail is p%g, at \
     least %d samples beyond it in every episode\n"
    n
    (List.fold_left (fun m (e : Episode.t) -> min m (Array.length e.lat_us)) max_int eps)
    (List.fold_left (fun m (e : Episode.t) -> max m (Array.length e.lat_us)) 0 eps)
    (100. *. w.tail_q)
    (List.fold_left (fun m e -> min m (beyond e)) max_int eps);
  let fail_frac =
    sum (fun e -> count e "failures") eps
    /. float_of_int (max 1 (isum (fun (e : Episode.t) -> e.attempted) eps))
  in
  Printf.printf "  per episode:%s\n"
    (String.concat ""
       (List.map
          (fun (name, _) ->
            Printf.sprintf " %s %.6g" name
              (sum (fun e -> count e name) eps /. float_of_int (List.length eps)))
          (List.hd eps).counts));
  (* the same figures under this workload's own names *)
  print_metrics
    (match w.name with
     | "fabric" ->
       [ ("delivered_pps", "1/s", rate); ("fail_frac", "dropped/sent", fail_frac) ]
     | "tiered_zipf" ->
       [ ("lookup_pps", "1/s", rate);
         ("fail_frac", "misforwards/lookups", fail_frac) ]
     | _ ->
       [ ("churn_arrivals_per_s", "1/s", rate);
         ("admit_p50_ms", "ms", Episode.median lat /. 1e3);
         (Printf.sprintf "admit_tail_ms (p99, n=%d)" n, "ms",
          Episode.quantile lat 0.99 /. 1e3);
         ("fail_frac", "rejected/arrivals", fail_frac) ]);
  [ ("setup_s", "s",
     Episode.median
       (Array.of_list (List.map (fun (e : Episode.t) -> e.setup_s) eps)));
    ("ops_per_s", "1/s", rate);
    ("op_p50_us", "us", p50);
    ("op_tail_us", "us", tail);
    ("alloc_words_per_op", "words",
     sum (fun (e : Episode.t) -> e.timed.words) eps /. float_of_int (max 1 ops));
    ("peak_heap_mb", "MB", heap_mb) ]

(* Layers whose frames open inside the timed phase; what they do not
   cover of it is the engine residual. *)
let timed_layers =
  List.filter (fun l -> l <> Ledger.certify) (List.init Ledger.layers Fun.id)

(* Host time and minor words of the traced timed phases that no layer's
   frame covers: the engine, which is left untimed. *)
let residual lg pairs =
  let self_sum f = List.fold_left (fun acc l -> acc +. f lg l) 0. timed_layers in
  ( (sum (fun (e : Episode.t) -> e.timed.seconds) pairs *. 1e9)
    -. self_sum Ledger.self_ns,
    sum (fun (e : Episode.t) -> e.timed.minor_words) pairs
    -. self_sum Ledger.self_words )

(* The per-layer ledger of a traced run. Times and words are per call
   and counts per episode. The tracing overhead compares the traced
   episodes' host CPU time with their untraced twins'. *)
let per_layer lg pairs =
  let n = float_of_int (List.length pairs) in
  let ops = float_of_int (isum (fun (e : Episode.t) -> e.ops) pairs) in
  let mean name = sum (fun e -> count e name) pairs /. n in
  let div a b = if b = 0. then 0. else a /. b in
  let calls l = float_of_int (Ledger.calls lg l) in
  let self l = div (Ledger.self_ns lg l) (calls l) in
  let words l = div (Ledger.self_words lg l) (calls l) in
  let total_ms l = div (Ledger.total_ns lg l) (calls l) /. 1e6 in
  let both f = f Ledger.tier_hit +. f Ledger.tier_miss in
  let events = float_of_int (isum (fun (e : Episode.t) -> e.events) pairs) in
  let residual_ns, residual_words = residual lg pairs in
  [ ("traffic.gen_ns", "ns", self Ledger.traffic_gen);
    ("packet.new_ns", "ns", self Ledger.packet_new);
    ("packet.new_words", "words", words Ledger.packet_new);
    ("link.send_ns", "ns", self Ledger.link_send);
    ("link.send_words", "words", words Ledger.link_send);
    ("link.drops", "count", mean "link.drops");
    ("link.depth_points", "count", mean "link.depth_points");
    ("engine.ns_per_event", "ns", div residual_ns events);
    ("engine.words_per_event", "words", div residual_words events);
    ("shard.events", "count", mean "shard.events");
    ("shard.epochs", "count", mean "shard.epochs");
    ("shard.messages", "count", mean "shard.messages");
    ("shard.spilled", "count", mean "shard.spilled");
    ("device.exec_ns", "ns", self Ledger.device_exec);
    ("device.exec_words", "words", words Ledger.device_exec);
    ("device.exec_per_pkt", "count", div (calls Ledger.device_exec) ops);
    ("compile.run_ns", "ns",
     div (both (Ledger.self_ns lg)) (both calls));
    ("compile.run_words", "words",
     div (both (Ledger.self_words lg)) (both calls));
    ("tier.hit_ns", "ns", self Ledger.tier_hit);
    ("tier.miss_ns", "ns", self Ledger.tier_miss);
    ("tier.hit_rate", "ratio", mean "tier.hit_rate");
    ("tier.promotions", "count", mean "tier.promotions");
    ("tier.evictions", "count", mean "tier.evictions");
    ("tier.demotions", "count", mean "tier.demotions");
    ("auction.clear_ms", "ms", total_ms Ledger.auction_clear);
    ("auction.self_ms", "ms",
     div (Ledger.self_ns lg Ledger.auction_clear) (calls Ledger.auction_clear)
     /. 1e6);
    ("auction.rounds", "count", mean "auction.rounds");
    ("auction.iterations", "count", mean "auction.iterations");
    ("tenants.admit_ms", "ms", total_ms Ledger.tenants_admit);
    ("tenants.depart_ms", "ms", total_ms Ledger.tenants_depart);
    ("certify.ms", "ms", total_ms Ledger.certify);
    ("tenants.admitted", "count", mean "tenants.admitted");
    ("tenants.deferred", "count", mean "tenants.deferred");
    ("tenants.preempted", "count", mean "tenants.preempted");
    ("tenants.rejected", "count", mean "tenants.rejected");
    ("churn.util_mean", "ratio", mean "churn.util_mean");
    ("gc.minor_collections", "count", mean "plain.minor_gcs");
    ("gc.major_collections", "count", mean "plain.major_gcs");
    ("gc.promoted_words_per_op", "words", div (mean "plain.promoted") (div ops n));
    ("trace.overhead_frac", "ratio",
     div
       (sum (fun (e : Episode.t) -> e.timed.cpu_s) pairs)
       (sum (fun e -> count e "plain_cpu_s") pairs)
     -. 1.) ]

(* Where one operation's host time went in the traced run, layer by
   layer plus the engine residual, against the untraced twins. *)
let print_breakdown w lg pairs =
  let ops = float_of_int (isum (fun (e : Episode.t) -> e.ops) pairs) in
  let per_op ns = ns /. ops in
  Printf.printf "  host ns per %s, traced run:" w.op;
  List.iter
    (fun l ->
      if Ledger.calls lg l > 0 then
        Printf.printf " %s %.1f +" Ledger.names.(l) (per_op (Ledger.self_ns lg l)))
    timed_layers;
  Printf.printf " engine residual %.1f = %.1f; untraced %.1f\n"
    (per_op (fst (residual lg pairs)))
    (per_op (sum (fun (e : Episode.t) -> e.timed.seconds) pairs *. 1e9))
    (per_op (sum (fun e -> count e "plain_s") pairs *. 1e9))

let report w eps metrics =
  print_metrics metrics;
  let errs =
    errors w eps
    @ List.filter_map
        (fun (name, _, v) ->
          if Float.is_finite v then None
          else Some (Printf.sprintf "%s: %s is not a number" w.name name))
        metrics
  in
  List.iter (Printf.printf "CHECK FAILED: %s\n") errs;
  print_json ~correct:(errs = [])
    ~attempted:(isum (fun (e : Episode.t) -> e.attempted) eps)
    ~failed:(isum (fun (e : Episode.t) -> e.failed) eps)
    metrics;
  if errs <> [] then exit 1

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if not trace then begin
    let eps, heap_mb =
      forked_episodes w ~seconds
        ~warm_up:(fun () -> w.episode ~seed:0 ~index:0 ~ledger:None)
        (fun index -> w.episode ~seed ~index ~ledger:None)
    in
    List.iteri
      (fun i (e : Episode.t) ->
        Printf.printf
          "episode %d: setup %.4f s, timed %.4f s CPU (%.4f s wall), %d ops, \
           digest %s\n"
          (i + 1) e.setup_s e.timed.cpu_s e.timed.seconds e.ops e.digest)
      eps;
    report w eps (end_to_end w eps ~heap_mb)
  end
  else begin
    let lg = Ledger.create () in
    let pair index =
      let plain = w.episode ~seed ~index ~ledger:None in
      Gc.compact ();
      let traced = w.episode ~seed ~index ~ledger:(Some lg) in
      { traced with
        Episode.lat_us = plain.lat_us;
        errors =
          plain.errors @ traced.errors
          @
          if plain.digest = traced.digest then []
          else
            [ Printf.sprintf "%s: tracing changed the outputs of episode %d"
                w.name index ];
        counts =
          ("plain_s", plain.timed.seconds)
          :: ("plain_cpu_s", plain.timed.cpu_s)
          :: ("plain.minor_gcs", float_of_int plain.timed.minor_gcs)
          :: ("plain.major_gcs", float_of_int plain.timed.major_gcs)
          :: ("plain.promoted", plain.timed.promoted)
          :: traced.counts }
    in
    ignore (w.episode ~seed ~index:0 ~ledger:None);
    let deadline = Ledger.now_ns () +. (seconds *. 1e9) in
    let pairs = episodes w ~deadline pair in
    Printf.printf "%s traced: %d episode pairs (untraced, then traced)\n" w.name
      (List.length pairs);
    print_breakdown w lg pairs;
    let path = Filename.concat "perfbench" "_out" in
    if not (Sys.file_exists path) then Sys.mkdir path 0o755;
    let file = Filename.concat path ("spans-" ^ w.name ^ ".jsonl") in
    Ledger.write_spans lg file;
    Printf.printf "  wrote %d sampled spans to %s (%d dropped at capacity)\n"
      (Ledger.spans lg) file (Ledger.spans_dropped lg);
    report w pairs (per_layer lg pairs)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME fabric, tiered_zipf or tenant_churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
