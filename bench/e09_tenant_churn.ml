(* E9 — Tenant churn: live injection/removal keeps the network
   disruption-free (§1.1, §3).

   "The number of virtual networks and their needs change rapidly due
   to tenant churn. FlexNet allows tenants to inject customer-specific
   network extensions as they arrive; departures trigger program removal."

   Poisson tenant arrivals with exponential sojourn times against a
   live network carrying background traffic. Reported: admissions,
   departures, mean injection plan duration, and background packets
   lost (must be zero — changes are hitless). *)

let run_case ~lambda =
  let net = Scenario.up () in
  let sim = Flexnet.sim net in
  let sent =
    Scenario.cbr sim ~h0:(Flexnet.h0 net) ~h1:(Flexnet.h1 net)
      ~rate_pps:2_000. ~stop:4.0
  in
  let rng = Random.State.make [| 31 |] in
  let counter = ref 0 in
  let durations = Netsim.Stats.Summary.create () in
  let admitted = ref 0 and departed = ref 0 and rejected = ref 0 in
  let churn = Netsim.Traffic.create ~seed:77 sim in
  Netsim.Traffic.poisson churn ~lambda ~start:0.1 ~stop:3.5 ~send:(fun () ->
      incr counter;
      let name = Printf.sprintf "tenant%d" !counter in
      let ext =
        if Random.State.bool rng then
          Apps.Firewall.program ~owner:name ~boundary:100 ()
        else
          Apps.Nat.program ~owner:name ~public:(900 + !counter)
            ~subnet_lo:10 ~subnet_hi:20 ()
      in
      match Flexnet.add_tenant net ext with
      | Ok (_, report) ->
        incr admitted;
        Netsim.Stats.Summary.add durations report.Compiler.Incremental.duration;
        (* departure after an exponential sojourn *)
        let sojourn = Netsim.Traffic.exponential churn ~mean:0.8 in
        Netsim.Sim.after sim sojourn (fun () ->
            match Flexnet.remove_tenant net name with
            | Ok _ -> incr departed
            | Error _ -> ())
      | Error _ -> incr rejected);
  Flexnet.run net ~until:5.0;
  let stats = Flexnet.stats net in
  [ Printf.sprintf "%.0f/s" lambda;
    Report.i !admitted;
    Report.i !rejected;
    Report.i !departed;
    Report.ms (Netsim.Stats.Summary.mean durations);
    Report.i !sent;
    Report.i (!sent - stats.Flexnet.delivered_h1) ]

(* Admission-policy comparison on the shared churn workload
   (Scenario.churn_specs, the E18 generator): the same 200 arrivals —
   programs, sojourns, budgets, SLAs all fixed by the seed — admitted
   once by the market auction and once by the fixed-threshold policy.
   Alongside the outcome counts, the [tenants.admit_latency_ms]
   histogram gives wall-clock admission percentiles (satellite of the
   tenant-economy PR: e9 reports latency shape, not just counts). *)
let policy_row label (s : Common.churn_stats) =
  [ label;
    Report.i s.Common.ch_arrivals;
    Report.i s.Common.ch_admitted;
    Report.i s.Common.ch_deferred;
    Report.i s.Common.ch_preempted;
    Report.i s.Common.ch_rejected;
    Report.pct s.Common.ch_mean_util;
    Printf.sprintf "%.2f" s.Common.ch_lat_p50;
    Printf.sprintf "%.2f" s.Common.ch_lat_p99 ]

let run_policy_comparison () =
  let workload () = Scenario.churn_specs ~seed:31 200 in
  (* single switch, as in E18: the offered load must overload the path
     for the policies to differ *)
  let market, _ =
    Common.run_market_churn ~switches:1 ~lambda:60. (workload ())
  in
  let threshold =
    Common.run_threshold_churn ~switches:1 ~lambda:60. (workload ())
  in
  Report.print ~id:"E9b" ~title:"admission policy: market vs fixed threshold"
    ~claim:
      "on an identical overloaded churn stream, price-driven admission \
       sustains higher bottleneck utilization than a fixed-threshold \
       policy by deferring priced-out bidders instead of rejecting, at \
       comparable admission latency (see E18 for the full economy)"
    ~header:
      [ "policy"; "arrivals"; "admitted"; "deferred"; "preempted";
        "rejected"; "mean-util"; "p50(ms)"; "p99(ms)" ]
    [ policy_row "market" market; policy_row "threshold" threshold ]

let run () =
  let rows = List.map (fun lambda -> run_case ~lambda) [ 2.; 5.; 10. ] in
  Report.print ~id:"E9" ~title:"tenant churn with live background traffic"
    ~claim:
      "tenant extensions are admitted, isolated, and removed at runtime with \
       sub-second plans and zero background-traffic loss"
    ~header:
      [ "arrival-rate"; "admitted"; "rejected"; "departed"; "mean-inject(ms)";
        "bg-sent"; "bg-lost" ]
    rows;
  run_policy_comparison ()
