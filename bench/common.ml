(* Shared scaffolding for the experiment harness. *)

open Flexbpf.Builder

(* Whole-stack compile path used by the placement experiments. *)
let mk_path ?(arch = Targets.Arch.Drmt) ?(switches = 3) () =
  [ Targets.Device.create ~id:"h0" Targets.Arch.host_ebpf;
    Targets.Device.create ~id:"nic0" Targets.Arch.smartnic ]
  @ List.init switches (fun i ->
        Targets.Device.create
          ~id:(Printf.sprintf "s%d" i)
          (Targets.Arch.profile_of_kind arch))
  @ [ Targets.Device.create ~id:"nic1" Targets.Arch.smartnic;
      Targets.Device.create ~id:"h1" Targets.Arch.host_ebpf ]

let exact_table ?(size = 1024) name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ set_meta "x" (const 1) ] ]
    ~default:("a", []) ~size ()

let lpm_table ?(size = 1024) name =
  table name
    ~keys:[ lpm (field "ipv4" "dst") ]
    ~actions:[ action "a" [ set_meta "x" (const 1) ] ]
    ~default:("a", []) ~size ()

(* E1's reconfiguration, replayed by E14 and E15: install a one-element
   hit counter on the middle switch s1. *)
let add_counter_plan () =
  let counter = block "cnt" [ map_incr "hits" [ const 0 ] ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter ]
  in
  Compiler.Plan.v "add"
    [ Compiler.Plan.Install
        { device = "s1"; element = counter; ctx = prog; order = 0 } ]

(* What one churn run reports, whichever admission policy drove it.
   Latency quantiles come from the [tenants.admit_latency_ms]
   histogram (every pipeline attempt, wall clock). Utilization is the
   bottleneck's: periodic samples of the most-loaded device on the
   path after warmup — pipeline-order placement funnels tenant
   elements onto the path's tail, so the scarce resource is one
   device's pool and that is the utilization admission policy
   decides. *)
type churn_stats = {
  ch_arrivals : int;
  ch_admitted : int; (* admission events (market: includes re-admissions) *)
  ch_rejected : int;
  ch_deferred : int; (* market only: deferral events *)
  ch_preempted : int; (* market only: evictions *)
  ch_departed : int;
  ch_mean_util : float;
  ch_peak_util : float;
  ch_lat_count : int;
  ch_lat_p50 : float; (* ms *)
  ch_lat_p90 : float;
  ch_lat_p99 : float;
  ch_rounds : int; (* market only: clearing rounds *)
  ch_converged : int; (* market only: rounds whose tatonnement settled *)
  ch_wall_s : float;
}

(* Load of the most-loaded device on the path. *)
let bottleneck net =
  List.fold_left
    (fun acc d -> Float.max acc (Targets.Device.utilization d))
    0. (Flexnet.path net)

(* Shared scaffolding of both drivers: build the net, schedule exactly
   [List.length specs] arrivals with exponential gaps at rate [lambda]
   (a Poisson process of known length), sample switch utilization, run
   to a horizon past the last arrival, and read the latency histogram.
   [arrive] admits one spec, [before_run] installs policy machinery
   (the market's clearing loop), both closing over the net. Returns the
   net and its policy-independent stats; each policy fills in its own
   admission counts. *)
let churn_run ?switches ~lambda ~specs ~make_arrive ?(tail = 1.0)
    ?(before_run = fun _ -> ()) () =
  let net = Scenario.up ?switches () in
  let sim = Flexnet.sim net in
  let tenants = Flexnet.tenants_exn net in
  Control.Tenants.set_clock tenants Unix.gettimeofday;
  let gen = Netsim.Traffic.create ~seed:77 sim in
  let arrivals = ref 0 in
  let arrive = make_arrive net in
  let t = ref 0.1 in
  List.iter
    (fun spec ->
      t := !t +. Netsim.Traffic.exponential gen ~mean:(1. /. lambda);
      let at = !t in
      Netsim.Sim.after sim at (fun () ->
          incr arrivals;
          arrive spec))
    specs;
  let horizon = !t +. tail in
  let warmup = 0.2 *. horizon in
  let samples = ref 0 and util_sum = ref 0. and util_peak = ref 0. in
  Netsim.Sim.every sim ~period:0.05 (fun () ->
      if Netsim.Sim.now sim >= warmup then begin
        let u = bottleneck net in
        incr samples;
        util_sum := !util_sum +. u;
        util_peak := Float.max !util_peak u
      end;
      Netsim.Sim.now sim < horizon);
  before_run (net, horizon);
  let w0 = Unix.gettimeofday () in
  Flexnet.run net ~until:horizon;
  let wall = Unix.gettimeofday () -. w0 in
  let m = Obs.Scope.metrics (Flexnet.obs net) in
  let h = Obs.Metrics.histogram m "tenants.admit_latency_ms" in
  let q = Obs.Metrics.Histogram.quantile h in
  ( net,
    { ch_arrivals = !arrivals; ch_admitted = 0; ch_rejected = 0;
      ch_deferred = 0; ch_preempted = 0; ch_departed = tenants.departed;
      ch_mean_util = !util_sum /. float_of_int (max 1 !samples);
      ch_peak_util = !util_peak;
      ch_lat_count = Obs.Metrics.Histogram.count h; ch_lat_p50 = q 0.5;
      ch_lat_p90 = q 0.9; ch_lat_p99 = q 0.99; ch_rounds = 0;
      ch_converged = 0; ch_wall_s = wall } )

(* Market-policy churn: arrivals become bidders in a Market.Auction
   cleared every 100 ms; a tenant's sojourn timer withdraws it whether
   admitted (ordinary departure) or still waiting (gives up).
   [book_path] picks the devices the auction prices — default the
   path's tail device, the pool pipeline-order placement actually
   packs tenants onto, so prices track the contended resource. *)
let run_market_churn ?switches
    ?(book_path = fun net -> [ List.hd (List.rev (Flexnet.path net)) ])
    ~lambda specs =
  let auction = ref None in
  let make_arrive net =
    let tenants = Flexnet.tenants_exn net in
    let au = Market.Auction.create ~tenants ~path:(book_path net) () in
    auction := Some au;
    let sim = Flexnet.sim net in
    fun (spec : Scenario.churn_spec) ->
      match Scenario.bidder spec with
      | Error _ -> ()
      | Ok mt ->
        Market.Auction.submit au mt;
        Netsim.Sim.after sim spec.cs_sojourn (fun () ->
            Market.Auction.withdraw au spec.cs_name)
  in
  let before_run (net, horizon) =
    let sim = Flexnet.sim net in
    let au = Option.get !auction in
    Netsim.Sim.every sim ~period:0.1 (fun () ->
        ignore (Market.Auction.clear au);
        Netsim.Sim.now sim < horizon)
  in
  let net, base =
    churn_run ?switches ~lambda ~specs ~make_arrive ~before_run ()
  in
  let c = Obs.Metrics.get_counter (Obs.Scope.metrics (Flexnet.obs net)) in
  let au = Option.get !auction in
  ( { base with
      ch_admitted = c "market.admitted";
      ch_rejected = c "market.rejected";
      ch_deferred = c "market.deferred";
      ch_preempted = c "market.preempted";
      ch_rounds = c "market.rounds";
      ch_converged =
        List.length
          (List.filter
             (fun r -> r.Market.Auction.rd_converged)
             (Market.Auction.rounds au)) },
    au )

(* Fixed-threshold churn: the baseline admission policy E18 compares
   the market against. An arrival is admitted through the ordinary
   pipeline iff no path device is loaded beyond [threshold]; nothing
   is ever preempted; departures fire on the sojourn timer. *)
let run_threshold_churn ?switches ?(threshold = 0.70) ~lambda specs =
  let admitted = ref 0 and rejected = ref 0 in
  let make_arrive net =
    let sim = Flexnet.sim net in
    fun (spec : Scenario.churn_spec) ->
      if bottleneck net >= threshold then incr rejected
      else
        match Flexnet.add_tenant net spec.cs_program with
        | Ok _ ->
          incr admitted;
          Netsim.Sim.after sim spec.cs_sojourn (fun () ->
              ignore (Flexnet.remove_tenant net spec.cs_name))
        | Error _ -> incr rejected
  in
  let _, base = churn_run ?switches ~lambda ~specs ~make_arrive () in
  { base with ch_admitted = !admitted; ch_rejected = !rejected }

(* A wired linear network (h0 - switches - h1) with devices of [arch];
   returns (sim, topo, h0, h1, devices, wireds, received counter). *)
let wired_linear ?(arch = Targets.Arch.Drmt) ?(switches = 3) () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches () in
  let topo = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let devs =
    List.map
      (fun sw ->
        Targets.Device.create ~id:sw.Netsim.Node.name
          (Targets.Arch.profile_of_kind arch))
      built.Netsim.Topology.switch_list
  in
  let wireds =
    List.map2
      (fun sw d -> Runtime.Wiring.attach topo sw d)
      built.Netsim.Topology.switch_list devs
  in
  let received = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr received);
  (sim, topo, h0, h1, devs, wireds, received)
