(* tenant_churn: the E18 market run at 1000 seeded arrivals. Arrivals
   are open-loop Poisson at 100/s of virtual time onto one switch, bid
   through Market.Auction (cleared every 100 ms) and are admitted via
   certify -> plan -> Runtime.Reconfig; they depart, or are preempted,
   through the same patch path. There is no data traffic: the control
   plane does all the work, and Targets.Device sees installs and
   uninstalls, not packets. *)

let arrivals = 1000
let lambda = 100.
let mean_sojourn = 4.0
let tail = 1.0 (* virtual seconds run past the last arrival *)
let clear_period = 0.1
let util_period = 0.05

type spec = {
  name : string;
  program : Flexbpf.Ast.program;
  sojourn : float;
  budget : float;
  weight : float;
  protected : bool;
}

(* The E18 arrival population: 60% ACL rule tables of 64k-1M rules
   (the footprints that make admission a rationing problem), 40%
   firewall or NAT, one in ten with a Protected SLA. The benchmark keeps
   its own copy so that its inputs cannot change under it. *)
let workload ~seed =
  let rng = Random.State.make [| seed |] in
  let exp_draw mean = -.mean *. log (1. -. Random.State.float rng 1.) in
  List.init arrivals (fun i ->
      let idx = i + 1 in
      let name = Printf.sprintf "tenant%d" idx in
      let program =
        match Random.State.int rng 10 with
        | 0 | 1 -> Apps.Firewall.program ~owner:name ~boundary:100 ()
        | 2 | 3 ->
          Apps.Nat.program ~owner:name ~public:(900 + idx) ~subnet_lo:10
            ~subnet_hi:20 ()
        | _ ->
          Apps.Acl.program ~owner:name
            ~size:(65536 lsl Random.State.int rng 5)
            ()
      in
      let sojourn = exp_draw mean_sojourn in
      let budget = 4. +. Random.State.float rng 12. in
      let weight = 1.2 +. Random.State.float rng 4. in
      { name; program; sojourn; budget; weight;
        protected = Random.State.int rng 10 = 0 })

type outcome = Waiting | Admitted | Rejected | Gave_up

let build () =
  let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:1 () in
  (match Flexnet.deploy_infrastructure net with
   | Ok _ -> ()
   | Error e -> failwith e);
  let tenants = Flexnet.tenants_exn net in
  (* prices track the pool placement packs tenants onto: the path's tail *)
  let au =
    Market.Auction.create ~tenants
      ~path:[ List.hd (List.rev (Flexnet.path net)) ]
      ()
  in
  (net, tenants, au)

let run_episode ~seed ~index ~ledger =
  let specs = workload ~seed:(Hashtbl.hash (seed, index)) in
  let (net, tenants, au), setup_s = Episode.setup ~builds:255 build in
  let sim = Flexnet.sim net in
  let metrics = Obs.Scope.metrics (Flexnet.obs net) in
  (* Admission latency from raw samples: the injected clock is read
     once when an admission attempt starts and once when it ends, so
     reads pair up. In a traced run the same reads open and close the
     tenants.admit frame, nested inside the auction.clear frame. *)
  let reads = Episode.Samples.create () in
  let round = ref 0 in
  Control.Tenants.set_clock tenants
    (match ledger with
     | None ->
       fun () ->
         let t = Episode.cpu_s () in
         Episode.Samples.add reads t;
         t
     | Some lg ->
       fun () ->
         if reads.Episode.Samples.n land 1 = 1 then
           Ledger.leave_span lg ~id:!round ~parent:(-1);
         let t = Episode.cpu_s () in
         Episode.Samples.add reads t;
         if reads.Episode.Samples.n land 1 = 1 then
           Ledger.enter lg Ledger.tenants_admit;
         t);
  let outcome = Hashtbl.create arrivals in
  let set name o = Hashtbl.replace outcome name o in
  let arrived = ref 0 and bid_errors = ref 0 in
  let violations = ref [] in
  let rounds_digest = Buffer.create 4096 in
  let iterations = ref 0 in
  let withdraw i name =
    match Hashtbl.find_opt outcome name with
    | Some Waiting -> set name Gave_up; Market.Auction.withdraw au name
    | Some Admitted when Market.Auction.find_admitted au name <> None ->
      (match ledger with
       | None -> Market.Auction.withdraw au name
       | Some lg ->
         Ledger.enter lg Ledger.tenants_depart;
         Market.Auction.withdraw au name;
         Ledger.leave_span lg ~id:i ~parent:(-1))
    | _ -> ()
  in
  let gen =
    Netsim.Traffic.create ~seed:(Hashtbl.hash (seed, index, 77)) sim
  in
  let at = ref 0.1 in
  List.iteri
    (fun i spec ->
      at := !at +. Netsim.Traffic.exponential gen ~mean:(1. /. lambda);
      Netsim.Sim.at sim !at (fun () ->
          incr arrived;
          match
            Market.Tenant.create
              ~sla:
                (if spec.protected then Market.Tenant.Protected
                 else Market.Tenant.Best_effort)
              ~budget:spec.budget ~weight:spec.weight spec.program
          with
          | Error _ -> incr bid_errors
          | Ok mt ->
            set spec.name Waiting;
            Market.Auction.submit au mt;
            Netsim.Sim.after sim spec.sojourn (fun () -> withdraw i spec.name)))
    specs;
  let horizon = !at +. tail in
  let clear () =
    incr round;
    let r =
      match ledger with
      | None -> Market.Auction.clear au
      | Some lg ->
        Ledger.enter lg Ledger.auction_clear;
        let r = Market.Auction.clear au in
        Ledger.leave_span lg ~id:!round ~parent:(-1);
        r
    in
    List.iter (fun n -> set n Admitted) r.Market.Auction.rd_admitted;
    List.iter (fun n -> set n Rejected) r.Market.Auction.rd_rejected;
    iterations := !iterations + r.Market.Auction.rd_iterations;
    Printf.bprintf rounds_digest "%d:%s|%s|%s|%s|%d;" r.Market.Auction.rd_index
      (String.concat "," r.Market.Auction.rd_admitted)
      (String.concat "," r.Market.Auction.rd_deferred)
      (String.concat "," r.Market.Auction.rd_preempted)
      (String.concat "," r.Market.Auction.rd_rejected)
      r.Market.Auction.rd_iterations;
    List.iter
      (fun (arch, (used, cap)) ->
        if not (Targets.Resource.fits used cap) then
          violations :=
            Printf.sprintf "round %d: %s book over capacity" !round
              (Targets.Arch.kind_to_string arch)
            :: !violations)
      (Market.Auction.occupancy au);
    List.iter
      (fun d ->
        if Targets.Device.utilization d > 1.0 then
          violations :=
            Printf.sprintf "round %d: device %s at %.3f utilization" !round
              (Targets.Device.id d) (Targets.Device.utilization d)
            :: !violations)
      (Flexnet.path net)
  in
  Netsim.Sim.every sim ~period:clear_period (fun () ->
      clear ();
      Netsim.Sim.now sim < horizon);
  let util_sum = ref 0. and util_n = ref 0 in
  Netsim.Sim.every sim ~period:util_period (fun () ->
      if Netsim.Sim.now sim >= 0.2 *. horizon then begin
        util_sum :=
          !util_sum
          +. List.fold_left
               (fun acc d -> Float.max acc (Targets.Device.utilization d))
               0. (Flexnet.path net);
        incr util_n
      end;
      Netsim.Sim.now sim < horizon);
  let events0 = Obs.Metrics.get_counter metrics "sim.events" in
  let (), timed = Episode.measure (fun () -> Flexnet.run net ~until:horizon) in
  let events = Obs.Metrics.get_counter metrics "sim.events" - events0 in
  (* certification cost, replayed on the recorded programs *)
  (match ledger with
   | None -> ()
   | Some lg ->
     List.iteri
       (fun i spec ->
         Ledger.enter lg Ledger.certify;
         ignore (Flexbpf.Analysis.certify spec.program);
         Ledger.leave_span lg ~id:i ~parent:(-1))
       specs);
  let r = Episode.Samples.to_array reads in
  let pairs = Array.length r / 2 in
  let lat = Array.init pairs (fun i -> (r.((2 * i) + 1) -. r.(2 * i)) *. 1e6) in
  let count o = Hashtbl.fold (fun _ x acc -> if x = o then acc + 1 else acc) outcome 0 in
  let admitted = count Admitted and rejected = count Rejected
  and gave_up = count Gave_up and waiting = count Waiting in
  let waiting_au = List.length (Market.Auction.waiting au) in
  let c name = Obs.Metrics.get_counter metrics name in
  let hist = Obs.Metrics.histogram metrics "tenants.admit_latency_ms" in
  let errors =
    List.concat
      [ List.rev !violations;
        (if Array.length r land 1 = 0 && pairs = Obs.Metrics.Histogram.count hist
         then []
         else
           [ Printf.sprintf
               "tenant_churn: %d clock reads for %d histogram samples"
               (Array.length r) (Obs.Metrics.Histogram.count hist) ]);
        (if !arrived = arrivals then []
         else [ Printf.sprintf "tenant_churn: %d of %d arrivals ran" !arrived arrivals ]);
        (if admitted + rejected + gave_up + waiting + !bid_errors = !arrived
         then []
         else
           [ Printf.sprintf
               "tenant_churn: outcomes %d admitted + %d rejected + %d gave up \
                + %d waiting + %d unbiddable <> %d arrivals"
               admitted rejected gave_up waiting !bid_errors !arrived ]);
        (if waiting = waiting_au then []
         else
           [ Printf.sprintf "tenant_churn: %d waiting by outcome, %d in the auction"
               waiting waiting_au ]);
        (if admitted = c "market.admitted" && rejected = c "market.rejected" then []
         else
           [ Printf.sprintf
               "tenant_churn: %d admitted / %d rejected, market counted %d / %d"
               admitted rejected (c "market.admitted") (c "market.rejected") ]) ]
  in
  { Episode.setup_s; timed; ops = admitted + rejected + gave_up; lat_us = lat;
    attempted = !arrived; failed = !bid_errors; errors; events;
    counts =
      [ ("failures", float_of_int rejected);
        ("auction.rounds", float_of_int !round);
        ("auction.iterations", float_of_int !iterations);
        ("tenants.admitted", float_of_int admitted);
        ("tenants.deferred", float_of_int (c "market.deferred"));
        ("tenants.preempted", float_of_int (c "market.preempted"));
        ("tenants.rejected", float_of_int rejected);
        ("tenants.gave_up", float_of_int gave_up);
        ("tenants.waiting", float_of_int waiting);
        ("churn.util_mean", !util_sum /. float_of_int (max 1 !util_n)) ];
    digest = Digest.to_hex (Digest.string (Buffer.contents rounds_digest)) }
