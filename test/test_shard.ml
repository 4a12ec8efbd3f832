(* Tests for the domain-sharded simulation engine (Netsim.Shard).

   The load-bearing property is the differential: the same spec +
   seeded workload, built once as a single-shard partition (the classic
   single-domain [Sim.run] path) and once per-pod, must agree on every
   model-visible metric — link counters, device counters, delivered
   packets — and the sharded build must produce byte-identical merged
   exports for every domain count. Engine-only series ([sim.events],
   which counts the extra injection events, and the [shard.*] mailbox
   counters) are filtered from the cross-partition comparison; nothing
   else may differ. *)

module Shard = Netsim.Shard
module Fat_tree = Shard.Fat_tree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* CI sets DOMAINS=n on the multicore leg; fold it into the domain
   counts the determinism tests sweep so the matrix actually runs the
   engine at that width. *)
let domain_counts =
  let base = [ 1; 2; 4 ] in
  match Option.bind (Sys.getenv_opt "DOMAINS") int_of_string_opt with
  | Some d when d > 0 && not (List.mem d base) -> base @ [ d ]
  | _ -> base

(* -- workload: seeded Poisson traffic on a fat tree ---------------------- *)

(* Mirrors the E16 workload at test scale. All seeds key off spec node
   ids so the traffic is identical whatever the partition. *)
let build_workload ?(mailbox_capacity = 4096) ?(lambda = 4000.)
    ?(locality = 0.7) ?(seed = 7) ~k ~until net part =
  let spec = Fat_tree.spec net in
  let shards = Shard.partition_shards part in
  let delivered = Array.make shards 0 in
  let t =
    Shard.build ~mailbox_capacity spec part ~init:(fun view ->
        let sim = view.Shard.sh_sim in
        let shard = view.Shard.sh_index in
        Fat_tree.install net view
          ~on_switch:(fun _node _pkt -> ())
          ~on_deliver:(fun _node _pkt ->
            delivered.(shard) <- delivered.(shard) + 1);
        Array.iter
          (fun h ->
            match view.Shard.sh_nodes.(h) with
            | None -> ()
            | Some host ->
              let gen = Netsim.Traffic.create ~seed:(seed + h) sim in
              let rng = Random.State.make [| seed; h; k |] in
              let pod = Fat_tree.pod_hosts net (Fat_tree.pod_of_host net h) in
              let all = Fat_tree.hosts net in
              Netsim.Traffic.poisson gen ~lambda ~start:0. ~stop:until
                ~send:(fun () ->
                  let pick arr =
                    arr.(Random.State.int rng (Array.length arr))
                  in
                  let dst =
                    if Random.State.float rng 1.0 < locality then pick pod
                    else pick all
                  in
                  if dst <> h then
                    Netsim.Node.send host ~port:0
                      (Netsim.Traffic.tcp_packet ~src:h ~dst
                         ~sport:(1024 + h) ~dport:80
                         ~born:(Netsim.Sim.now sim) ()))
          )
          (Fat_tree.hosts net))
  in
  (t, delivered)

(* Export with engine-only series dropped: [sim.events] legitimately
   differs (mailbox injection adds one event per cross-shard packet)
   and [shard.*] counters exist per shard; everything else must agree
   between a single-shard and a per-pod build. *)
let contains line sub =
  let n = String.length sub and m = String.length line in
  let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
  go 0

let model_export t =
  Obs.Export.prometheus (Shard.merged_metrics t)
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         not
           (contains line "flexnet_shard_"
            || contains line "flexnet_sim_events"))
  |> String.concat "\n"

let run_config ?mailbox_capacity ?lambda ?locality ?seed ~k ~until ~pods
    ~domains () =
  let net = Fat_tree.create ~k () in
  let part =
    if pods then Fat_tree.pods_partition net else Shard.single (Fat_tree.spec net)
  in
  let t, delivered =
    build_workload ?mailbox_capacity ?lambda ?locality ?seed ~k ~until net part
  in
  let stats = Shard.run ~domains ~until t in
  (t, stats, Array.fold_left ( + ) 0 delivered)

(* -- unit tests ---------------------------------------------------------- *)

let test_lookahead () =
  let net = Fat_tree.create ~k:4 ~core_delay:25e-6 () in
  let t =
    Shard.build (Fat_tree.spec net) (Fat_tree.pods_partition net)
      ~init:(fun _ -> ())
  in
  Alcotest.(check (float 1e-12)) "lookahead = core delay" 25e-6
    (Shard.lookahead t);
  check_int "one shard per pod" 4 (Shard.shards t)

let test_single_partition_no_epochs () =
  let t, stats, delivered =
    run_config ~k:2 ~until:0.005 ~pods:false ~domains:4 ()
  in
  check_int "single shard build" 1 (Shard.shards t);
  check_int "no epochs on the classic path" 0 stats.Shard.rs_epochs;
  check_int "no cross-shard messages" 0 stats.Shard.rs_messages;
  check "packets flowed" true (delivered > 0)

let test_differential_vs_reference () =
  let tref, _, ref_delivered =
    run_config ~k:4 ~until:0.005 ~pods:false ~domains:1 ()
  in
  let tsh, stats, sh_delivered =
    run_config ~k:4 ~until:0.005 ~pods:true ~domains:1 ()
  in
  check "cross-shard traffic exercised" true (stats.Shard.rs_messages > 0);
  check_int "same packets delivered" ref_delivered sh_delivered;
  Alcotest.(check string) "model metrics identical" (model_export tref)
    (model_export tsh)

let test_mailbox_spill_is_lossless () =
  (* A 1-slot ring forces the spill path; results must not change. *)
  let t1, s1, d1 =
    run_config ~mailbox_capacity:4096 ~lambda:200_000. ~k:2 ~until:0.005
      ~locality:0. ~pods:true ~domains:1 ()
  in
  let t2, s2, d2 =
    run_config ~mailbox_capacity:1 ~lambda:200_000. ~k:2 ~until:0.005
      ~locality:0. ~pods:true ~domains:1 ()
  in
  check "spill path exercised" true (s2.Shard.rs_spilled > 0);
  check_int "spill does not lose messages" s1.Shard.rs_messages
    s2.Shard.rs_messages;
  check_int "same delivery count" d1 d2;
  (* [shard.mailbox_spill] itself differs by construction — that is the
     counter the 1-slot ring forces up — so compare the model view. *)
  Alcotest.(check string) "same model export" (model_export t1)
    (model_export t2)

let test_run_stats_deterministic_across_domains () =
  let outcomes =
    List.map
      (fun domains ->
        let t, stats, delivered =
          run_config ~k:4 ~until:0.005 ~pods:true ~domains ()
        in
        (Obs.Export.prometheus (Shard.merged_metrics t), stats, delivered))
      domain_counts
  in
  match outcomes with
  | (e1, s1, d1) :: rest ->
    List.iter
      (fun (e, s, d) ->
        Alcotest.(check string) "byte-identical merged export" e1 e;
        check_int "same events" s1.Shard.rs_events s.Shard.rs_events;
        check_int "same epochs" s1.Shard.rs_epochs s.Shard.rs_epochs;
        check_int "same messages" s1.Shard.rs_messages s.Shard.rs_messages;
        check_int "same delivered" d1 d)
      rest
  | [] -> assert false

let test_shard_run_spans () =
  let t, _, _ = run_config ~k:2 ~until:0.002 ~pods:true ~domains:2 () in
  List.iter
    (fun v ->
      let tr = Obs.Scope.trace (Netsim.Sim.obs v.Shard.sh_sim) in
      match Obs.Trace.by_name tr "shard.run" with
      | [ span ] ->
        check "span closed" true (span.Obs.Trace.end_time <> None);
        check "epochs attr present" true
          (List.mem_assoc "epochs" span.Obs.Trace.attrs)
      | spans ->
        Alcotest.failf "expected exactly one shard.run span, got %d"
          (List.length spans))
    (Shard.views t)

let test_cross_shard_link_delay_preserved () =
  (* Two hosts on either side of a shard boundary: arrival time must
     include the full cross-link propagation delay even though the
     boundary link itself is created with zero local delay. *)
  let spec = Shard.Spec.create () in
  let a = Shard.Spec.add_host spec "a" in
  let b = Shard.Spec.add_host spec "b" in
  ignore (Shard.Spec.connect ~delay:5e-4 ~bandwidth:8e9 spec a b);
  let part = Shard.partition spec ~shards:2 (fun id -> id) in
  let arrival = ref 0. in
  let t =
    Shard.build spec part ~init:(fun view ->
        match view.Shard.sh_nodes.(b) with
        | Some nb ->
          Netsim.Node.set_handler nb (fun _ ~in_port:_ _ ->
              arrival := Netsim.Sim.now view.Shard.sh_sim)
        | None ->
          (match view.Shard.sh_nodes.(a) with
           | Some na ->
             Netsim.Sim.at view.Shard.sh_sim 0. (fun () ->
                 Netsim.Node.send na ~port:0
                   (Netsim.Packet.create ~size:1000 []))
           | None -> ()))
  in
  ignore (Shard.run ~domains:2 t);
  (* 1000 B at 8 Gb/s = 1 us serialization, + 500 us propagation *)
  Alcotest.(check (float 1e-12)) "arrival pays the real link delay"
    (1e-6 +. 5e-4) !arrival

let test_partition_validation () =
  let spec = Shard.Spec.create () in
  let a = Shard.Spec.add_host spec "a" in
  let b = Shard.Spec.add_host spec "b" in
  check "bad shard index rejected" true
    (try
       ignore (Shard.partition spec ~shards:2 (fun _ -> 5));
       false
     with Invalid_argument _ -> true);
  ignore (Shard.Spec.connect ~delay:0. spec a b);
  let part = Shard.partition spec ~shards:2 (fun id -> id) in
  check "zero-delay cross link rejected" true
    (try
       ignore (Shard.build spec part ~init:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* -- properties ---------------------------------------------------------- *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* Differential under random workloads: seeded traffic with arbitrary
   locality on k in {2,4}, run single-shard vs per-pod at 1/2/4
   domains. Model metrics and delivery counts must all agree. *)
let prop_differential =
  QCheck.Test.make ~name:"sharded run matches single-domain reference"
    ~count:8
    QCheck.(triple (int_bound 1000) (float_bound_inclusive 1.0) bool)
    (fun (seed, locality, big) ->
      let k = if big then 4 else 2 in
      let until = 0.004 in
      let tref, _, dref =
        run_config ~seed ~locality ~k ~until ~pods:false ~domains:1 ()
      in
      let reference = model_export tref in
      List.for_all
        (fun domains ->
          let tsh, _, dsh =
            run_config ~seed ~locality ~k ~until ~pods:true ~domains ()
          in
          dref = dsh && String.equal reference (model_export tsh))
        domain_counts)

let prop_domain_count_invisible =
  QCheck.Test.make ~name:"merged export byte-identical across domain counts"
    ~count:8
    QCheck.(pair (int_bound 1000) (float_bound_inclusive 1.0))
    (fun (seed, locality) ->
      let run domains =
        let t, stats, _ =
          run_config ~seed ~locality ~k:4 ~until:0.004 ~pods:true ~domains ()
        in
        (Obs.Export.prometheus (Shard.merged_metrics t), stats.Shard.rs_events)
      in
      let e1, ev1 = run 1 in
      List.for_all
        (fun d ->
          let e, ev = run d in
          String.equal e1 e && ev1 = ev)
        (List.tl domain_counts))

(* -- topology: the fat tree's shape and routing -------------------------- *)

(* k=4: 16 hosts, 20 switches, and following [Fat_tree.route] hop by
   hop along [Spec.links] takes every host to every other host within
   the six hops of an up-core-down path, whatever the ECMP choice. *)
let test_fat_tree_shape () =
  let net = Fat_tree.create ~k:4 () in
  let hosts = Fat_tree.hosts net in
  check_int "k=4 fat tree has 16 hosts" 16 (Array.length hosts);
  check_int "k=4 fat tree has 20 switches" 20 (Fat_tree.switch_count net);
  let peer = Hashtbl.create 64 in
  List.iter
    (fun (l : Shard.Spec.link) ->
      Hashtbl.replace peer (l.lk_a, l.lk_a_port) l.lk_b;
      Hashtbl.replace peer (l.lk_b, l.lk_b_port) l.lk_a)
    (Shard.Spec.links (Fat_tree.spec net));
  let reaches src dst sport =
    let pkt =
      Netsim.Packet.create
        [ Netsim.Packet.ipv4 ~src:(Int64.of_int src) ~dst:(Int64.of_int dst) ();
          Netsim.Packet.tcp ~sport:(Int64.of_int sport) ~dport:80L () ]
    in
    let rec walk node hops =
      node = dst
      || hops < 6
         &&
         match Fat_tree.route net ~node ~dst pkt with
         | None -> false
         | Some port ->
           (match Hashtbl.find_opt peer (node, port) with
            | None -> false
            | Some next -> walk next (hops + 1))
    in
    walk src 0
  in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          List.iter
            (fun sport ->
              if a <> b && not (reaches a b sport) then
                Alcotest.failf "host %d does not reach host %d (sport %d)" a b
                  sport)
            [ 1000; 1001; 1002; 1003 ])
        hosts)
    hosts

let () =
  Alcotest.run "shard"
    [ ( "engine",
        [ Alcotest.test_case "lookahead" `Quick test_lookahead;
          Alcotest.test_case "single partition = classic path" `Quick
            test_single_partition_no_epochs;
          Alcotest.test_case "differential vs reference" `Quick
            test_differential_vs_reference;
          Alcotest.test_case "mailbox spill lossless" `Quick
            test_mailbox_spill_is_lossless;
          Alcotest.test_case "deterministic across domains" `Quick
            test_run_stats_deterministic_across_domains;
          Alcotest.test_case "shard.run spans" `Quick test_shard_run_spans;
          Alcotest.test_case "cross-shard delay preserved" `Quick
            test_cross_shard_link_delay_preserved;
          Alcotest.test_case "validation" `Quick test_partition_validation ] );
      ("topology", [ Alcotest.test_case "fat tree" `Quick test_fat_tree_shape ]);
      ( "properties",
        [ to_alcotest prop_differential;
          to_alcotest prop_domain_count_invisible ] ) ]
