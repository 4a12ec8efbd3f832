(* E8 — Elastic security: defenses scale with attack volume (§1.1).

   "Runtime programmable defenses can be summoned into the network
   on-the-fly and retired when attacks subside. Such defenses are also
   elastic, capable of scaling ... based on changing attack strengths."

   A SYN flood ramps to each peak rate; the elastic policy injects
   defense replicas across switches proportionally to offered load and
   retires them afterwards. *)

let run_case peak_pps =
  let net = Scenario.up () in
  let victim_syns = ref 0 in
  Netsim.Node.set_handler (Flexnet.h1 net) (fun _ ~in_port:_ pkt ->
      let flags = Option.value (Netsim.Packet.field pkt "tcp" "flags") ~default:0L in
      if Int64.logand flags Netsim.Packet.tcp_flag_syn <> 0L then incr victim_syns);
  let attack_sent =
    Scenario.syn_flood ~seed:4 ~peak_pps ~start:0.5 ~ramp_up:1.0 ~hold:1.5
      ~ramp_down:1.0 net
  in
  let scrubbed_of dev = Int64.to_int (Apps.Syn_defense.dropped_count dev) in
  (* scrub totals survive replica retirement *)
  let scrubbed_acc = ref 0 in
  let defense =
    Scenario.elastic_defense ~name:"defense"
      ~on_retire:(fun dev -> scrubbed_acc := !scrubbed_acc + scrubbed_of dev)
      ~victim:(fun () -> !victim_syns) net
  in
  Flexnet.run net ~until:5.0;
  let policy = defense.Scenario.policy in
  let scrubbed =
    List.fold_left
      (fun acc d -> acc + scrubbed_of d)
      !scrubbed_acc (Flexnet.switch_devices net)
  in
  [ Printf.sprintf "%.0fk" (peak_pps /. 1000.);
    Report.i !attack_sent;
    Report.i scrubbed;
    Report.pct (float_of_int scrubbed /. float_of_int (max 1 !attack_sent));
    Report.i
      (List.fold_left (fun m (_, n) -> max m n) 0
         (Control.Elastic.events policy));
    Report.i (Control.Elastic.replicas policy) ]

let run () =
  let rows = List.map run_case [ 2_000.; 8_000.; 20_000. ] in
  Report.print ~id:"E8" ~title:"elastic in-network defense vs attack volume"
    ~claim:
      "defenses are summoned when an attack starts, replica count follows \
       offered attack volume, and the footprint returns to zero when the \
       attack subsides"
    ~header:
      [ "peak-rate"; "attack-syns"; "scrubbed"; "scrub-rate"; "max-replicas";
        "replicas-after" ]
    rows
