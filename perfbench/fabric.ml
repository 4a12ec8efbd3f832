(* fabric: the E16 shape on one domain. A k-ary fat tree runs the
   compiled count-min FlexBPF program on every switch; every host sends
   seeded Poisson traffic, open loop in simulated time, 80% of it to its
   own pod. The per-pod partition stays, so epochs and mailboxes run.
   The packet path does nearly all the work; tier cache and control
   plane do none. *)

let k = 16
let lambda = 10_000. (* per-host offered rate, packets per simulated s *)
let locality = 0.8
let core_delay = 25e-6

(* Simulated time per episode, run in windows; each window's host CPU
   time per delivered packet is one latency sample. *)
let horizon = 0.004
let window = 40e-6
let cms_cfg = { Apps.Cm_sketch.depth = 3; width = 1024; map_name = "cms" }

(* Spans are kept for one flow in 64. *)
let sampled pkt = Netsim.Packet.flow_hash pkt land 63 = 0

type net = {
  shards : Netsim.Shard.t;
  nodes : Netsim.Node.t list;
  sent : int ref;
  delivered : int ref;
}

let build ~seed ~index ~ledger =
  let fat = Netsim.Shard.Fat_tree.create ~k ~core_delay () in
  let spec = Netsim.Shard.Fat_tree.spec fat in
  let sent = ref 0 and delivered = ref 0 in
  let all_hosts = Netsim.Shard.Fat_tree.hosts fat in
  (* sampled packet uid -> its latest span, the parent of its next hop *)
  let chain = Hashtbl.create 1024 in
  let shards =
    Netsim.Shard.build spec (Netsim.Shard.Fat_tree.pods_partition fat)
      ~init:(fun view ->
        let sim = view.Netsim.Shard.sh_sim in
        let devs = Array.make (Netsim.Shard.Spec.node_count spec) None in
        Array.iteri
          (fun id slot ->
            match slot with
            | Some node
              when Netsim.Shard.Spec.kind spec id = Netsim.Node.Switch ->
              let dev =
                Targets.Device.create ~id:node.Netsim.Node.name
                  Targets.Arch.drmt
              in
              let prog = Apps.Cm_sketch.program ~cfg:cms_cfg () in
              List.iteri
                (fun i el ->
                  ignore (Targets.Device.install dev ~ctx:prog ~order:i el))
                prog.Flexbpf.Ast.pipeline;
              Targets.Device.set_obs
                ~labels:[ ("shard", string_of_int view.Netsim.Shard.sh_index) ]
                dev
                (Some (Netsim.Sim.obs sim));
              devs.(id) <- Some dev
            | _ -> ())
          view.Netsim.Shard.sh_nodes;
        let device node =
          match devs.(node.Netsim.Node.id) with
          | Some d -> d
          | None -> assert false
        in
        let on_switch =
          match ledger with
          | None ->
            fun node pkt ->
              let now_us = Int64.of_float (Netsim.Sim.now sim *. 1e6) in
              ignore (Targets.Device.exec (device node) ~now_us pkt)
          | Some lg ->
            fun node pkt ->
              let now_us = Int64.of_float (Netsim.Sim.now sim *. 1e6) in
              let dev = device node in
              Ledger.enter lg Ledger.device_exec;
              ignore (Targets.Device.exec dev ~now_us pkt);
              let uid = pkt.Netsim.Packet.uid in
              (match Hashtbl.find_opt chain uid with
               | None -> Ledger.leave lg
               | Some parent ->
                 Ledger.leave_span lg ~id:uid ~parent;
                 Hashtbl.replace chain uid (Ledger.last_span lg))
        in
        let on_deliver =
          match ledger with
          | None -> fun _ _ -> incr delivered
          | Some _ ->
            fun _ pkt ->
              incr delivered;
              Hashtbl.remove chain pkt.Netsim.Packet.uid
        in
        Netsim.Shard.Fat_tree.install fat view ~on_switch ~on_deliver;
        Array.iter
          (fun h ->
            match view.Netsim.Shard.sh_nodes.(h) with
            | None -> ()
            | Some host ->
              let gen =
                Netsim.Traffic.create ~seed:(Hashtbl.hash (seed, index, h)) sim
              in
              let rng = Random.State.make [| seed; index; h |] in
              let pod =
                Netsim.Shard.Fat_tree.pod_hosts fat
                  (Netsim.Shard.Fat_tree.pod_of_host fat h)
              in
              let pick arr = arr.(Random.State.int rng (Array.length arr)) in
              let dest () =
                if Random.State.float rng 1.0 < locality then pick pod
                else pick all_hosts
              in
              let packet dst =
                Netsim.Traffic.tcp_packet ~src:h ~dst
                  ~sport:(1024 + (h land 0xfff)) ~dport:80
                  ~born:(Netsim.Sim.now sim) ()
              in
              let send =
                match ledger with
                | None ->
                  fun () ->
                    let dst = dest () in
                    if dst <> h then begin
                      incr sent;
                      Netsim.Node.send host ~port:0 (packet dst)
                    end
                | Some lg ->
                  fun () ->
                    Ledger.enter lg Ledger.traffic_gen;
                    let dst = dest () in
                    if dst <> h then begin
                      incr sent;
                      Ledger.enter lg Ledger.packet_new;
                      let pkt = packet dst in
                      let id = if sampled pkt then pkt.Netsim.Packet.uid else -1 in
                      Ledger.leave_span lg ~id ~parent:(-1);
                      Ledger.enter lg Ledger.link_send;
                      Netsim.Node.send host ~port:0 pkt;
                      Ledger.leave_span lg ~id ~parent:(-1);
                      if id >= 0 then
                        Hashtbl.replace chain id (Ledger.last_span lg)
                    end;
                    Ledger.leave lg
              in
              Netsim.Traffic.poisson gen ~lambda ~start:0. ~stop:horizon ~send)
          all_hosts)
  in
  let nodes =
    List.concat_map
      (fun v ->
        List.filter_map Fun.id (Array.to_list v.Netsim.Shard.sh_nodes))
      (Netsim.Shard.views shards)
  in
  { shards; nodes; sent; delivered }

let links net =
  List.concat_map
    (fun node ->
      List.filter_map
        (fun port -> Netsim.Node.link node ~port)
        (List.init (Netsim.Node.port_count node) Fun.id))
    net.nodes

let dropped net =
  List.fold_left (fun acc n -> acc + n.Netsim.Node.dropped) 0 net.nodes

let run_episode ~seed ~index ~ledger =
  let net, setup_s = Episode.setup ~builds:3 (fun () -> build ~seed ~index ~ledger) in
  let lat = Episode.Samples.create () in
  let events = ref 0 and epochs = ref 0 and messages = ref 0
  and spilled = ref 0 in
  let (), timed =
    Episode.measure (fun () ->
        let w = ref 0. in
        while !w < horizon do
          let until = Float.min horizon (!w +. window) in
          let d0 = !(net.delivered) in
          let t0 = Episode.cpu_s () in
          let rs = Netsim.Shard.run ~until net.shards in
          let dt = Episode.cpu_s () -. t0 in
          let dd = !(net.delivered) - d0 in
          if dd > 0 then Episode.Samples.add lat (dt *. 1e6 /. float_of_int dd);
          events := !events + rs.Netsim.Shard.rs_events;
          epochs := !epochs + rs.Netsim.Shard.rs_epochs;
          messages := !messages + rs.Netsim.Shard.rs_messages;
          spilled := !spilled + rs.Netsim.Shard.rs_spilled;
          w := until
        done)
  in
  let sent = !(net.sent) in
  let delivered_h = !(net.delivered) and dropped_h = dropped net in
  (* Drain: sources stop at the horizon, so every packet in flight there
     ends delivered or dropped. sent = delivered + dropped + in flight at
     the horizon, with in flight counted by the drain, is then
     sent = delivered + dropped after it. *)
  ignore (Netsim.Shard.run net.shards);
  let delivered = !(net.delivered) and dropped = dropped net in
  let links = links net in
  let link_drops =
    List.fold_left (fun acc l -> acc + Netsim.Link.drops l) 0 links
  in
  let depth_points =
    List.fold_left
      (fun acc l ->
        acc
        + List.length (Netsim.Stats.Series.to_list (Netsim.Link.depth_series l)))
      0 links
  in
  let export =
    Obs.Export.prometheus (Netsim.Shard.merged_metrics net.shards)
  in
  let errors =
    List.concat
      [ (if sent = delivered + dropped then []
         else
           [ Printf.sprintf
               "fabric: %d sent at the horizon, but %d delivered + %d \
                dropped after the drain"
               sent delivered dropped ]);
        (if link_drops <= dropped then []
         else [ Printf.sprintf "fabric: %d link drops exceed %d node drops"
                  link_drops dropped ]);
        (if delivered_h > 0 then [] else [ "fabric: nothing delivered" ]) ]
  in
  { Episode.setup_s; timed; ops = delivered_h;
    lat_us = Episode.Samples.to_array lat; attempted = sent;
    failed = sent - delivered - dropped; errors; events = !events;
    counts =
      [ ("failures", float_of_int dropped);
        ("in_flight", float_of_int (sent - delivered_h - dropped_h));
        ("link.drops", float_of_int link_drops);
        ("link.depth_points", float_of_int depth_points);
        ("shard.events", float_of_int !events);
        ("shard.epochs", float_of_int !epochs);
        ("shard.messages", float_of_int !messages);
        ("shard.spilled", float_of_int !spilled) ];
    digest = Digest.to_hex (Digest.string export) }
