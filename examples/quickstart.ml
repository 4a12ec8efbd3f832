(* Quickstart: bring up a whole-stack FlexNet network, deploy the
   infrastructure program, send traffic, then reprogram the live
   network — add a firewall with a runtime patch, hitlessly — and watch
   traffic keep flowing.

   Run with: dune exec examples/quickstart.exe *)

let pf fmt = Format.printf fmt

let () =
  pf "== FlexNet quickstart ==@.@.";

  (* 1. A whole-stack network: h0 - nic0 - s0 s1 s2 - nic1 - h1, with
     dRMT (Spectrum-class) runtime-programmable switches, and the
     infrastructure program (L2/L3 + ACL + counters) deployed on it.
     The compiler splits the program over the physical path. *)
  let net = Scenario.up () in
  pf "network up: %d devices on the datapath@."
    (List.length (Flexnet.path net));
  pf "infrastructure deployed:@.";
  List.iter
    (fun (name, dev) -> pf "  %-15s -> %s@." name (Targets.Device.id dev))
    (Flexnet.deployment_exn net).Compiler.Incremental.dep_placement
      .Compiler.Placement.where;

  (* 2. Send continuous traffic. *)
  let sim = Flexnet.sim net in
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  let sent = Scenario.cbr sim ~h0 ~h1 ~rate_pps:1000. ~stop:2.0 in

  (* 3. At t=1s, patch the running network: insert a stateful firewall
     before the routing table — without dropping a packet. *)
  let patch =
    Flexbpf.Patch.v "add-firewall"
      [ Flexbpf.Patch.Add_map (Apps.Firewall.conn_map ());
        Flexbpf.Patch.Add_map Apps.Firewall.denied_map;
        Flexbpf.Patch.Add_element
          (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
           Apps.Firewall.block ~boundary:100 ()) ]
  in
  Netsim.Sim.at sim 1.0 (fun () ->
      pf "@.t=1.0s: applying runtime patch '%s'...@." patch.Flexbpf.Patch.patch_name;
      match
        Flexnet.patch_hitless net patch ~on_done:(fun report ->
            pf "t=%.3fs: patch complete (%d ops, %.0f ms, devices: %s)@."
              (Netsim.Sim.now sim)
              (Compiler.Plan.size report.Compiler.Incremental.plan)
              (1000. *. report.Compiler.Incremental.duration)
              (String.concat "," report.Compiler.Incremental.touched_devices))
      with
      | Ok _ -> ()
      | Error e -> pf "patch failed: %a@." Compiler.Incremental.pp_error e);

  Flexnet.run net ~until:3.0;

  (* 4. Results. *)
  let stats = Flexnet.stats net in
  pf "@.sent %d packets; delivered %d; lost to reconfiguration: %d@." !sent
    stats.Flexnet.delivered_h1 stats.Flexnet.reconfig_drops;
  pf "@.controller's global view:@.%a" Control.Controller.pp_view
    (Flexnet.controller net);
  pf "@.firewall is live: unsolicited inbound traffic is now dropped.@.";
  let intruder =
    Netsim.Traffic.tcp_packet ~src:500 ~dst:h0.Netsim.Node.id ~sport:6666
      ~dport:22 ~born:(Netsim.Sim.now sim) ()
  in
  (* send from h1 side toward h0: unsolicited, no state *)
  Netsim.Node.send h1 ~port:0 intruder;
  let before = (Flexnet.stats net).Flexnet.delivered_h0 in
  Flexnet.run net ~until:4.0;
  let after = (Flexnet.stats net).Flexnet.delivered_h0 in
  pf "unsolicited inbound delivered: %d (expected 0)@." (after - before);
  assert (after - before = 0);
  pf "@.quickstart OK@."
