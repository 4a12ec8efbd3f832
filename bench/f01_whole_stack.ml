(* F1 — Figure 1 reproduction: whole-network runtime programming.

   One FlexBPF datapath program containing host-class offloads
   (congestion control, a dRPC caller), NIC-class blocks, and
   switch-class match/action tables is written against the fungible
   datapath abstraction; the compiler distributes it vertically (host /
   NIC / switch) and horizontally (along the path), and live traffic
   verifies each component executes where it was placed. *)

open Flexbpf.Builder

let whole_stack_program () =
  program "figure1"
    ~maps:
      [ map_decl ~key_arity:1 ~size:64 "ingress_counter";
        map_decl ~key_arity:2 ~size:4096 "flow_state";
        Apps.Telemetry.flow_bytes_map ]
    ([ (* switch-class: forwarding tables *)
       Common.exact_table ~size:4096 "vlan_map";
       Common.lpm_table ~size:8192 "routes";
       (* anywhere: small telemetry block *)
       Apps.Telemetry.flow_counter;
       (* NIC/host-class: a stateful offload with a deep loop *)
       block "flow_offload"
         [ loop 60
             [ map_put "flow_state"
                 [ field "ipv4" "src"; meta "_loop_i" ]
                 (meta "_loop_i") ] ];
       (* host-class: invokes an infrastructure dRPC service *)
       block "replication_hook" [ call "replicate" [ const 0; const 1 ] ] ]
    )

let run () =
  (* infra first, then the figure-1 program as an additional datapath *)
  let net = Scenario.up () in
  Runtime.Drpc.register_standard (Flexnet.drpc net) ~fleet:(Flexnet.path net)
    ~map_name:"flow_bytes";
  let prog = whole_stack_program () in
  let cert =
    match Flexbpf.Analysis.certify prog with
    | Ok c -> c
    | Error e -> failwith (Fmt.str "%a" Flexbpf.Analysis.pp_rejection e)
  in
  let placement =
    match Runtime.Reconfig.place ~path:(Flexnet.path net) prog with
    | Ok p -> p
    | Error f -> failwith (Fmt.str "%a" Compiler.Placement.pp_failure f)
  in
  (* traffic to exercise the wired components *)
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  for _ = 1 to 100 do
    Flexnet.send_h0 net
      (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id ~dst:h1.Netsim.Node.id
         ~sport:1234 ~dport:80 ~born:0. ())
  done;
  Flexnet.run net ~until:1.0;
  let sla = Compiler.Sla.estimate placement in
  let class_of name =
    let u =
      List.find
        (fun u ->
          Flexbpf.Ast.element_name u.Compiler.Lowering.u_element = name)
        (Compiler.Lowering.units_of_program prog)
    in
    Compiler.Lowering.vertical_class_to_string u.Compiler.Lowering.u_class
  in
  let rows =
    List.map
      (fun (name, dev) ->
        let kind = Targets.Arch.kind_to_string (Targets.Device.kind dev) in
        let layer =
          match Targets.Device.kind dev with
          | Targets.Arch.Host_ebpf -> "host"
          | Targets.Arch.Smartnic | Targets.Arch.Fpga -> "nic"
          | _ -> "switch"
        in
        [ name; class_of name; Targets.Device.id dev; kind; layer ])
      (List.rev placement.Compiler.Placement.where)
  in
  Report.print ~id:"F1" ~title:"whole-stack vertical+horizontal distribution"
    ~claim:
      "one datapath program written against the fungible-datapath abstraction \
       is split by the compiler across host stacks, NICs, and switches \
       (Figure 1); offload-only components never land on switching ASICs"
    ~header:[ "component"; "class"; "device"; "architecture"; "layer" ]
    rows;
  Printf.printf
    "certified worst-case: %d cycles; end-to-end added latency %.0f ns; \
     throughput ceiling %.2e pps (bottleneck %s); delivered %d/100\n"
    cert.Flexbpf.Analysis.cert_cycles sla.Compiler.Sla.added_latency_ns
    sla.Compiler.Sla.throughput_pps sla.Compiler.Sla.bottleneck
    (Flexnet.stats net).Flexnet.delivered_h1
