(* Shared workloads for the CLI, the E-series bench and the examples.
   Event scheduling order inside each builder matches the hand-built
   copies it replaced, so seeded outputs are unchanged. *)

let up ?(arch = Targets.Arch.Drmt) ?(switches = 3) () =
  let net = Flexnet.create ~arch ~switches () in
  match Flexnet.deploy_infrastructure net with
  | Ok _ -> net
  | Error e -> failwith e

let now_us sim = Int64.of_float (Netsim.Sim.now sim *. 1e6)

(* -- hitless telemetry patch ------------------------------------------- *)

let telemetry_patch =
  Flexbpf.Patch.v "add-telemetry"
    [ Flexbpf.Patch.Add_map Apps.Telemetry.flow_bytes_map;
      Flexbpf.Patch.Add_element
        (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
         Apps.Telemetry.flow_counter) ]

let cbr sim ~h0 ~h1 ~rate_pps ~stop =
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps ~start:0. ~stop ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
           ~dst:h1.Netsim.Node.id ~sport:1234 ~dport:80
           ~born:(Netsim.Sim.now sim) ()));
  sent

let demo_traffic ?on_done net =
  let sim = Flexnet.sim net in
  let sent =
    cbr sim ~h0:(Flexnet.h0 net) ~h1:(Flexnet.h1 net) ~rate_pps:1000.
      ~stop:2.0
  in
  Netsim.Sim.at sim 1.0 (fun () ->
      match Flexnet.patch_hitless ?on_done net telemetry_patch with
      | Ok _ -> ()
      | Error e ->
        Fmt.epr "patch failed: %a@." Compiler.Incremental.pp_error e);
  sent

(* -- elastic SYN defense ------------------------------------------------ *)

let syn_flood ~seed ~peak_pps ~start ~ramp_up ~hold ~ramp_down net =
  let sim = Flexnet.sim net in
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create ~seed sim in
  Netsim.Traffic.ramp gen ~peak_pps ~start ~ramp_up ~hold ~ramp_down
    ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Netsim.Traffic.spoofed_syn gen ~dst:h1.Netsim.Node.id ~dport:80
           ~born:(Netsim.Sim.now sim)));
  sent

type defense = { policy : Control.Elastic.t; sample : unit -> float }

let elastic_defense ?on_inject ?on_retire ~name ~victim net =
  let sim = Flexnet.sim net in
  let h1 = Flexnet.h1 net in
  let switches = Flexnet.switch_devices net in
  let controller = Flexnet.controller net in
  let uri = Control.Uri.v ~owner:"infra" "syn-defense" in
  ignore
    (Control.Controller.register_app controller ~uri
       ~kind:Control.Controller.Utility
       ~program:(Apps.Syn_defense.program ~threshold:100 ())
       ~replicas:[]);
  (* replica churn goes through the controller, i.e. install/remove
     plans executed by the reconfiguration engine *)
  let actuate =
    Control.Elastic.app_actuator ?on_inject ?on_retire ~controller ~uri
      ~devices:switches ()
  in
  let replicas = ref 0 in
  let scale_to n =
    let n = min n (List.length switches) in
    actuate n;
    replicas := n
  in
  let last = ref 0 in
  let sample () =
    if !replicas > 0 then
      Int64.to_float
        (Apps.Syn_defense.syn_rate_of (List.hd switches)
           ~dst:(Int64.of_int h1.Netsim.Node.id) ~now_us:(now_us sim))
      *. 10. (* 100 ms windows -> pps *)
    else begin
      let seen = victim () in
      let delta = seen - !last in
      last := seen;
      float_of_int delta *. 10.
    end
  in
  let policy =
    Control.Elastic.create ~sim ~name ~min_replicas:0 ~max_replicas:3
      ~cooldown:0.3 ~period:0.1 ~sample ~capacity_per_replica:8000. ~scale_to
      ()
  in
  { policy; sample }

(* -- count-min state migration ----------------------------------------- *)

let count_min_device ?(width = 512) id =
  let dev = Targets.Device.create ~id Targets.Arch.drmt in
  let cfg = { Apps.Cm_sketch.depth = 3; width; map_name = "cms" } in
  let prog = Apps.Cm_sketch.program ~cfg () in
  let install order element =
    Compiler.Plan.Install { device = id; element; ctx = prog; order }
  in
  let plan =
    Compiler.Plan.v "count-min" (List.mapi install prog.Flexbpf.Ast.pipeline)
  in
  ignore (Runtime.Reconfig.run_plan ~devices:[ dev ] plan);
  dev

type migration = { expected : int; present : int; window : float }

let migrate_count_min ?entries_per_second ?(on_start = ignore)
    ?(on_done = fun _ _ -> ()) ~seed ~flows ~pps protocol =
  let sim = Netsim.Sim.create () in
  let src = count_min_device "a" and dst = count_min_device "b" in
  let handle = Runtime.Migration.create src in
  let rng = Random.State.make [| seed |] in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:pps ~start:0. ~stop:1.0 ~send:(fun () ->
      incr sent;
      let s = Int64.of_int (Random.State.int rng flows) in
      ignore
        (Runtime.Migration.exec handle ~now_us:(now_us sim)
           (Netsim.Packet.create
              [ Netsim.Packet.ethernet ~src:s ~dst:1L ();
                Netsim.Packet.ipv4 ~src:s ~dst:1L ();
                Netsim.Packet.tcp ~sport:1L ~dport:2L () ])));
  let window = ref 0. in
  let on_done r =
    window := r.Runtime.Migration.window;
    on_done (Netsim.Sim.now sim) r
  in
  Netsim.Sim.at sim 0.5 (fun () ->
      on_start ();
      match protocol with
      | `Freeze ->
        Runtime.Migration.freeze_copy ?entries_per_second ~sim handle ~dst
          ~map_names:[ "cms" ] ~on_done ()
      | `Swing ->
        Runtime.Migration.swing ~sim handle ~dst ~map_names:[ "cms" ] ~on_done
          ());
  ignore (Netsim.Sim.run sim);
  { expected = !sent * 3;
    present =
      Int64.to_int
        (Runtime.Migration.map_sum (Runtime.Migration.active handle) "cms");
    window = !window }

(* -- tiered Zipf forwarding table -------------------------------------- *)

let fwd_table = "fwd"
let port_of_dst dst = 1 + (dst mod 64)

let tiered_table ~rules ~cap =
  let open Flexbpf.Builder in
  let prog =
    program "tiered" ~headers:standard_headers ~parser:standard_parser
      [ table fwd_table
          ~keys:[ exact (field "ipv4" "dst") ]
          ~actions:
            [ action "fwd" ~params:[ "port" ] [ forward (param "port") ] ]
          ~size:rules () ]
  in
  let env = Flexbpf.Interp.create_env prog in
  for dst = 1 to rules do
    Flexbpf.Interp.install_rule env fwd_table
      (rule ~matches:[ exact_i dst ] ~action:("fwd", [ port_of_dst dst ]) ())
  done;
  if cap > 0 then Flexbpf.Interp.set_tier_capacity env fwd_table cap;
  (env, Flexbpf.Compile.compile env prog)

let zipf_stream ~alpha ~rules ~packets =
  let gen = Netsim.Traffic.create ~seed:1717 (Netsim.Sim.create ()) in
  let draw = Netsim.Traffic.zipf ~alpha gen ~n:rules in
  ( Array.init (max 0 packets) (fun _ -> draw ()),
    Array.init rules (fun i ->
        Netsim.Traffic.tcp_packet ~src:7 ~dst:(i + 1) ~sport:1234 ~dport:80
          ~born:0. ()) )

(* -- sharded fat tree --------------------------------------------------- *)

let fabric ?on_switch ?(on_deliver = ignore) ~k ~gen_seed ~dst_seed ~lambda
    ~locality ~until () =
  let module Ft = Netsim.Shard.Fat_tree in
  let ft = Ft.create ~k ~core_delay:25e-6 () in
  let spec = Ft.spec ft in
  let all_hosts = Ft.hosts ft in
  Netsim.Shard.build spec (Ft.pods_partition ft) ~init:(fun view ->
      let sim = view.Netsim.Shard.sh_sim in
      let shard = view.Netsim.Shard.sh_index in
      let hooks = Hashtbl.create 64 in
      Option.iter
        (fun hook ->
          Array.iteri
            (fun id slot ->
              match slot with
              | Some node
                when Netsim.Shard.Spec.kind spec id = Netsim.Node.Switch ->
                Hashtbl.replace hooks id (hook view node)
              | _ -> ())
            view.Netsim.Shard.sh_nodes)
        on_switch;
      Ft.install ft view
        ~on_switch:(fun node pkt ->
          match Hashtbl.find_opt hooks node.Netsim.Node.id with
          | Some f -> f pkt
          | None -> ())
        ~on_deliver:(fun _ _ -> on_deliver shard);
      Array.iter
        (fun h ->
          match view.Netsim.Shard.sh_nodes.(h) with
          | None -> ()
          | Some host ->
            let gen = Netsim.Traffic.create ~seed:(gen_seed + h) sim in
            let rng = Random.State.make [| dst_seed; h |] in
            let pod = Ft.pod_hosts ft (Ft.pod_of_host ft h) in
            let pick arr = arr.(Random.State.int rng (Array.length arr)) in
            Netsim.Traffic.poisson gen ~lambda ~start:0. ~stop:until
              ~send:(fun () ->
                let dst =
                  if Random.State.float rng 1.0 < locality then pick pod
                  else pick all_hosts
                in
                if dst <> h then
                  Netsim.Node.send host ~port:0
                    (Netsim.Traffic.tcp_packet ~src:h ~dst
                       ~sport:(1024 + (h land 0xfff)) ~dport:80
                       ~born:(Netsim.Sim.now sim) ())))
        all_hosts)

(* -- tenant-churn bidders ----------------------------------------------- *)

type churn_spec = {
  cs_name : string;
  cs_program : Flexbpf.Ast.program;
  cs_sojourn : float;
  cs_budget : float;
  cs_weight : float;
  cs_protected : bool;
}

let churn_specs ~seed n =
  let rng = Random.State.make [| seed |] in
  let exp_draw mean = -.mean *. log (1. -. Random.State.float rng 1.) in
  List.init n (fun i ->
      let idx = i + 1 in
      let name = Printf.sprintf "tenant%d" idx in
      let program =
        (* 60% heavyweight ACL rule tables (64k..1M rules — the
           footprints that exhaust match memory and make admission a
           rationing problem), 40% lightweight stateful apps *)
        match Random.State.int rng 10 with
        | 0 | 1 -> Apps.Firewall.program ~owner:name ~boundary:100 ()
        | 2 | 3 ->
          Apps.Nat.program ~owner:name ~public:(900 + idx) ~subnet_lo:10
            ~subnet_hi:20 ()
        | _ ->
          Apps.Acl.program ~owner:name ~size:(65536 lsl Random.State.int rng 5)
            ()
      in
      { cs_name = name; cs_program = program;
        cs_sojourn = exp_draw 4.0;
        cs_budget = 4. +. Random.State.float rng 12.;
        (* willingness-to-pay multiple over floor rent: everyone enters
           an idle market, the spread decides who survives congestion *)
        cs_weight = 1.2 +. Random.State.float rng 4.;
        cs_protected = Random.State.int rng 10 = 0 })

let bidder spec =
  Market.Tenant.create
    ~sla:
      (if spec.cs_protected then Market.Tenant.Protected
       else Market.Tenant.Best_effort)
    ~budget:spec.cs_budget ~weight:spec.cs_weight spec.cs_program
