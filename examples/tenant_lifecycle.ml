(* Tenant extensions (§1.1, §3): tenants arrive with their own network
   programs — a NAT, a firewall — which are certified, access-checked,
   VLAN-isolated, and injected into the live network; departures remove
   them and release the resources.

   Run with: dune exec examples/tenant_lifecycle.exe *)

let pf fmt = Format.printf fmt

let show_utilization net tag =
  let util =
    Compiler.Placement.mean_utilization (Flexnet.path net) *. 100.
  in
  pf "  [%-18s] mean device utilization: %.2f%%@." tag util

let () =
  pf "== Tenant lifecycle ==@.@.";
  let net = Scenario.up () in
  show_utilization net "infra only";

  (* Tenant "acme" brings a NAT; tenant "bolt" brings a firewall. *)
  let acme_nat =
    Apps.Nat.program ~owner:"acme" ~public:900 ~subnet_lo:10 ~subnet_hi:20 ()
  in
  let bolt_fw = Apps.Firewall.program ~owner:"bolt" ~boundary:100 () in

  List.iter
    (fun ext ->
      match Flexnet.add_tenant net ext with
      | Ok (tenant, report) ->
        pf "tenant %-6s admitted: vlan %d, %d ops, %.0f ms, devices %s@."
          tenant.Control.Tenants.tenant_name tenant.Control.Tenants.vlan
          (Compiler.Plan.size report.Compiler.Incremental.plan)
          (1000. *. report.Compiler.Incremental.duration)
          (String.concat "," report.Compiler.Incremental.touched_devices)
      | Error e ->
        pf "admission failed: %a@." Control.Tenants.pp_admission_error e)
    [ acme_nat; bolt_fw ];
  show_utilization net "with 2 tenants";

  (* A malicious tenant is rejected at admission. *)
  pf "@.tenant 'evil' tries to read infrastructure state:@.";
  let evil =
    Flexbpf.Builder.(
      program ~owner:"evil" "snoop"
        ~maps:[ map_decl ~key_arity:1 ~size:4 "infra/port_counters" ]
        [ block "peek"
            [ set_meta "stolen" (map_get "infra/port_counters" [ const 0 ]) ] ])
  in
  (match Flexnet.add_tenant net evil with
   | Ok _ -> pf "  !! admitted (bug)@."
   | Error e -> pf "  rejected: %a@." Control.Tenants.pp_admission_error e);

  (* An over-budget tenant is rejected by the bounded-execution
     certifier. *)
  pf "@.tenant 'hog' submits an unboundable program:@.";
  let hog =
    Flexbpf.Builder.(
      program ~owner:"hog" "spin"
        [ block "burn" [ loop 64 [ loop 64 [ loop 64 [ set_meta "x" (const 1) ] ] ] ] ])
  in
  (match Flexnet.add_tenant net hog with
   | Ok _ -> pf "  !! admitted (bug)@."
   | Error e -> pf "  rejected: %a@." Control.Tenants.pp_admission_error e);

  (* Identical logic across tenants is surfaced as sharable. *)
  (match Flexnet.add_tenant net (Apps.Firewall.program ~owner:"carp" ~boundary:100 ()) with
   | Ok (t, _) -> pf "@.tenant %s admitted (same firewall as bolt)@." t.Control.Tenants.tenant_name
   | Error e -> pf "admission failed: %a@." Control.Tenants.pp_admission_error e);
  List.iter
    (fun (a, b) -> pf "  sharable logic: %s == %s@." a b)
    (Control.Tenants.sharable (Flexnet.tenants_exn net));

  (* Departures trim the network. *)
  pf "@.departures:@.";
  List.iter
    (fun name ->
      match Flexnet.remove_tenant net name with
      | Ok report ->
        pf "  %-6s departed (%d ops, %.0f ms)@." name
          (Compiler.Plan.size report.Compiler.Incremental.plan)
          (1000. *. report.Compiler.Incremental.duration)
      | Error e -> pf "  %s: %a@." name Control.Tenants.pp_departure_error e)
    [ "acme"; "bolt"; "carp" ];
  show_utilization net "after departures";
  pf "@.tenant lifecycle OK@."
