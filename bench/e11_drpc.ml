(* E11 — Data-plane RPC vs controller execution of management
   utilities (§3.4).

   "Control operations may also be handed over to the data plane for
   efficient execution ... the infrastructure program will provide a
   set of data plane RPC services for common utilities."

   N state-replication operations are issued via dRPC and via the
   controller path; reported: total completion time and speedup. *)

let mk_fleet () =
  List.init 2 (fun i ->
      let dev = Targets.Device.create ~id:(Printf.sprintf "d%d" i) Targets.Arch.drmt in
      let prog =
        Flexbpf.Builder.(
          program "p"
            ~maps:[ map_decl ~key_arity:1 ~size:256 "repl" ]
            [ block "b" [ map_incr "repl" [ field "ipv4" "src" ] ] ])
      in
      ignore (Targets.Device.install_program dev prog);
      dev)

let run_side ~n invoke =
  let sim = Netsim.Sim.create () in
  let reg = Runtime.Drpc.create ~controlplane_rtt:0.002 sim in
  Runtime.Drpc.register_standard reg ~fleet:(mk_fleet ()) ~map_name:"repl";
  let done_at = ref 0. in
  let rec chain i =
    if i = 0 then done_at := Netsim.Sim.now sim
    else invoke reg "replicate" [ 0L; 1L ] ~k:(fun _ -> chain (i - 1))
  in
  chain n;
  ignore (Netsim.Sim.run sim);
  !done_at

let run_case n =
  let dp = run_side ~n (fun reg name args -> Runtime.Drpc.invoke_dataplane reg name args) in
  let cp = run_side ~n (fun reg name args -> Runtime.Drpc.invoke_controlplane reg name args) in
  [ Report.i n; Report.ms dp; Report.ms cp; Report.f1 (cp /. dp) ]

let run () =
  let rows = List.map run_case [ 10; 100; 1000 ] in
  Report.print ~id:"E11" ~title:"dRPC vs control-plane execution of utilities"
    ~claim:
      "utility operations (state replication) executed as data-plane RPCs \
       complete orders of magnitude faster than controller round-trips"
    ~header:[ "operations"; "dRPC(ms)"; "controller(ms)"; "speedup" ]
    rows
