(* A2 — Ablation: consistency disciplines for a function move (§3.4).

   "Functional updates to a logical datapath need application-level,
   consistent packet processing, which goes beyond controlling the
   order of rule updates."

   A counting function moves upstream from switch s2 to switch s0 while
   traffic flows. Exactly-once processing means every packet is counted
   exactly once. We compare:
   - unsynchronized: each device applies its change when it arrives
     (200ms apart) — packets in the gap are counted twice;
   - remove-then-add ordering: the opposite gap — packets counted zero
     times;
   - two-version simultaneous flip: both devices switch at one instant;
     only packets in flight across the path at the flip can deviate.

   This reproduces the paper's argument that rule-update ordering alone
   cannot give application-level consistency. *)

open Flexbpf.Builder

let counter = block "move_me" [ set_meta "applied" (meta "applied" +: const 1) ]
let prog = program "p" [ counter ]

let run_discipline discipline =
  let sim, _topo, h0, h1, devs, _wireds, _ = Common.wired_linear ~switches:3 () in
  let s0 = List.nth devs 0 and s2 = List.nth devs 2 in
  ignore (Targets.Device.install s2 ~ctx:prog ~order:0 counter);
  let tallies = Array.make 4 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ pkt ->
      let n = Int64.to_int (Netsim.Packet.meta_default pkt "applied" 0L) in
      tallies.(min n 3) <- tallies.(min n 3) + 1);
  ignore (Scenario.cbr sim ~h0 ~h1 ~rate_pps:5_000. ~stop:1.0);
  let add () = ignore (Targets.Device.install s0 ~ctx:prog ~order:0 counter) in
  let remove () = ignore (Targets.Device.uninstall s2 "move_me") in
  (match discipline with
   | `Unsynchronized ->
     (* add upstream now, removal arrives 200ms later *)
     Netsim.Sim.at sim 0.4 (fun () -> add ());
     Netsim.Sim.at sim 0.6 (fun () -> remove ())
   | `Remove_then_add ->
     Netsim.Sim.at sim 0.4 (fun () -> remove ());
     Netsim.Sim.at sim 0.6 (fun () -> add ())
   | `Simultaneous ->
     Netsim.Sim.at sim 0.4 (fun () ->
         ignore
           (Control.Consistent.update ~sim
              ~discipline:Control.Consistent.Simultaneous
              ~path_order:[ s0; s2 ]
              (fun () -> add (); remove ()))));
  ignore (Netsim.Sim.run sim);
  tallies

let label = function
  | `Unsynchronized -> "unsynchronized (add, +200ms remove)"
  | `Remove_then_add -> "ordered remove-then-add"
  | `Simultaneous -> "two-version simultaneous flip"

let run () =
  let rows =
    List.map
      (fun d ->
        let t = run_discipline d in
        let total = Array.fold_left ( + ) 0 t in
        let inconsistent = total - t.(1) in
        [ label d; Report.i t.(0); Report.i t.(1); Report.i (t.(2) + t.(3));
          Report.pct (float_of_int inconsistent /. float_of_int (max 1 total)) ])
      [ `Unsynchronized; `Remove_then_add; `Simultaneous ]
  in
  Report.print ~id:"A2"
    ~title:"ablation: consistency disciplines while moving a function"
    ~claim:
      "ordering rule updates yields at-least-once or at-most-once processing \
       (double- or zero-counted packets); the two-version simultaneous flip \
       achieves (near-)exactly-once — application-level consistency needs \
       more than update ordering"
    ~header:[ "discipline"; "applied x0"; "applied x1"; "applied x2+"; "inconsistent" ]
    rows
