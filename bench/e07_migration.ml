(* E7 — Stateful app migration: control plane vs data plane (§3.4).

   "As the sketch state is updated for each packet, copying state via
   control plane software is impossible." A count-min sketch is updated
   at increasing packet rates while being migrated between two switches;
   freeze-copy loses the updates applied during its copy window, the
   Swing-State-style data-plane protocol loses none. *)

let run_case pps =
  let migrate proto =
    let m =
      Scenario.migrate_count_min ~entries_per_second:20_000. ~seed:9
        ~flows:200 ~pps proto
    in
    (m.Scenario.expected, m.Scenario.expected - m.Scenario.present,
     m.Scenario.window)
  in
  let fe, fl, fw = migrate `Freeze in
  let _, sl, sw = migrate `Swing in
  [ Printf.sprintf "%.0fk" (pps /. 1000.);
    Report.i fe;
    Report.i fl;
    Report.pct (float_of_int fl /. float_of_int fe);
    Report.ms fw;
    Report.i sl;
    Report.ms sw ]

let run () =
  let rows = List.map run_case [ 1_000.; 10_000.; 50_000.; 100_000. ] in
  Report.print ~id:"E7" ~title:"stateful migration: freeze-copy vs data-plane swing"
    ~claim:
      "control-plane copy loses all updates applied during its window (loss \
       grows with packet rate); the data-plane protocol migrates per-packet \
       state losslessly"
    ~header:
      [ "update-rate"; "updates"; "lost(freeze)"; "loss-rate"; "window(ms)";
        "lost(swing)"; "swing-window(ms)" ]
    rows
