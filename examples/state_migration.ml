(* App migration (§3.4): move a stateful monitoring app (count-min
   sketch) between switches while it is being updated on every packet.
   Control-plane freeze-copy loses the updates applied during the copy
   window; the data-plane swing protocol does not.

   Run with: dune exec examples/state_migration.exe *)

let pf fmt = Format.printf fmt

let run protocol label =
  let on_start () =
    pf "  t=0.5s: migrating sketch spine-a -> spine-b (%s)...@." label
  in
  let on_done t r =
    pf "  t=%.3fs: cutover after %.0f ms %s (%d entries)@." t
      (1000. *. r.Runtime.Migration.window)
      (match protocol with `Freeze -> "copy" | `Swing -> "mirror window")
      r.Runtime.Migration.entries_moved
  in
  let m =
    Scenario.migrate_count_min ~entries_per_second:2_000. ~on_start ~on_done
      ~seed:17 ~flows:100 ~pps:50_000. protocol
  in
  (label, m.Scenario.expected, m.Scenario.present)

let () =
  pf "== Stateful app migration ==@.@.";
  pf "a count-min sketch updated at 50k pps migrates mid-trace:@.@.";
  let freeze = run `Freeze "control-plane freeze-copy" in
  pf "@.";
  let swing = run `Swing "data-plane swing" in
  pf "@.%-28s %-12s %-12s %-10s@." "protocol" "expected" "present" "lost";
  List.iter
    (fun (label, expected, present) ->
      pf "%-28s %-12d %-12d %-10d@." label expected present (expected - present))
    [ freeze; swing ];
  let _, fe, fp = freeze and _, se, sp = swing in
  assert (fp < fe); (* freeze-copy lost updates *)
  assert (sp = se); (* swing lost nothing *)
  pf "@.\"copying state via control plane software is impossible\" —@.";
  pf "the data-plane protocol migrates per-packet-mutating state losslessly.@.";
  pf "@.state migration OK@."
