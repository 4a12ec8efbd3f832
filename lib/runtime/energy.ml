(** Energy-aware consolidation (§3.3).

    "By leveraging this fungibility layer, FlexNet is able to shuffle
    resources around and optimize for the current workload regarding
    network energy consumption." At low load, program elements are
    consolidated onto as few devices as possible and the emptied devices
    are powered down; when load rises they are spread back out. *)

open Flexbpf

type move = { moved_element : string; from_device : string; to_device : string }

type consolidation = {
  moves : move list;
  powered_off : string list;
  watts_before : float;
  watts_after : float;
}

let static_watts dev =
  (Targets.Arch.profile_of_kind (Targets.Device.kind dev)).Targets.Arch.static_watts

let total_watts devices =
  List.fold_left
    (fun acc d ->
      acc +. (if Targets.Device.powered_on d then static_watts d else 2.))
    0. devices

(* Relocating [name] from [src] to [dst] is a one-op plan. *)
let move_plan ~(prog : Ast.program) src dst name =
  Option.map
    (fun (order, element) ->
      Compiler.Plan.v "consolidate"
        [ Compiler.Plan.Move
            { from_device = Targets.Device.id src;
              to_device = Targets.Device.id dst; element; ctx = prog; order } ])
    (List.find_mapi
       (fun i e -> if Ast.element_name e = name then Some (i, e) else None)
       prog.Ast.pipeline)

(** Consolidate the elements of [prog] (placed on [placement]) onto the
    fewest devices: drain the least-utilized devices into the most-
    utilized ones, power off devices that end up empty.

    Note: consolidation deliberately ignores the path-order constraint —
    it is an energy/performance trade the operator opts into at low load
    (the controller routes traffic through the consolidated slice). *)
let consolidate (placement : Compiler.Placement.t) =
  let prog = placement.Compiler.Placement.prog in
  let devices = placement.Compiler.Placement.path in
  let watts_before = total_watts devices in
  let by_util_asc =
    List.filter (fun d -> Targets.Device.installed_names d <> []) devices
    |> List.sort (fun a b ->
           compare (Targets.Device.utilization a) (Targets.Device.utilization b))
  in
  let moves = ref [] in
  List.iter
    (fun src ->
      (* try to drain src into the other occupied devices, fullest first *)
      let targets =
        List.filter
          (fun d ->
            d != src
            && Targets.Device.powered_on d
            && Targets.Device.installed_names d <> [])
          devices
        |> List.sort (fun a b ->
               compare (Targets.Device.utilization b) (Targets.Device.utilization a))
      in
      List.iter
        (fun name ->
          let rec try_targets = function
            | [] -> ()
            | dst :: rest ->
              (* the engine carries the table's rules, hot keys and map
                 state, and rolls both devices back on a rejection *)
              let moved =
                match move_plan ~prog src dst name with
                | None -> false
                | Some plan ->
                  Result.is_ok (Reconfig.run_plan ~devices:[ src; dst ] plan)
              in
              if moved then begin
                moves :=
                  { moved_element = name; from_device = Targets.Device.id src;
                    to_device = Targets.Device.id dst }
                  :: !moves;
                placement.Compiler.Placement.where <-
                  (name, dst)
                  :: List.filter (fun (n, _) -> n <> name)
                       placement.Compiler.Placement.where
              end
              else try_targets rest
          in
          try_targets targets)
        (Targets.Device.installed_names src))
    by_util_asc;
  let powered_off =
    List.filter_map
      (fun d ->
        if Targets.Device.installed_names d = [] && Targets.Device.powered_on d
        then begin
          Targets.Device.set_power d false;
          Some (Targets.Device.id d)
        end
        else None)
      devices
  in
  { moves = List.rev !moves; powered_off; watts_before;
    watts_after = total_watts devices }

(** Power every device back on (load rose again). *)
let expand devices = List.iter (fun d -> Targets.Device.set_power d true) devices
