(** The one reconfiguration engine: every change to a live datapath —
    deploy, patch, recompile, GC/defragment, state migration — arrives
    here as a [Compiler.Plan.t] and is executed against the devices
    under two-version windows. The compiler never touches a device; it
    plans over resource snapshots and this module interprets the ops.

    Two timed modes, matching §1's contrast:

    - [Hitless] (runtime programmable): the touched devices keep
      serving traffic with their old program while the change is
      applied; the new program becomes visible atomically per device
      when its op batch completes. Zero loss; "program changes complete
      within a second".

    - [Drain] (compile-time baseline): each touched device is isolated
      by management operations (traffic drained — here: dropped, as the
      path has no alternates), reflashed with the full program, then
      redeployed. Loss is proportional to drain + reflash time.

    Failure handling (Hitless): the op batch is acknowledged
    per device at the end of the window — a device that crashed
    mid-batch restarts on its old program (Targets.Device rolls the
    in-flight mutations back at restart), the surviving devices are
    rolled back too, and the whole plan is re-driven after a bounded
    exponential backoff. When the retry budget runs out the plan aborts
    atomically: every touched device ends on its old program. Either
    way each device runs old-XOR-new, never a mix. [apply] is re-run on
    retries, so it must be idempotent over already-converged devices.

    [run_plan] is the untimed entry point used by the control plane: it
    freezes the touched devices, interprets the ops, thaws, and — when
    the planner supplied predicted snapshots — reconciles the actual
    device state against the prediction. *)

open Flexbpf

type mode = Hitless | Drain

type outcome = {
  started_at : float;
  finished_at : float;
  mode : mode;
  per_device_done : (string * float) list;
  attempts : int; (* 1 on a fault-free run *)
  rolled_back : bool; (* true: plan aborted, all devices on old program *)
}

let wired_for wireds dev_id =
  List.find_opt
    (fun w -> Targets.Device.id w.Wiring.device = dev_id)
    wireds

(* Devices whose structural state an op mutates (state migration only
   copies map contents; it needs no two-version window). *)
let structural_op_devices = function
  | Compiler.Plan.Migrate_state _ -> []
  | Compiler.Plan.Move { from_device; to_device; _ } ->
    [ from_device; to_device ]
  | op -> [ Compiler.Plan.op_device op ]

(* Serial op time per wired device in the plan (ops on devices outside
   the wired set — host stacks — are free here, as before; the cost
   model itself lives in [Compiler.Plan.times_of_devices]). Every
   structurally-touched wired device appears in the result even when
   the op's cost is charged elsewhere — a Move's source performs an
   uninstall inside the same window whose time is billed to the
   destination, but it still needs its own freeze/ack entry so a crash
   rolls it back too. *)
let per_device_times plan wireds =
  let devices = List.map (fun w -> w.Wiring.device) wireds in
  let wired_ids = List.map Targets.Device.id devices in
  let wired_ops =
    List.filter
      (fun op ->
        List.exists
          (fun d -> List.mem d wired_ids)
          (Compiler.Plan.op_device op :: structural_op_devices op))
      plan.Compiler.Plan.ops
  in
  let times =
    Compiler.Plan.per_device_times
      ~times_of:(Compiler.Plan.times_of_devices devices)
      { plan with Compiler.Plan.ops = wired_ops }
  in
  List.fold_left
    (fun acc d ->
      if List.mem_assoc d acc || not (List.mem d wired_ids) then acc
      else (d, 0.) :: acc)
    times
    (List.sort_uniq compare (List.concat_map structural_op_devices wired_ops))

(** Execute [plan] starting now. [apply] performs the device mutations
    immediately (under freeze); visibility and loss follow the mode's
    timing model. [on_done] fires when every device finished (or the
    plan aborted). Hitless runs survive mid-batch device crashes: the
    plan is re-driven up to [max_retries] times with exponential
    backoff starting at [retry_backoff] seconds, then aborted with
    every touched device rolled back to its old program. The sim's
    registry counts "reconfig.retries" and "reconfig.gaveups". *)
let execute ?(on_done = fun (_ : outcome) -> ()) ?(max_retries = 2)
    ?(retry_backoff = 0.05) ~sim ~mode ~wireds ~plan apply =
  let registry = Obs.Scope.metrics (Netsim.Sim.obs sim) in
  let tr = Obs.Scope.trace (Netsim.Sim.obs sim) in
  let start = Netsim.Sim.now sim in
  let times = per_device_times plan wireds in
  let touched () =
    List.filter_map (fun (d, _) -> wired_for wireds d) times
  in
  let exec_span =
    Obs.Trace.start tr "reconfig.execute"
      ~attrs:
        [ ("plan", Obs.Trace.S plan.Compiler.Plan.plan_name);
          ("mode", Obs.Trace.S (match mode with Hitless -> "hitless" | Drain -> "drain"));
          ("devices", Obs.Trace.I (List.length times)) ]
  in
  let on_done outcome =
    Obs.Trace.finish tr exec_span
      ~attrs:
        [ ("attempts", Obs.Trace.I outcome.attempts);
          ("rolled_back", Obs.Trace.B outcome.rolled_back) ];
    on_done outcome
  in
  match mode with
  | Hitless ->
    (* Per attempt: freeze (checkpoint) → mutate → stage fast paths →
       acknowledge at the end of the window. Commit (thaw) only if every
       touched device survived the window; otherwise roll the survivors
       back (crashed devices roll back at restart) and re-drive. *)
    let rec attempt k =
      let att_span =
        Obs.Trace.start tr ~parent:exec_span "reconfig.attempt"
          ~attrs:[ ("n", Obs.Trace.I (k + 1)) ]
      in
      let close_attempt ok =
        Obs.Trace.finish tr att_span ~attrs:[ ("ok", Obs.Trace.B ok) ]
      in
      let ws = touched () in
      if not (List.for_all (fun w -> Targets.Device.powered_on w.Wiring.device) ws)
      then begin
        close_attempt false;
        retry_or_abort k (* a device is still down: back off, retry *)
      end
      else begin
        let attempt_start = Netsim.Sim.now sim in
        let marks =
          List.map (fun w -> (w, Targets.Device.crashes w.Wiring.device)) ws
        in
        List.iter (fun w -> Targets.Device.freeze w.Wiring.device) ws;
        apply ();
        (* Stage the new program's compiled fast path inside the window:
           traffic still runs the frozen old program, and the thaw flips
           to an already-compiled replacement atomically. *)
        List.iter
          (fun w ->
            if Targets.Device.powered_on w.Wiring.device then
              Targets.Device.precompile w.Wiring.device)
          ws;
        let finish =
          List.fold_left (fun acc (_, t) -> Float.max acc t) 0. times
        in
        Netsim.Sim.after sim finish (fun () ->
            let acked (w, crashes0) =
              Targets.Device.powered_on w.Wiring.device
              && Targets.Device.crashes w.Wiring.device = crashes0
            in
            if List.for_all acked marks then begin
              List.iter (fun w -> Targets.Device.thaw w.Wiring.device) ws;
              close_attempt true;
              on_done
                { started_at = start; finished_at = Netsim.Sim.now sim; mode;
                  per_device_done =
                    List.map (fun (d, t) -> (d, attempt_start +. t)) times;
                  attempts = k + 1; rolled_back = false }
            end
            else begin
              (* un-acked batch: survivors roll back now, crashed
                 devices roll back on restart *)
              List.iter
                (fun w ->
                  if Targets.Device.powered_on w.Wiring.device then
                    Targets.Device.rollback w.Wiring.device)
                ws;
              close_attempt false;
              retry_or_abort k
            end)
      end
    and retry_or_abort k =
      if k < max_retries then begin
        Obs.Metrics.incr registry "reconfig.retries";
        Netsim.Sim.after sim
          (retry_backoff *. (2. ** float_of_int k))
          (fun () -> attempt (k + 1))
      end
      else begin
        Obs.Metrics.incr registry "reconfig.gaveups";
        (* abort atomically: any device still holding an open window
           (e.g. frozen but never crashed) reverts to its old program *)
        List.iter
          (fun w ->
            if Targets.Device.is_frozen w.Wiring.device
               && Targets.Device.powered_on w.Wiring.device
            then Targets.Device.rollback w.Wiring.device)
          (touched ());
        on_done
          { started_at = start; finished_at = Netsim.Sim.now sim; mode;
            per_device_done = []; attempts = k + 1; rolled_back = true }
      end
    in
    attempt 0
  | Drain ->
    (* take each touched device offline for drain + full reflash *)
    let downtimes =
      List.map
        (fun (d, _) ->
          let w = wired_for wireds d in
          let down =
            match w with
            | Some w ->
              let r = Targets.Device.reconfig_times w.Wiring.device in
              r.Targets.Arch.drain_time +. r.Targets.Arch.t_full_reflash
            | None -> 0.
          in
          (match w with Some w -> Wiring.set_online w false | None -> ());
          (d, down))
        times
    in
    apply ();
    let finish =
      List.fold_left (fun acc (_, t) -> Float.max acc t) 0. downtimes
    in
    List.iter
      (fun (d, down) ->
        Netsim.Sim.after sim down (fun () ->
            match wired_for wireds d with
            | Some w -> Wiring.set_online w true
            | None -> ()))
      downtimes;
    Netsim.Sim.after sim finish (fun () ->
        on_done
          { started_at = start; finished_at = start +. finish; mode;
            per_device_done =
              List.map (fun (d, t) -> (d, start +. t)) downtimes;
            attempts = 1; rolled_back = false })

(** Modelled completion latency of a plan in hitless mode (no sim). *)
let hitless_latency ~devices plan =
  Compiler.Plan.duration plan ~times_of:(Compiler.Plan.times_of_devices devices)

(* -- The op interpreter ------------------------------------------------ *)

let find_device devices id =
  List.find_opt (fun d -> Targets.Device.id d = id) devices

let snapshot_maps dev element =
  Compose.element_maps element
  |> List.sort_uniq compare
  |> List.filter_map (fun name ->
         Option.map
           (fun st -> (name, State.snapshot st))
           (Targets.Device.map_state dev name))

let restore_maps dev snaps =
  List.iter
    (fun (name, snap) ->
      ignore (Targets.Device.load_map_snapshot dev name snap))
    snaps

(** Interpret one op against live devices. [Install] of an
    already-installed name is a replacement: the element's map state is
    carried across the uninstall/reinstall. *)
let apply_op devices op =
  let dev id =
    match find_device devices id with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "unknown device %s" id)
  in
  match op with
  | Compiler.Plan.Install { device; element; ctx; order } ->
    Result.bind (dev device) (fun d ->
        let name = Ast.element_name element in
        let carried =
          if List.mem name (Targets.Device.installed_names d) then begin
            let c = snapshot_maps d element in
            ignore (Targets.Device.uninstall d name);
            c
          end
          else []
        in
        match Targets.Device.install d ~ctx ~order element with
        | Ok _ -> restore_maps d carried; Ok ()
        | Error r ->
          Error
            (Printf.sprintf "install %s on %s: %s" name device
               (Targets.Device.reject_to_string r)))
  | Remove { device; element_name } ->
    Result.bind (dev device) (fun d ->
        ignore (Targets.Device.uninstall d element_name);
        Ok ())
  | Move { from_device; to_device; element; ctx; order } ->
    Result.bind (dev from_device) (fun src ->
        Result.bind (dev to_device) (fun dst ->
            let name = Ast.element_name element in
            let carried = snapshot_maps src element in
            (* both tiers travel with a table: the authoritative host-
               tier rule set, and (best-effort) the resident hot-key set
               of the device tier so the destination starts warm.
               Captured before the uninstall, replayed after the
               install — invisible to traffic until the thaw. *)
            let rules, hot =
              match element with
              | Ast.Table tbl ->
                ( Interp.table_rules (Targets.Device.env src) tbl.Ast.tbl_name,
                  Targets.Device.tier_resident_keys src tbl.Ast.tbl_name )
              | Ast.Block _ -> ([], [])
            in
            ignore (Targets.Device.uninstall src name);
            match Targets.Device.install dst ~ctx ~order element with
            | Ok _ ->
              restore_maps dst carried;
              (match element with
               | Ast.Table tbl ->
                 let tname = tbl.Ast.tbl_name in
                 let dst_env = Targets.Device.env dst in
                 (* rule storage is newest-first: replay oldest-first to
                    preserve install order and first-match semantics *)
                 List.iter
                   (fun r -> Interp.install_rule dst_env tname r)
                   (List.rev rules);
                 if hot <> [] then Targets.Device.warm_tier dst tname hot
               | Ast.Block _ -> ());
              Ok ()
            | Error r ->
              Error
                (Printf.sprintf "move %s to %s: %s" name to_device
                   (Targets.Device.reject_to_string r))))
  | Add_parser { device; rule } ->
    Result.bind (dev device) (fun d ->
        (* tolerated: the planner may emit rules a host already has *)
        (match Targets.Device.add_parser_rule d rule with
         | Ok () | Error _ -> ());
        Ok ())
  | Remove_parser { device; rule_name } ->
    Result.bind (dev device) (fun d ->
        ignore (Targets.Device.remove_parser_rule d rule_name);
        Ok ())
  | Migrate_state { from_device; to_device; map_name } ->
    Result.bind (dev from_device) (fun src ->
        Result.bind (dev to_device) (fun dst ->
            match Targets.Device.map_state src map_name with
            | None ->
              Error
                (Printf.sprintf "migrate-state: no map %s on %s" map_name
                   from_device)
            | Some st ->
              if
                Targets.Device.load_map_snapshot dst map_name
                  (State.snapshot st)
              then Ok ()
              else
                Error
                  (Printf.sprintf "migrate-state: map %s not declared on %s"
                     map_name to_device)))
  | Defragment { device; moves = _ } ->
    Result.bind (dev device) (fun d ->
        ignore (Targets.Device.defragment d);
        Ok ())

let apply_ops devices plan =
  let rec go = function
    | [] -> Ok ()
    | op :: rest ->
      (match apply_op devices op with Ok () -> go rest | Error e -> Error e)
  in
  go plan.Compiler.Plan.ops

(** Untimed plan execution: freeze the touched devices (those not
    already inside a caller-held window), interpret the ops, thaw. An
    op failure rolls the self-frozen devices back and returns the
    error, so the plan is transactional over the devices this call
    froze. With [predicted] (the planner's post-execution snapshots),
    the actual device state is reconciled against the prediction after
    the thaw; devices still inside a caller-held window are skipped —
    their deferred cleanups have not run yet. *)
let run_plan ?obs ?parent ?predicted ~devices plan =
  (* untimed: the span records structure (plan name, op count, outcome)
     under the caller's virtual clock; start = end unless the caller's
     clock advances, which it cannot here *)
  let span =
    Option.map
      (fun scope ->
        Obs.Trace.start (Obs.Scope.trace scope) ?parent "reconfig.run_plan"
          ~attrs:
            [ ("plan", Obs.Trace.S plan.Compiler.Plan.plan_name);
              ("ops", Obs.Trace.I (List.length plan.Compiler.Plan.ops)) ])
      obs
  in
  let finish result =
    (match obs, span with
     | Some scope, Some span ->
       Obs.Trace.finish (Obs.Scope.trace scope) span
         ~attrs:[ ("ok", Obs.Trace.B (Result.is_ok result)) ]
     | _ -> ());
    result
  in
  let touched_ids =
    List.sort_uniq compare
      (List.concat_map structural_op_devices plan.Compiler.Plan.ops)
  in
  let structural = List.filter_map (find_device devices) touched_ids in
  let self_frozen =
    List.filter (fun d -> not (Targets.Device.is_frozen d)) structural
  in
  List.iter Targets.Device.freeze self_frozen;
  finish
    (match apply_ops devices plan with
     | Error e ->
       List.iter Targets.Device.rollback self_frozen;
       Error e
     | Ok () ->
       List.iter Targets.Device.thaw self_frozen;
       (match predicted with
        | None -> Ok ()
        | Some preds ->
          let mismatches =
            List.concat_map
              (fun (id, snap) ->
                match find_device devices id with
                | None -> []
                | Some d ->
                  if Targets.Device.is_frozen d then []
                  else
                    List.map
                      (fun m -> id ^ ": " ^ m)
                      (Targets.Resource.diff snap (Targets.Device.snapshot d)))
              preds
          in
          if mismatches = [] then Ok ()
          else
            Error
              ("reconciliation failed: " ^ String.concat "; " mismatches)))

(** [execute] with the op interpreter as [apply] — the timed plan-only
    path used by experiments. *)
let execute_plan ?on_done ?max_retries ?retry_backoff ~sim ~mode ~wireds
    ~plan () =
  let devices = List.map (fun w -> w.Wiring.device) wireds in
  execute ?on_done ?max_retries ?retry_backoff ~sim ~mode ~wireds ~plan
    (fun () -> ignore (apply_ops devices plan))

(* -- Plan-then-execute entry points ------------------------------------ *)

(* Run [f] under a named span when an observability scope was supplied;
   [f] gets the span (or [None]) to parent the inner [run_plan] span. *)
let with_obs_span obs name attrs f =
  match obs with
  | None -> f None
  | Some scope ->
    Obs.Trace.with_span (Obs.Scope.trace scope) name ~attrs (fun span ->
        f (Some span))

let placement_of ~path ~prog where_ids =
  { Compiler.Placement.path; prog;
    where =
      List.filter_map
        (fun (n, id) -> Option.map (fun d -> (n, d)) (find_device path id))
        where_ids }

(** Plan and execute a fresh placement. Planning failures are reported;
    an execution failure of a freshly planned op means planner and
    device admission disagree — an invariant violation. *)
let place ?obs ~path prog =
  with_obs_span obs "reconfig.deploy"
    [ ("program", Obs.Trace.S prog.Flexbpf.Ast.prog_name) ]
    (fun parent ->
      match Compiler.Placement.plan ~path prog with
      | Error f -> Error f
      | Ok pl ->
        (match
           run_plan ?obs ?parent ~predicted:pl.Compiler.Placement.pln_snaps
             ~devices:path pl.Compiler.Placement.pln_plan
         with
         | Ok () -> Ok (placement_of ~path ~prog pl.Compiler.Placement.pln_where)
         | Error e -> failwith ("deploy execution failed: " ^ e)))

(** Remove a placed program from its devices. *)
let unplace ?obs (p : Compiler.Placement.t) =
  let ops =
    List.map
      (fun (name, dev) ->
        Compiler.Plan.Remove
          { device = Targets.Device.id dev; element_name = name })
      p.Compiler.Placement.where
  in
  (match
     run_plan ?obs ~devices:p.Compiler.Placement.path
       (Compiler.Plan.v "unplace" ops)
   with
   | Ok () | Error _ -> ());
  p.Compiler.Placement.where <- []

(** Deploy a program fresh onto a path. *)
let deploy ?obs ~path prog =
  Result.map
    (fun placement ->
      { Compiler.Incremental.dep_prog = prog; dep_placement = placement;
        dep_typed = false })
    (place ?obs ~path prog)

let commit_deployment (dep : Compiler.Incremental.deployment)
    (pc : Compiler.Incremental.planned_change) =
  let path = dep.dep_placement.Compiler.Placement.path in
  dep.dep_prog <- pc.Compiler.Incremental.ch_prog;
  dep.dep_placement.Compiler.Placement.where <-
    List.filter_map
      (fun (n, id) -> Option.map (fun d -> (n, d)) (find_device path id))
      pc.Compiler.Incremental.ch_where

(** Plan a patch ([Compiler.Incremental.plan_patch], with candidate
    search), execute the winning plan, reconcile against the predicted
    snapshots, and commit the new program/placement. The deployment is
    untouched on any error. *)
let apply_patch ?obs ?candidates ?prefer_adjacent
    (dep : Compiler.Incremental.deployment) patch =
  with_obs_span obs "reconfig.patch"
    [ ("program", Obs.Trace.S dep.Compiler.Incremental.dep_prog.Flexbpf.Ast.prog_name) ]
    (fun parent ->
      match
        Compiler.Incremental.plan_patch ?candidates ?prefer_adjacent dep patch
      with
      | Error e -> Error e
      | Ok (pc, diff) ->
        let path = dep.dep_placement.Compiler.Placement.path in
        (match
           run_plan ?obs ?parent ~predicted:pc.Compiler.Incremental.ch_snaps
             ~devices:path
             pc.Compiler.Incremental.ch_report.Compiler.Incremental.plan
         with
         | Error e -> Error (Compiler.Incremental.Exec_error e)
         | Ok () ->
           commit_deployment dep pc;
           Ok (pc.Compiler.Incremental.ch_report, diff)))

(** Plan and execute the compile-time baseline (full teardown and
    redeploy). *)
let full_recompile ?obs (dep : Compiler.Incremental.deployment) new_prog =
  with_obs_span obs "reconfig.full_recompile"
    [ ("program", Obs.Trace.S new_prog.Flexbpf.Ast.prog_name) ]
    (fun parent ->
      match Compiler.Incremental.plan_full_recompile dep new_prog with
      | Error e -> Error e
      | Ok pc ->
        let path = dep.dep_placement.Compiler.Placement.path in
        (match
           run_plan ?obs ?parent ~predicted:pc.Compiler.Incremental.ch_snaps
             ~devices:path
             pc.Compiler.Incremental.ch_report.Compiler.Incremental.plan
         with
         | Error e -> Error (Compiler.Incremental.Exec_error e)
         | Ok () ->
           commit_deployment dep pc;
           dep.dep_typed <- false; (* [new_prog] was never checked *)
           Ok pc.Compiler.Incremental.ch_report))

(* -- Fungible compilation, executed ------------------------------------ *)

type fungible_outcome = {
  placement : Compiler.Placement.t option;
  iterations : int; (* placement attempts *)
  gc_removed : string list;
  defrag_moves : int;
  failure : Compiler.Placement.failure option;
}

let run_fungible ?obs ~path ~prog (o : Compiler.Fungible.outcome) =
  let placement =
    match o.Compiler.Fungible.planned with
    | None -> None
    | Some pl ->
      (match
         run_plan ?obs ~predicted:pl.Compiler.Placement.pln_snaps ~devices:path
           pl.Compiler.Placement.pln_plan
       with
       | Ok () ->
         Some (placement_of ~path ~prog pl.Compiler.Placement.pln_where)
       | Error e -> failwith ("fungible execution failed: " ^ e))
  in
  { placement; iterations = o.Compiler.Fungible.iterations;
    gc_removed = o.Compiler.Fungible.gc_removed;
    defrag_moves = o.Compiler.Fungible.defrag_moves;
    failure = o.Compiler.Fungible.failure }

(** One-shot bin-packing baseline, planned then executed. *)
let place_once ?obs ~path prog =
  run_fungible ?obs ~path ~prog (Compiler.Fungible.place_once ~path prog)

(** The fungible compilation loop (GC + defragmentation), planned then
    executed as a single plan. On failure nothing was executed, so the
    devices are untouched. *)
let place_with_gc ?obs ?max_iterations ~path ~removable prog =
  run_fungible ?obs ~path ~prog
    (Compiler.Fungible.place_with_gc ?max_iterations ~path ~removable prog)
