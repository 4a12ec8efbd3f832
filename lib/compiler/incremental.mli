(** Incremental recompilation (§3.3) — as pure planning.

    Runtime changes are compiled "in a least-intrusive manner": from a
    live deployment, a patch produces a reconfiguration plan touching
    only the changed elements and preferring {e maximally adjacent}
    placements — the device an element already lives on, or the devices
    hosting its pipeline neighbours.

    Nothing here mutates a device or the deployment: [plan_patch]
    searches resource snapshots, generates several candidate plans and
    returns the cheapest by predicted total work;
    [plan_full_recompile] is the compile-time baseline.
    [Runtime.Reconfig] executes the winning plan and commits the new
    program/placement on success. *)

type deployment = {
  mutable dep_prog : Flexbpf.Ast.program;
  mutable dep_placement : Placement.t;
  mutable dep_typed : bool;
      (* [dep_prog] is known to type-check. Start a deployment with
         [false]; [plan_patch] sets it with one full check, a committed
         patch keeps it, and whoever installs a program that did not
         come from [plan_patch] clears it. *)
}

type report = {
  plan : Plan.t;
  moved_elements : int; (* installed, removed, or relocated *)
  touched_devices : string list;
  duration : float; (* parallel wall-clock model *)
  total_work : float; (* serial op time: intrusiveness *)
  cost : Plan.cost; (* full annotation incl. per-device resource deltas *)
}

(** Device-id -> timing profile over a path. Delegates to
    {!Plan.times_of_devices} — the single op-serialization cost model. *)
val times_of_path :
  Targets.Device.t list -> string -> Targets.Arch.reconfig_times

val report_of_plan :
  path:Targets.Device.t list ->
  deltas:(string * Targets.Resource.t) list -> Plan.t -> report

type error =
  | Patch_error of string
  | Placement_error of Placement.failure
  | Exec_error of string (* a planned op failed on the live device *)

val pp_error : Format.formatter -> error -> unit

(** A plan plus the deployment state it predicts: program and
    element->device map after execution, and the per-device snapshots
    the executor reconciles against. *)
type planned_change = {
  ch_prog : Flexbpf.Ast.program;
  ch_where : (string * string) list; (* element name -> device id *)
  ch_snaps : (string * Targets.Resource.snapshot) list;
  ch_report : report;
  ch_candidates : int; (* candidate plans evaluated *)
}

(** Plan a patch against a live deployment without touching its
    program, placement or devices (only [dep_typed] may be set, by the
    first full check of [dep_prog]). The patch result is checked as
    {!Flexbpf.Patch.apply} does, or whole while [dep_prog] does not
    type-check. Generates up to [candidates] (default 3) alternative plans by
    rotating the preference list at each placement decision and returns
    the one with least predicted total work (ties: fewer ops, then
    lowest rotation). [prefer_adjacent:false] is the A1 ablation
    baseline — the same candidate generation with inverted preference
    order. Deterministic. *)
val plan_patch :
  ?candidates:int -> ?prefer_adjacent:bool -> deployment -> Flexbpf.Patch.t ->
  (planned_change * Flexbpf.Patch.diff, error) result

(** Plan the compile-time baseline: remove everything, re-place the new
    program from scratch; the cost model is drain + full reflash on
    every touched device. Pure. *)
val plan_full_recompile :
  deployment -> Flexbpf.Ast.program -> (planned_change, error) result
