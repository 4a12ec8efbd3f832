(** Energy-aware consolidation (§3.3): at low load, program elements
    consolidate onto as few devices as possible and emptied devices
    power down; at high load they spread back out. *)

type move = { moved_element : string; from_device : string; to_device : string }

type consolidation = {
  moves : move list;
  powered_off : string list;
  watts_before : float;
  watts_after : float;
}

(** Static draw of the device set (2 W sleep power when off). *)
val total_watts : Targets.Device.t list -> float

(** Drain the least-utilized devices into the most-utilized ones, power
    off devices that end up empty, and update the placement map. Each
    relocation is a one-op [Compiler.Plan.Move] run through
    {!Reconfig.run_plan}: the element's map state, table rules and
    device-tier hot keys move with it, and a destination that rejects
    the element leaves both devices as they were. Deliberately ignores
    the path-order constraint — an energy/performance trade the
    operator opts into at low load. *)
val consolidate : Compiler.Placement.t -> consolidation

(** Power every device back on (load rose again). *)
val expand : Targets.Device.t list -> unit
