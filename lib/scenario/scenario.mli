(** Shared workloads for the CLI, the E-series bench and the examples.

    Each scenario the three front ends run is built here once, so their
    copies cannot drift. A function takes a parameter only where its
    callers set a value differently (a seed, a rate, a ramp shape, a
    rule count); everything else is fixed, which keeps every seeded
    output of the callers unchanged. *)

(** {1 Whole-stack network and traffic} *)

(** [Flexnet.create] (default dRMT, 3 switches) followed by
    [Flexnet.deploy_infrastructure].
    @raise Failure when the infrastructure does not deploy. *)
val up : ?arch:Targets.Arch.kind -> ?switches:int -> unit -> Flexnet.t

(** CBR TCP traffic (port 1234 to 80) from [h0] to [h1] at [rate_pps]
    over \[0, [stop]), sent out of h0's port 0. Returns the live count of
    packets sent. *)
val cbr :
  Netsim.Sim.t -> h0:Netsim.Node.t -> h1:Netsim.Node.t -> rate_pps:float ->
  stop:float -> int ref

(** {1 Hitless telemetry patch} *)

(** Add the flow-byte map and the flow counter before [ipv4_lpm]. *)
val telemetry_patch : Flexbpf.Patch.t

(** The demo run: {!cbr} at 1000 pps over \[0, 2) s, and
    {!telemetry_patch} applied hitlessly at t=1 ([on_done] fires when
    the patch completes). Returns the live count of packets sent; the
    caller runs the network. *)
val demo_traffic :
  ?on_done:(Compiler.Incremental.report -> unit) -> Flexnet.t -> int ref

(** {1 Elastic SYN defense (§1.1)} *)

(** A spoofed SYN flood from h0 at h1 on a generator seeded [seed]:
    starts at [start], ramps to [peak_pps] over [ramp_up], holds, then
    decays over [ramp_down]. Returns the live count of SYNs sent. *)
val syn_flood :
  seed:int -> peak_pps:float -> start:float -> ramp_up:float -> hold:float ->
  ramp_down:float -> Flexnet.t -> int ref

type defense = {
  policy : Control.Elastic.t;
  sample : unit -> float;
      (** Offered SYN load in pps: the first switch's per-window
          counter while a replica is up, otherwise the growth of
          [victim] since the previous sample. *)
}

(** Register the SYN defense (threshold 100) as a controller app and
    scale it over the switches with an elastic policy named [name]: one
    replica per 8k offered pps, at most 3, sampled every 100 ms with a
    300 ms cooldown. [victim] reads the caller's count of SYNs that
    reached h1; [on_inject]/[on_retire] are passed to
    {!Control.Elastic.app_actuator}. *)
val elastic_defense :
  ?on_inject:(Targets.Device.t -> unit) ->
  ?on_retire:(Targets.Device.t -> unit) ->
  name:string -> victim:(unit -> int) -> Flexnet.t -> defense

(** {1 Count-min state migration (§3.4)} *)

(** A dRMT device [id] running a count-min sketch of 3 rows of [width]
    (default 512) counters in map ["cms"]. *)
val count_min_device : ?width:int -> string -> Targets.Device.t

type migration = {
  expected : int; (** sketch updates applied: packets × rows *)
  present : int; (** updates present on the active device afterwards *)
  window : float; (** seconds the protocol's transfer took *)
}

(** Migrate a count-min sketch between two fresh devices while CBR
    traffic at [pps] updates it for 1 s: source addresses are drawn
    from \[0, [flows]) with a RNG seeded [seed], and the protocol starts
    at t=0.5 ([on_start] runs just before; [on_done t r] runs at the
    cutover time [t]). [entries_per_second] sets the freeze-copy
    controller throughput. *)
val migrate_count_min :
  ?entries_per_second:float -> ?on_start:(unit -> unit) ->
  ?on_done:(float -> Runtime.Migration.report -> unit) -> seed:int ->
  flows:int -> pps:float -> [ `Freeze | `Swing ] -> migration

(** {1 Tiered Zipf forwarding table} *)

(** The table's name, ["fwd"]. *)
val fwd_table : string

(** Rule [dst] forwards to port [1 + dst mod 64]. *)
val port_of_dst : int -> int

(** One exact-match table with a rule for every destination in
    \[1, [rules]\], its device tier capped at [cap] rules ([0] keeps the
    flat store), compiled. The env holds the logical hit/miss counters. *)
val tiered_table :
  rules:int -> cap:int -> Flexbpf.Interp.env * Flexbpf.Compile.t

(** [packets] Zipf([alpha]) destinations over \[1, [rules]\] (generator
    seed 1717), and one packet per destination at index [dst - 1]. *)
val zipf_stream :
  alpha:float -> rules:int -> packets:int -> int array * Netsim.Packet.t array

(** {1 Sharded fat tree} *)

(** A [k]-ary fat tree (25 µs core links) partitioned per pod, with a
    Poisson source of [lambda] pps on every host over \[0, [until]): a
    share [locality] of destinations stays in the sender's pod. Host
    [h] draws gaps from seed [gen_seed + h] and destinations from
    [[|dst_seed; h|]], so the load is the same for any partition or
    domain count. [on_switch view node] runs once per local switch at
    build and returns its per-packet hook; [on_deliver] gets the shard
    index of every delivery. The engine is built, not run. *)
val fabric :
  ?on_switch:(Netsim.Shard.view -> Netsim.Node.t -> Netsim.Packet.t -> unit) ->
  ?on_deliver:(int -> unit) -> k:int -> gen_seed:int -> dst_seed:int ->
  lambda:float -> locality:float -> until:float -> unit -> Netsim.Shard.t

(** {1 Tenant-churn bidders (E9, E18, flexnet market)} *)

(** Spec [i] fixes the program, sojourn and market parameters of the
    i-th arrival, so runs under different admission policies face the
    same tenant population. *)
type churn_spec = {
  cs_name : string;
  cs_program : Flexbpf.Ast.program;
  cs_sojourn : float; (** departs (or gives up waiting) after this long *)
  cs_budget : float; (** market: max spend per clearing round *)
  cs_weight : float; (** market: utility scale *)
  cs_protected : bool; (** market: Protected SLA, never preempted *)
}

(** [n] arrivals drawn from [seed]: 60% ACL tables of 64k..1M rules,
    20% firewalls, 20% NATs. Sojourns are exponential with mean 4 s, so
    at the E9/E18 arrival rates (60–100/s) the offered concurrency
    overloads one switch and admission policy decides utilization. *)
val churn_specs : seed:int -> int -> churn_spec list

(** The spec as a market bidder. *)
val bidder :
  churn_spec -> (Market.Tenant.t, Flexbpf.Analysis.rejection) result
