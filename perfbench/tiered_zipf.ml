(* tiered_zipf: the E17 shape at its 10% point. A compiled 4096-rule
   exact-match forwarding table runs with its device tier capped at 410
   entries, driven closed loop by a seeded Zipf(1.4) destination
   stream. Every lookup gets a fresh packet, so construction cost is
   paid and no metadata carries from one lookup to the next, and every
   egress is checked. Misses promote and evict (writes) alongside the
   hits (reads). Engine, links, shards and control plane stay idle. *)

open Flexbpf.Builder

let rules = 4096
let capacity = 410
let alpha = 1.4
let lookups = 200_000 (* per episode *)
let batch = 128 (* lookups per latency sample *)
let table_name = "fwd"
let port_of_dst dst = 1 + (dst mod 64)

let forwarding_program () =
  program "tiered_zipf" ~headers:standard_headers ~parser:standard_parser
    [ table table_name
        ~keys:[ exact (field "ipv4" "dst") ]
        ~actions:[ action "fwd" ~params:[ "port" ] [ forward (param "port") ] ]
        ~size:rules () ]

let build () =
  let prog = forwarding_program () in
  let env = Flexbpf.Interp.create_env prog in
  for dst = 1 to rules do
    Flexbpf.Interp.install_rule env table_name
      (rule ~matches:[ exact_i dst ] ~action:("fwd", [ port_of_dst dst ]) ())
  done;
  Flexbpf.Interp.set_tier_capacity env table_name capacity;
  (env, Flexbpf.Compile.compile env prog)

let packet dst =
  Netsim.Traffic.tcp_packet ~src:7 ~dst ~sport:1234 ~dport:80 ~born:0. ()

(* Spans are kept for one flow in 64. A destination is one flow, so
   its decision is taken from its first packet's flow hash and kept. *)
let sampled memo dst pkt =
  match memo.(dst) with
  | 0 ->
    let s = Netsim.Packet.flow_hash pkt land 63 = 0 in
    memo.(dst) <- (if s then 1 else 2);
    s
  | m -> m = 1

let run_episode ~seed ~index ~ledger =
  let dsts =
    let gen =
      Netsim.Traffic.create ~seed:(Hashtbl.hash (seed, index))
        (Netsim.Sim.create ())
    in
    let draw = Netsim.Traffic.zipf ~alpha gen ~n:rules in
    Array.init lookups (fun _ -> draw ())
  in
  let (env, compiled), setup_s = Episode.setup ~builds:15 build in
  let lat = Episode.Samples.create () in
  let wrong = ref 0 and egress_sum = ref 0 in
  let check dst (r : Flexbpf.Interp.result) =
    match r.Flexbpf.Interp.verdict.Flexbpf.Interp.egress with
    | Some p when p = port_of_dst dst -> egress_sum := !egress_sum + p
    | _ -> incr wrong
  in
  let lookup =
    match ledger with
    | None ->
      fun i ->
        let dst = dsts.(i) in
        check dst (Flexbpf.Compile.run compiled (packet dst))
    | Some lg ->
      (* a tier miss pages in through this hook while Compile.run is
         still open, so the call is charged as a miss *)
      let page_in = env.Flexbpf.Interp.page_in in
      env.Flexbpf.Interp.page_in <-
        (fun table key commit ->
          Ledger.retag lg Ledger.tier_miss;
          page_in table key commit);
      let memo = Array.make (rules + 1) 0 in
      fun i ->
        let dst = dsts.(i) in
        Ledger.enter lg Ledger.packet_new;
        let pkt = packet dst in
        Ledger.leave lg;
        let id = if sampled memo dst pkt then i else -1 in
        Ledger.enter lg Ledger.tier_hit;
        let r = Flexbpf.Compile.run compiled pkt in
        Ledger.leave_span lg ~id ~parent:(-1);
        check dst r
  in
  let (), timed =
    Episode.measure (fun () ->
        let t0 = ref (Episode.cpu_s ()) in
        for i = 0 to lookups - 1 do
          lookup i;
          if (i + 1) mod batch = 0 then begin
            let t1 = Episode.cpu_s () in
            Episode.Samples.add lat ((t1 -. !t0) *. 1e6 /. float_of_int batch);
            t0 := t1
          end
        done)
  in
  let s =
    match Flexbpf.Compile.tier_stats compiled with
    | [ s ] -> s
    | l -> failwith (Printf.sprintf "tiered_zipf: %d tiered tables" (List.length l))
  in
  let open Flexbpf.Compile in
  let errors =
    List.concat
      [ (if !wrong = 0 then []
         else [ Printf.sprintf "tiered_zipf: %d of %d lookups misforwarded" !wrong lookups ]);
        (if s.ts_hits + s.ts_misses = lookups then []
         else
           [ Printf.sprintf "tiered_zipf: %d hits + %d misses <> %d lookups"
               s.ts_hits s.ts_misses lookups ]);
        (if s.ts_resident <= capacity then []
         else
           [ Printf.sprintf "tiered_zipf: %d resident entries exceed the %d cap"
               s.ts_resident capacity ]) ]
  in
  let fingerprint =
    Printf.sprintf "%d %d %d %d %d %d" s.ts_hits s.ts_misses s.ts_promotions
      s.ts_evictions s.ts_demotions !egress_sum
  in
  { Episode.setup_s; timed; ops = lookups - !wrong;
    lat_us = Episode.Samples.to_array lat; attempted = lookups;
    failed = !wrong; errors; events = 0;
    counts =
      [ ("failures", float_of_int !wrong);
        ("tier.hits", float_of_int s.ts_hits);
        ("tier.misses", float_of_int s.ts_misses);
        ("tier.hit_rate",
         float_of_int s.ts_hits /. float_of_int (s.ts_hits + s.ts_misses));
        ("tier.promotions", float_of_int s.ts_promotions);
        ("tier.evictions", float_of_int s.ts_evictions);
        ("tier.demotions", float_of_int s.ts_demotions) ];
    digest = Digest.to_hex (Digest.string fingerprint) }
